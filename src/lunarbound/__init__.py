"""Three-body inertia-bound toolkit.

Jacobi-coordinate dynamics of the spatial three-body problem, an explicit
chain of constants bounding how long any orbit can stay large, and the
numerical machinery (exact Kepler propagation, Lambert times of flight,
regularized integration, level-exact sampling) that verifies every
quantitative step of that chain on simulated orbits.
"""

from .core import (
    CartesianState,
    JacobiState,
    MassParams,
    SingularConfigurationError,
    angular_momentum,
    energy_split,
    from_jacobi,
    moment_of_inertia,
    perturbation,
    to_jacobi,
)
from .kepler import (
    CollisionAtTimeError,
    InfeasibleGeometryError,
    KeplerElements,
    TwoBodyState,
    collision_time_bound,
    elements_from_state,
    lambert_time_of_flight,
    pericenter_distance_bound,
    propagate,
    time_to_pericenter,
)
from .bounds import (
    BoundSet,
    NoSplittingError,
    compute_chain,
    euler_configuration,
    i0,
    i_star,
    region_constants,
)
from .integrate import (
    Event,
    EventSpec,
    Trajectory,
    integrate,
)
from .osculate import osculating_orbit, sandwich_ode, verify_deviation
from .harness import (
    ScenarioConfig,
    run_appendix_scenario,
    run_theorem_experiment,
    sample_initial_conditions,
)

__version__ = "0.1.0"
