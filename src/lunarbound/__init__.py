"""Three-body inertia-bound toolkit.

Jacobi-coordinate dynamics of the spatial three-body problem, an explicit
chain of constants bounding how long any orbit can stay large, and the
numerical machinery (exact Kepler propagation, Lambert times of flight,
regularized integration, level-exact sampling) that verifies every
quantitative step of that chain on simulated orbits.

The names below are loaded on first access (PEP 562), each with the
submodule that defines it, so importing the package or the CLI loads no
numpy until a command needs it.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "CartesianState", "JacobiState", "MassParams", "SingularConfigurationError",
        "angular_momentum", "energy_split", "from_jacobi", "moment_of_inertia",
        "perturbation", "to_jacobi",
    ), "core"),
    **dict.fromkeys((
        "CollisionAtTimeError", "InfeasibleGeometryError", "KeplerElements", "TwoBodyState",
        "collision_time_bound", "elements_from_state", "lambert_time_of_flight",
        "pericenter_distance_bound", "propagate", "time_to_pericenter",
    ), "kepler"),
    **dict.fromkeys((
        "BoundSet", "NoSplittingError", "compute_chain", "euler_configuration", "i0",
        "i_star", "region_constants",
    ), "bounds"),
    **dict.fromkeys(("Event", "EventSpec", "Trajectory", "integrate"), "integrate"),
    **dict.fromkeys(("osculating_orbit", "sandwich_ode", "verify_deviation"), "osculate"),
    **dict.fromkeys(("ScenarioConfig",), "config"),
    **dict.fromkeys((
        "run_appendix_scenario", "run_theorem_experiment", "sample_initial_conditions",
    ), "harness"),
}

_SUBMODULES = ("bounds", "cli", "config", "core", "harness", "integrate", "kepler",
               "osculate", "roots")

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})


class _Package(types.ModuleType):
    """The import system binds every loaded submodule on its package.  The
    name integrate stays the function, as it was when the package imported
    everything up front, not the submodule that defines it."""

    def __setattr__(self, name, value):
        if not (name == "integrate" and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
