"""Three-body inertia-bound toolkit.

Jacobi-coordinate dynamics of the spatial three-body problem, an explicit
chain of constants bounding how long any orbit can stay large, and the
numerical machinery (exact Kepler propagation, Lambert times of flight,
regularized integration, level-exact sampling) that verifies every
quantitative step of that chain on simulated orbits.

Each name is imported from the submodule that defines it, for example
``from lunarbound.bounds import i0``; the package itself imports nothing,
so importing it or the CLI loads no numpy until a command needs it.
"""

__version__ = "0.1.0"
