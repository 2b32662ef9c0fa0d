"""Configuration-space model of the spatial three-body problem.

Everything downstream is written in Jacobi coordinates: the short vector
joins the two binary members, the long vector joins the binary's center of
mass to the far body.  In these coordinates the dynamics is a pair of Kepler
problems coupled by an interaction term that decays like r^2 / rho^3, and
the conserved quantities split accordingly.

Units: G = 1, masses in arbitrary positive units; all derived mass constants
are recomputed from (m1, m2, m3) on access and never stored.

All functions here are pure and all value types immutable, so states can be
shared freely between threads and processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularConfigurationError",
    "MassParams",
    "CartesianState",
    "JacobiState",
    "to_jacobi",
    "from_jacobi",
    "moment_of_inertia",
    "angular_momentum",
    "energy_split",
    "perturbation",
    "flat_inertia",
    "flat_angular_momentum",
    "flat_energy",
    "make_rhs",
]

# Relative tolerance for validating center-of-mass / momentum invariants
COM_TOL = 1e-9


class SingularConfigurationError(ValueError):
    """Two bodies coincide, so a potential term is undefined."""


def _vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class MassParams:
    """The three masses; every derived constant is a pure function of them."""

    m1: float
    m2: float
    m3: float

    def __post_init__(self):
        for name in ("m1", "m2", "m3"):
            val = float(getattr(self, name))
            if not (val > 0.0 and math.isfinite(val)):
                raise ValueError(f"{name} must be a positive finite mass, got {val}")
            object.__setattr__(self, name, val)

    @property
    def mu(self) -> float:
        """Binary mass m1 + m2."""
        return self.m1 + self.m2

    @property
    def M(self) -> float:
        """Total mass."""
        return self.m1 + self.m2 + self.m3

    @property
    def alpha1(self) -> float:
        return self.m1 * self.m2 / self.mu

    @property
    def alpha2(self) -> float:
        return self.m3 * self.mu / self.M

    @property
    def beta1(self) -> float:
        return self.mu * self.alpha1

    @property
    def beta2(self) -> float:
        return self.M * self.alpha2

    @property
    def mu1(self) -> float:
        return self.m1 / self.mu

    @property
    def mu2(self) -> float:
        return self.m2 / self.mu

    def masses(self) -> tuple:
        return (self.m1, self.m2, self.m3)

    def relabeled(self, far_body: int) -> "MassParams":
        """Masses relabeled so the requested body plays the far-body role.

        The returned parameters keep the (binary, binary, far) convention:
        far_body=3 is the identity.
        """
        if far_body == 3:
            return self
        if far_body == 1:
            return MassParams(self.m2, self.m3, self.m1)
        if far_body == 2:
            return MassParams(self.m3, self.m1, self.m2)
        raise ValueError(f"far_body must be 1, 2 or 3, got {far_body}")


@dataclass(frozen=True)
class CartesianState:
    """Positions and velocities of the three bodies in the inertial frame."""

    q1: np.ndarray
    q2: np.ndarray
    q3: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray

    def __post_init__(self):
        for name in ("q1", "q2", "q3", "v1", "v2", "v3"):
            object.__setattr__(self, name, _vec3(getattr(self, name)))

    def positions(self) -> np.ndarray:
        return np.stack([self.q1, self.q2, self.q3])

    def velocities(self) -> np.ndarray:
        return np.stack([self.v1, self.v2, self.v3])


@dataclass(frozen=True)
class JacobiState:
    """Jacobi vectors and their velocities.

    r = |xi1| is the binary separation, rho = |xi2| the distance of the far
    body from the binary's barycenter (up to the usual mass factor).  r = 0
    flags an inner-binary collision, rho = 0 an outer degeneracy.
    """

    xi1: np.ndarray
    dxi1: np.ndarray
    xi2: np.ndarray
    dxi2: np.ndarray

    def __post_init__(self):
        for name in ("xi1", "dxi1", "xi2", "dxi2"):
            object.__setattr__(self, name, _vec3(getattr(self, name)))

    @property
    def r(self) -> float:
        return float(np.linalg.norm(self.xi1))

    @property
    def rho(self) -> float:
        return float(np.linalg.norm(self.xi2))

    def as_vector(self) -> np.ndarray:
        """Flat layout [xi1, xi2, dxi1, dxi2] used by the integrators."""
        return np.concatenate([self.xi1, self.xi2, self.dxi1, self.dxi2])

    @classmethod
    def from_vector(cls, y) -> "JacobiState":
        y = np.asarray(y, dtype=float)
        return cls(xi1=y[0:3], xi2=y[3:6], dxi1=y[6:9], dxi2=y[9:12])


def to_jacobi(state: CartesianState, mp: MassParams, tol: float = COM_TOL) -> JacobiState:
    """Cartesian -> Jacobi.  Rejects states that are not in the co-moving
    center-of-mass frame (beyond ``tol``, relative to the state's norm)."""
    q = state.positions()
    v = state.velocities()
    m = np.array(mp.masses())
    scale_q = max(np.abs(m[:, None] * q).max(), 1e-300)
    scale_v = max(np.abs(m[:, None] * v).max(), 1e-300)
    com = m @ q
    mom = m @ v
    if np.abs(com).max() > tol * 3 * scale_q:
        raise ValueError(f"center of mass not at origin (residual {np.abs(com).max():.3e})")
    if np.abs(mom).max() > tol * 3 * scale_v:
        raise ValueError(f"total linear momentum nonzero (residual {np.abs(mom).max():.3e})")
    xi1 = state.q2 - state.q1
    xi2 = state.q3 - (mp.m1 * state.q1 + mp.m2 * state.q2) / mp.mu
    dxi1 = state.v2 - state.v1
    dxi2 = state.v3 - (mp.m1 * state.v1 + mp.m2 * state.v2) / mp.mu
    return JacobiState(xi1=xi1, dxi1=dxi1, xi2=xi2, dxi2=dxi2)


def from_jacobi(state: JacobiState, mp: MassParams) -> CartesianState:
    """Jacobi -> Cartesian.  The output is constructed in the center-of-mass
    frame, so its invariants hold to rounding without any projection step."""
    f3 = mp.m3 / mp.M
    q3 = (mp.mu / mp.M) * state.xi2
    q1 = -f3 * state.xi2 - mp.mu2 * state.xi1
    q2 = -f3 * state.xi2 + mp.mu1 * state.xi1
    v3 = (mp.mu / mp.M) * state.dxi2
    v1 = -f3 * state.dxi2 - mp.mu2 * state.dxi1
    v2 = -f3 * state.dxi2 + mp.mu1 * state.dxi1
    return CartesianState(q1=q1, q2=q2, q3=q3, v1=v1, v2=v2, v3=v3)


def moment_of_inertia(state, mp: MassParams) -> float:
    """I = alpha1 r^2 + alpha2 rho^2 (equals sum m_i |q_i|^2 in the CoM frame).

    ``state`` is a JacobiState or a flat state vector in as_vector layout,
    the form event functions receive.
    """
    if isinstance(state, JacobiState):
        state = state.as_vector().tolist()
    return float(flat_inertia(mp)(state))


def flat_inertia(mp: MassParams):
    """I(y) on a flat state vector y (as_vector layout), with the mass
    factors read once: the one formula for I.  Event functions call it at
    every step end; on the rows of a node array's transpose it gives I at
    every node, as numpy's row sums of squares would."""
    a1, a2 = mp.alpha1, mp.alpha2

    def inertia(y):
        x1, y1, z1, x2, y2, z2 = y[0], y[1], y[2], y[3], y[4], y[5]
        return a1 * (x1 * x1 + y1 * y1 + z1 * z1) + a2 * (x2 * x2 + y2 * y2 + z2 * z2)

    return inertia


def angular_momentum(state: JacobiState, mp: MassParams):
    """Total angular momentum and its inner/outer split (J, J1, J2), as
    numpy 3-vectors."""
    return tuple(np.array(v) for v in flat_angular_momentum(mp)(state.as_vector().tolist()))


def flat_angular_momentum(mp: MassParams):
    """(J, J1, J2) on a flat state y, as 3-tuples of floats: the one formula
    for J = J1 + J2, with J1 = alpha1 xi1 x xi1' and J2 = alpha2 xi2 x xi2'."""
    a1, a2 = mp.alpha1, mp.alpha2

    def angmom(y):
        x1, y1, z1, x2, y2, z2, vx1, vy1, vz1, vx2, vy2, vz2 = y
        J1 = (a1 * (y1 * vz1 - z1 * vy1), a1 * (z1 * vx1 - x1 * vz1), a1 * (x1 * vy1 - y1 * vx1))
        J2 = (a2 * (y2 * vz2 - z2 * vy2), a2 * (z2 * vx2 - x2 * vz2), a2 * (x2 * vy2 - y2 * vx2))
        return (J1[0] + J2[0], J1[1] + J2[1], J1[2] + J2[2]), J1, J2

    return angmom


def perturbation(state: JacobiState, mp: MassParams) -> float:
    """The coupling g = beta2/rho - m1 m3/|q3-q1| - m2 m3/|q3-q2|, read off
    energy_split, so it requires r > 0 too.

    Vanishes to second order as the binary shrinks onto its barycenter.
    """
    return energy_split(state, mp)[3]


def energy_split(state: JacobiState, mp: MassParams):
    """(H, H1, H2, g): total energy, the two Kepler energies, the coupling.

    Requires r > 0 and a non-degenerate outer configuration.
    """
    return flat_energy(mp)(state.as_vector().tolist())


def flat_energy(mp: MassParams):
    """(H, H1, H2, g) on a flat state y: the one formula for H and for the
    coupling g, whose distances |u| and |w| are the far body's from the two
    binary members.  Raises SingularConfigurationError at r = 0 and where
    the far body sits on a binary member or on the binary's barycenter."""
    a1, a2 = mp.alpha1, mp.alpha2
    beta1, beta2 = mp.beta1, mp.beta2
    mu1, mu2 = mp.mu1, mp.mu2
    m13, m23 = mp.m1 * mp.m3, mp.m2 * mp.m3

    def energy(y):
        x1, y1, z1, x2, y2, z2, vx1, vy1, vz1, vx2, vy2, vz2 = y
        ux, uy, uz = x2 + mu2 * x1, y2 + mu2 * y1, z2 + mu2 * z1
        wx, wy, wz = x2 - mu1 * x1, y2 - mu1 * y1, z2 - mu1 * z1
        r = math.sqrt(x1 * x1 + y1 * y1 + z1 * z1)
        rho = math.sqrt(x2 * x2 + y2 * y2 + z2 * z2)
        nu = math.sqrt(ux * ux + uy * uy + uz * uz)
        nw = math.sqrt(wx * wx + wy * wy + wz * wz)
        if r == 0.0:
            raise SingularConfigurationError("binary collision: r = 0")
        if nu == 0.0 or nw == 0.0 or rho == 0.0:
            raise SingularConfigurationError(
                "far body coincides with a binary member or with the binary barycenter")
        g = beta2 / rho - m13 / nu - m23 / nw
        H1 = 0.5 * a1 * (vx1 * vx1 + vy1 * vy1 + vz1 * vz1) - beta1 / r
        H2 = 0.5 * a2 * (vx2 * vx2 + vy2 * vy2 + vz2 * vz2) - beta2 / rho
        return H1 + H2 + g, H1, H2, g

    return energy


def _coupling_kernel(mp: MassParams, kepler_only: bool = False):
    """The integrators' coupling on Python floats: coupling(x1, y1, z1, x2,
    y2, z2, p3) returns g_xi1 and g_xi2 as six floats, for xi1 = (x1, y1,
    z1), xi2 = (x2, y2, z2) and p3 = |xi2|^3; zeros with ``kepler_only``.
    The tests check it against a numpy reference of the same gradients."""
    if kepler_only:
        return lambda *args: (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    mu1, mu2 = mp.mu1, mp.mu2
    beta2 = mp.beta2
    m13 = mp.m1 * mp.m3
    m23 = mp.m2 * mp.m3

    def coupling(x1, y1, z1, x2, y2, z2, p3):
        ux = x2 + mu2 * x1
        uy = y2 + mu2 * y1
        uz = z2 + mu2 * z1
        wx = x2 - mu1 * x1
        wy = y2 - mu1 * y1
        wz = z2 - mu1 * z1
        nu2 = ux * ux + uy * uy + uz * uz
        nw2 = wx * wx + wy * wy + wz * wz
        cu = m13 / (nu2 * math.sqrt(nu2))
        cw = m23 / (nw2 * math.sqrt(nw2))
        # g_xi1 = mu2*cu*u - mu1*cw*w ; g_xi2 = -beta2*xi2/rho^3 + cu*u + cw*w
        gb = beta2 / p3
        return (
            mu2 * cu * ux - mu1 * cw * wx,
            mu2 * cu * uy - mu1 * cw * wy,
            mu2 * cu * uz - mu1 * cw * wz,
            cu * ux + cw * wx - gb * x2,
            cu * uy + cw * wy - gb * y2,
            cu * uz + cw * wz - gb * z2,
        )

    return coupling


def make_rhs(mp: MassParams, kepler_only: bool = False):
    """Right-hand side f(t, y) of the adaptive integrators, on Python floats.

    y is a list of 12 floats in the layout of JacobiState.as_vector,
    [xi1, xi2, dxi1, dxi2], and f returns a new list in the same layout.
    Python float arithmetic costs a third to a half of numpy scalars here,
    and scalar code beats vectorized numpy by ~4x at this dimension.  Any
    other sequence of floats works too: a numpy array is read as numpy
    scalars, with the same results.
    """
    mu = mp.mu
    M = mp.M
    a1, a2 = mp.alpha1, mp.alpha2
    coupling = _coupling_kernel(mp, kepler_only)

    def field(v):
        x1, y1, z1, x2, y2, z2, vx1, vy1, vz1, vx2, vy2, vz2 = v
        r2 = x1 * x1 + y1 * y1 + z1 * z1
        p2 = x2 * x2 + y2 * y2 + z2 * z2
        r3 = r2 * math.sqrt(r2)
        p3 = p2 * math.sqrt(p2)
        c1 = -mu / r3
        c2 = -M / p3
        g1x, g1y, g1z, g2x, g2y, g2z = coupling(x1, y1, z1, x2, y2, z2, p3)
        return [
            vx1, vy1, vz1, vx2, vy2, vz2,
            c1 * x1 - g1x / a1, c1 * y1 - g1y / a1, c1 * z1 - g1z / a1,
            c2 * x2 - g2x / a2, c2 * y2 - g2y / a2, c2 * z2 - g2z / a2,
        ]

    return _float_rhs(field)


def _float_rhs(field):
    """rhs(t, y) = field(y).  A zero distance or an overflow, where Python
    floats raise, is evaluated on numpy scalars instead, which give inf or
    nan."""

    def rhs(t, y):
        try:
            return field(y)
        except (ZeroDivisionError, OverflowError):
            return field(np.asarray(y, dtype=float))

    return rhs
