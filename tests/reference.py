"""Numpy reference formulas the tests check the program's float kernels
against, and the closed forms only tests read (the strip ladder, the
Kepler period, and the two-body lemmas: time to pericenter, the collision
and pericenter caps, radial fall times and Lambert's time of flight).  The
program itself runs none of them."""

import math
from typing import NamedTuple

import numpy as np

from lunarbound import kepler
from lunarbound.bounds import BoundSet
from lunarbound.core import JacobiState, MassParams, SingularConfigurationError
from lunarbound.kepler import KeplerElements


def perturbation_gradients(state: JacobiState, mp: MassParams):
    """Analytic gradients (g_xi1, g_xi2) of the coupling term.

    The dipole contributions cancel, which is why |g_xi2| = O(r^2/rho^4);
    finite differences are used as the oracle for these in the tests.
    """
    u = state.xi2 + mp.mu2 * state.xi1
    w = state.xi2 - mp.mu1 * state.xi1
    nu, nw, rho = np.linalg.norm(u), np.linalg.norm(w), state.rho
    if nu == 0.0 or nw == 0.0 or rho == 0.0:
        raise SingularConfigurationError("far body on a binary member or on the barycenter")
    m13 = mp.m1 * mp.m3
    m23 = mp.m2 * mp.m3
    gu = u / nu**3
    gw = w / nw**3
    g_xi1 = m13 * mp.mu2 * gu - m23 * mp.mu1 * gw
    g_xi2 = -mp.beta2 * state.xi2 / rho**3 + m13 * gu + m23 * gw
    return g_xi1, g_xi2


def vector_field(state: JacobiState, mp: MassParams, kepler_only: bool = False) -> np.ndarray:
    """Time derivative of the flat state vector (see JacobiState.as_vector).

    alpha_i xi_i'' = -beta_i xi_i/|xi_i|^3 - g_xi_i, i.e. the force is minus
    the gradient of the full potential; the sign is pinned by conservation of
    the split energy, which the integration tests check.  ``kepler_only``
    drops the coupling (two uncoupled Kepler fields with parameters mu and
    M).
    """
    r = state.r
    rho = state.rho
    if r == 0.0 or rho == 0.0:
        raise SingularConfigurationError("degenerate configuration in vector_field")
    dd1 = -mp.mu * state.xi1 / r**3
    dd2 = -mp.M * state.xi2 / rho**3
    if not kepler_only:
        g1, g2 = perturbation_gradients(state, mp)
        dd1 = dd1 - g1 / mp.alpha1
        dd2 = dd2 - g2 / mp.alpha2
    return np.concatenate([state.dxi1, state.dxi2, dd1, dd2])


def marchal_phi(mp: MassParams, lam, gamma):
    """Marchal's two-term attraction factor on numpy arrays; phi(0, gamma) = 1
    for all gamma."""
    mu1, mu2 = mp.mu1, mp.mu2
    cg = np.cos(gamma)
    t1 = mu1 * (1.0 + mu2 * cg * lam) / (1.0 + 2.0 * mu2 * cg * lam + (mu2 * lam) ** 2) ** 1.5
    t2 = mu2 * (1.0 - mu1 * cg * lam) / (1.0 - 2.0 * mu1 * cg * lam + (mu1 * lam) ** 2) ** 1.5
    return t1 + t2


def strip(bs: BoundSet, s: float):
    """(I_s, I_s^+) for the strip ladder I_s = R_bar_lambda + s, s >= 0."""
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    I_s = bs.R_bar_lambda + s
    return I_s, bs.i_plus(I_s)


def period(el: KeplerElements) -> float:
    """Orbital period for bound orbits (inf otherwise)."""
    if el.h >= 0.0:
        return math.inf
    return 2.0 * math.pi * math.sqrt(el.a**3 / el.kappa)


class InfeasibleGeometryError(ValueError):
    """Chord/radii/energy combination admits no Kepler arc."""


class PericenterTime(NamedTuple):
    """Unsigned time to pericenter plus the direction that reaches it first
    along the arc not containing apocenter (+1 forward, -1 backward)."""

    time: float
    direction: int


def time_to_pericenter(s: kepler.TwoBodyState) -> PericenterTime:
    """Time to pericenter along the pericenter-side arc.

    Inbound states reach pericenter forward; outbound states most recently
    left it, so the direct arc lies backward.  For radial orbits this is the
    time to (or since) collision.  Circular orbits return 0 by convention:
    every point of a circle is its own pericenter.
    """
    r = s.r
    if r == 0.0:
        raise ValueError("zero radius state")
    rv = float(np.dot(s.xi, s.dxi))
    el = kepler.elements_from_state(s)
    if el.e < 1e-13:
        return PericenterTime(0.0, +1)

    if kepler._is_radial(s):
        t_prev, t_next = kepler._radial_collision_window(s)
        if rv < 0.0 or t_next <= -t_prev:
            return PericenterTime(t_next, +1)
        return PericenterTime(-t_prev, -1)

    m = kepler._time_since_pericenter(r, rv, el.h, s.kappa, el.e, el.q_peri)
    if m > 0.0:
        return PericenterTime(m, -1)
    return PericenterTime(abs(m), +1)


def collision_time_bound(rho0: float, kappa: float) -> float:
    """pi (8 kappa)^(-1/2) rho0^(3/2): caps the fall time of every inbound
    radial state released at distance rho0 (equality when falling from rest)."""
    if rho0 <= 0.0 or kappa <= 0.0:
        raise ValueError("rho0 and kappa must be positive")
    return math.pi * rho0**1.5 / math.sqrt(8.0 * kappa)


def radial_fall_time(x: float, h: float, kappa: float) -> float:
    """Time from the center to radius x on a radial orbit of energy h.

    The outbound reading of the Kepler clock at e = 1, q = 0; this is also
    the building block of the time-of-flight function below (any Kepler arc
    has a rectilinear configuration with the same energy, chord and radius
    sum).
    """
    if x <= 0.0:
        return 0.0
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    if h < 0.0 and x > (1.0 + 1e-12) * kappa / abs(h):
        raise InfeasibleGeometryError(
            f"radius {x} unreachable at energy {h} (max {kappa / abs(h)})"
        )
    rv = x * math.sqrt(max(2.0 * (h + kappa / x), 0.0))
    return kepler._time_since_pericenter(x, rv, h, kappa)


def lambert_time_of_flight(r1: float, r2: float, d: float, h: float, kappa: float) -> float:
    """Kepler time of flight between two points at radii r1, r2 with chord d,
    on the arc not containing apocenter (the "short way").

    Depends on the endpoints only through r1 + r2 and d, which is Lambert's
    theorem; concretely it equals the difference of radial fall times of the
    rectilinear configuration with s2 - s1 = d, s1 + s2 = r1 + r2.
    Multi-revolution branches are out of scope.
    """
    if r1 < 0.0 or r2 < 0.0 or d < 0.0:
        raise InfeasibleGeometryError("radii and chord must be nonnegative")
    tol = 1e-12 * (r1 + r2 + d)
    if d > r1 + r2 + tol or d < abs(r1 - r2) - tol:
        raise InfeasibleGeometryError(
            f"no triangle with radii ({r1}, {r2}) and chord {d}"
        )
    s2 = 0.5 * (r1 + r2 + d)
    s1 = max(0.5 * (r1 + r2 - d), 0.0)
    return radial_fall_time(s2, h, kappa) - radial_fall_time(s1, h, kappa)


def pericenter_distance_bound(c_j2: float, kappa: float) -> float:
    """c_j2^2 / kappa: pericenter distance cap for any orbit with c <= c_j2.

    Worst case is the circular orbit (e = 0); collision orbits (c = 0) have
    pericenter distance zero.
    """
    if c_j2 < 0.0:
        raise ValueError("c_j2 must be nonnegative")
    return c_j2 * c_j2 / kappa
