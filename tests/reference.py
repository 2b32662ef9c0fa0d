"""Numpy reference formulas the tests check the program's float kernels
against, and the closed forms only tests read (the strip ladder, the
Kepler period).  The program itself runs none of them."""

import math

import numpy as np

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
