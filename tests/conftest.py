import math

import numpy as np
import pytest

from lunarbound import bounds, kepler
from lunarbound.bounds import compute_chain, i0
from lunarbound.core import JacobiState, MassParams
from lunarbound.integrate import EventSpec
from lunarbound.harness import APPENDIX_H, APPENDIX_J, APPENDIX_MASSES


@pytest.fixture(autouse=True)
def cold_chain_memos():
    """Each test starts with empty memos of the chain's mass-only stages, so
    a test that counts root solves or enclosures, or records the call sites
    they reach, sees the same calls whatever ran before it."""
    bounds._collinear_line.cache_clear()
    bounds._marchal_delta.cache_clear()


@pytest.fixture(scope="session")
def mp_equal():
    return MassParams(*APPENDIX_MASSES)


@pytest.fixture(scope="session")
def appendix_chain(mp_equal):
    """Bound chain for the equal-mass reference levels (computed once)."""
    return compute_chain(mp_equal, APPENDIX_H, APPENDIX_J)


@pytest.fixture(scope="session")
def appendix_i0(mp_equal):
    return i0(mp_equal, APPENDIX_H, APPENDIX_J)


def random_jacobi_state(rng, scale=1.0, hierarchical=True):
    """A generic non-degenerate state for identity tests."""
    if hierarchical:
        xi1 = rng.normal(size=3) * 0.3 * scale
        xi2 = rng.normal(size=3) * 5.0 * scale
        while np.linalg.norm(xi2) < 2.0 * scale:
            xi2 = rng.normal(size=3) * 5.0 * scale
    else:
        xi1 = rng.normal(size=3) * scale
        xi2 = rng.normal(size=3) * scale
    dxi1 = rng.normal(size=3)
    dxi2 = rng.normal(size=3) * 0.3
    return JacobiState(xi1=xi1, dxi1=dxi1, xi2=xi2, dxi2=dxi2)


def coupling_term_sizes(js: JacobiState, mp: MassParams):
    """|m1 m3 u / |u|^3| and |m2 m3 w / |w|^3|, the summands of the coupling
    gradients (u, w: far body relative to the two binary members).  The
    dipole parts of the sums cancel, so any two ways of computing the
    gradients agree to rounding of these sizes, not of the result."""
    nu = np.linalg.norm(js.xi2 + mp.mu2 * js.xi1)
    nw = np.linalg.norm(js.xi2 - mp.mu1 * js.xi1)
    return mp.m1 * mp.m3 / nu ** 2, mp.m2 * mp.m3 / nw ** 2


def outer_pericenter_event() -> EventSpec:
    """d(rho)/dt changes sign - to +, i.e. xi2 . dxi2 crosses zero upward."""
    return EventSpec(
        name="outer_pericenter",
        func=lambda t, y: y[3] * y[9] + y[4] * y[10] + y[5] * y[11],
        direction=+1,
    )


def kepler_state(rng, kind):
    """A two-body state with r0 in [0.1, 1000], kappa in [0.5, 2] and
    |xi . dxi| >= 0.14 r0 |dxi| (away from pericenter and apocenter), of one
    kind: "generic" (speed 0.2 to 1.6 of escape), "parabolic" (speed
    1 +- 1e-15 to 1e-4 of escape) or "radial" (the same speeds as generic,
    tangential share 1e-16 to 1e-6)."""
    kappa = rng.uniform(0.5, 2.0)
    r0 = 10.0 ** rng.uniform(-1.0, 3.0)
    if kind == "parabolic":
        f = 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15.0, -4.0)
    else:
        f = rng.uniform(0.2, 1.6)
    tang = 10.0 ** rng.uniform(-16.0, -6.0) if kind == "radial" else rng.uniform(0.05, 0.99)
    v = f * math.sqrt(2.0 * kappa / r0)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    w = np.cross(u, rng.normal(size=3))
    w /= np.linalg.norm(w)
    vr = rng.choice([-1.0, 1.0]) * v * math.sqrt(1.0 - tang * tang)
    return kepler.TwoBodyState(xi=r0 * u, dxi=vr * u + v * tang * w, kappa=kappa)


def mp_kepler_clock(s, r=None):
    """Signed time since pericenter, at 60 digits, on the Kepler orbit of the
    float state s (taken as exact): at s itself, or at radius r on the same
    branch (the sign of xi . dxi).  The oracle of kepler's float clock."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        xi = [mpmath.mpf(float(x)) for x in s.xi]
        dxi = [mpmath.mpf(float(x)) for x in s.dxi]
        kappa = mpmath.mpf(s.kappa)
        r0 = mpmath.sqrt(sum(x * x for x in xi))
        rv = sum(x * v for x, v in zip(xi, dxi))
        h = sum(v * v for v in dxi) / 2 - kappa / r0
        c2 = ((xi[1] * dxi[2] - xi[2] * dxi[1]) ** 2 + (xi[2] * dxi[0] - xi[0] * dxi[2]) ** 2
              + (xi[0] * dxi[1] - xi[1] * dxi[0]) ** 2)
        if r is not None:
            r = mpmath.mpf(r)
            rv = mpmath.sign(rv) * mpmath.sqrt(max(2 * r * (h * r + kappa) - c2, 0))
        else:
            r = r0
        if h == 0:
            q = c2 / (2 * kappa)
            d = max(r - q, 0)
            return mpmath.sign(rv) * mpmath.sqrt(2 / kappa) * (q + d / 3) * mpmath.sqrt(d)
        e = mpmath.sqrt(1 + 2 * h * c2 / kappa**2)
        if h < 0:
            a = -kappa / (2 * h)
            E = mpmath.atan2(rv / mpmath.sqrt(kappa * a), 1 - r / a)
            return mpmath.sqrt(a**3 / kappa) * (E - e * mpmath.sin(E))
        a = kappa / (2 * h)
        F = mpmath.asinh(rv / mpmath.sqrt(kappa * a) / e)
        return mpmath.sqrt(a**3 / kappa) * (e * mpmath.sinh(F) - F)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
