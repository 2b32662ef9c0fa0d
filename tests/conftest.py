import math

import numpy as np
import pytest

from lunarbound.bounds import compute_chain, i0
from lunarbound.core import JacobiState, MassParams
from lunarbound.harness import APPENDIX_H, APPENDIX_J, APPENDIX_MASSES


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


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
