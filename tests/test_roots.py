"""The in-repo Brent method against scipy.optimize.brentq, its oracle."""

import importlib
import math
import random
import struct
import sys

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from lunarbound.bounds import compute_chain
from lunarbound.core import JacobiState, MassParams, moment_of_inertia
from lunarbound.harness import (
    APPENDIX_H, APPENDIX_J, APPENDIX_MASSES, ScenarioConfig,
    sample_initial_conditions,
)
from lunarbound.integrate import EventSpec, _KSSegment, integrate
from lunarbound.osculate import certify_entry, verify_deviation
from lunarbound.roots import brentq

from conftest import outer_pericenter_event


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def outcome(solver, f, a, b, **kw):
    """The root's bits, or the class of the exception raised."""
    try:
        return bits(solver(f, a, b, **kw))
    except (ValueError, RuntimeError) as e:
        return type(e)


class TestAgainstScipy:
    FUNCS = [
        lambda c: (lambda x: x**3 - c),
        lambda c: (lambda x: math.sin(x) - 0.1 * c),
        lambda c: (lambda x: math.expm1(x) - c),
        lambda c: (lambda x: math.atan(1e6 * (x - c))),
        # values whose products underflow, and whose differences vanish
        lambda c: (lambda x: (x - c) * 1e-170),
        lambda c: (lambda x: (x - c) ** 5 * 1e-200),
        lambda c: (lambda x: x - c if x < c else 1e300 * (x - c)),
    ]

    def test_random_brackets_bitwise(self):
        rng = random.Random(7)
        for _ in range(3000):
            c = rng.uniform(-1.0, 1.0)
            f = rng.choice(self.FUNCS)(c)
            a, b = rng.uniform(-3.0, c), rng.uniform(c, 3.0)
            if rng.random() < 0.5:
                a, b = b, a
            kw = dict(xtol=rng.choice([2e-12, 1e-13, 1e-15, 1e-300, 1e-6]),
                      rtol=rng.choice([4 * sys.float_info.epsilon, 1e-10]),
                      maxiter=rng.choice([3, 5, 100, 200]))
            assert outcome(brentq, f, a, b, **kw) == outcome(scipy_brentq, f, a, b, **kw)

    def test_same_errors_as_scipy(self):
        cases = [
            ((lambda x: x * x + 1.0, -1.0, 2.0, {}), ValueError),        # same sign
            ((lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, {}), ValueError),
            ((lambda x: math.atan(1e6 * (x - 0.3)), 0.0, 1.0, {"maxiter": 2}), RuntimeError),
            ((lambda x: x - 0.3, 0.0, 1.0, {"xtol": 0.0}), ValueError),
            ((lambda x: x - 0.3, 0.0, 1.0, {"rtol": 1e-17}), ValueError),
        ]
        for (f, a, b, kw), exc in cases:
            with pytest.raises(exc):
                brentq(f, a, b, **kw)
            with pytest.raises(exc):
                scipy_brentq(f, a, b, **kw)
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 2.0)
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: math.nan, 0.0, 1.0)

    def test_endpoint_roots_returned_as_given(self):
        assert brentq(lambda x: x, 0.0, 1.0) == 0.0
        assert brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0


# every brentq call site of the package, by the function that holds it
SITES = {
    "lunarbound.bounds": {"_euler_quintic_root", "region_constants"},
    "lunarbound.integrate": {"_locate_events", "_s_of_t"},
    "lunarbound.osculate": {"verify_deviation"},
}


@pytest.fixture
def recorded(monkeypatch):
    """Route each module's brentq through a check against scipy's on the
    same call; returns the set of call sites reached."""
    seen = set()

    def install(module_name):
        def checked(f, a, b, **kw):
            seen.add(sys._getframe(1).f_code.co_name)
            ours = outcome(brentq, f, a, b, **kw)
            assert ours == outcome(scipy_brentq, f, a, b, **kw), (a, b, kw)
            return struct.unpack("<d", ours)[0]

        monkeypatch.setattr(importlib.import_module(module_name), "brentq", checked)

    for name in SITES:
        install(name)
    return seen


def test_recorded_calls_at_every_site_bitwise(recorded, appendix_chain):
    # bounds: the Euler quintic and the strip budget
    compute_chain(MassParams(0.7, 1.3, 1.0), -0.5, 0.2)

    # integrate: event polishing
    mp = MassParams(1 / 3, 1 / 3, 1 / 3)
    st = JacobiState(xi1=[0.3, 0, 0], dxi1=[0, math.sqrt(mp.mu / 0.3), 0],
                     xi2=[9.0, 0, 0], dxi2=[-0.2, 0.15, 0])
    traj = integrate(st, mp, (0.0, 40.0), events=[outer_pericenter_event()])
    assert traj.events

    # integrate: the KS radial minimum and the time inversion of a KS segment
    col = JacobiState(xi1=[1.0, 0, 0], dxi1=[0, 0, 0], xi2=[50.0, 0, 0], dxi2=[0, 0.05, 0])
    traj = integrate(col, mp, (0.0, 3.0), regularize=True)
    assert any(e.kind == "collision_regularized" for e in traj.events)
    ks = [seg for seg in traj.dense._ordered if isinstance(seg, _KSSegment)]
    assert ks
    for seg in ks:
        traj.state_at(0.5 * (seg.t_lo + seg.t_hi))

    # osculate: the exit root of the qualified window; the sandwich pair's
    # floor event (on the step loop's _locate_events)
    bs = appendix_chain
    cfg = ScenarioConfig(masses=APPENDIX_MASSES, H=APPENDIX_H, J=(0, 0, APPENDIX_J),
                         count=1, seed=404, level=bs.R_bar,
                         i_lo_factor=1.0, i_hi_factor=3.0)
    state = sample_initial_conditions(cfg, bs)[0]
    mp = cfg.mp
    horizon = bs.B1 * bs.epsilon(bs.R_bar) ** (-1.5)
    stop = EventSpec("stop", lambda t, s: moment_of_inertia(s, mp) - 0.9 * bs.R_bar, -1, True)
    fwd = integrate(state, mp, (0.0, horizon), events=[stop])
    bwd = integrate(state, mp, (0.0, -horizon), events=[stop])
    verify_deviation(fwd, bwd, bs, bs.R_bar, n_samples=16)
    for sign in (1.0, -1.0):
        certify_entry(state, mp, bs, 3.0 * bs.R_bar, sign, 1e6)

    assert recorded >= set().union(*SITES.values())
