"""Osculating orbits, the radial comparison pair, and the deviation report."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lunarbound import kepler as kp
from lunarbound.core import JacobiState, MassParams, energy_split
from lunarbound.harness import (
    APPENDIX_H,
    APPENDIX_J,
    APPENDIX_MASSES,
    ScenarioConfig,
    sample_initial_conditions,
)
from lunarbound.integrate import EventSpec, integrate
from lunarbound.osculate import (
    _osc_exit_time,
    certify_entry,
    eta_bound,
    osculating_orbit,
    sandwich_ode,
    sandwich_params,
    verify_deviation,
)
from lunarbound.core import moment_of_inertia

from conftest import kepler_state, mp_kepler_clock


@pytest.fixture(scope="module")
def sample_trajectories(appendix_chain):
    """One sampled strip orbit integrated both ways to the qualified horizon."""
    bs = appendix_chain
    cfg = ScenarioConfig(
        masses=APPENDIX_MASSES, H=APPENDIX_H, J=(0, 0, APPENDIX_J),
        count=1, seed=404, level=bs.R_bar,
        i_lo_factor=1.0, i_hi_factor=3.0,
    )
    state = sample_initial_conditions(cfg, bs)[0]
    mp = cfg.mp
    I_bar = bs.R_bar
    eps = bs.epsilon(I_bar)
    horizon = bs.B1 * eps ** (-1.5)
    stop = EventSpec(
        "stop", lambda t, s: moment_of_inertia(s, mp) - 0.9 * I_bar, -1, True
    )
    fwd = integrate(state, mp, (0.0, horizon), events=[stop])
    bwd = integrate(state, mp, (0.0, -horizon), events=[stop])
    return mp, bs, I_bar, state, fwd, bwd


class TestOsculatingOrbit:
    def test_constant_elements_without_coupling(self):
        mp = MassParams(*APPENDIX_MASSES)
        st = JacobiState(
            xi1=[0.3, 0, 0], dxi1=[0, math.sqrt(mp.mu / 0.3), 0],
            xi2=[9.0, 0, 0], dxi2=[-0.1, 0.2, 0.0],
        )
        traj = integrate(st, mp, (0.0, 40.0), kepler_only=True)
        el0, _ = osculating_orbit(traj, 0.0)
        for t in np.linspace(0.0, 40.0, 9):
            el, _ = osculating_orbit(traj, t)
            assert el.h == pytest.approx(el0.h, abs=1e-9)
            assert np.abs(np.asarray(el.c_vec) - np.asarray(el0.c_vec)).max() < 1e-9
            assert np.abs(np.asarray(el.e_vec) - np.asarray(el0.e_vec)).max() < 1e-9

    def test_energy_matches_split(self, sample_trajectories):
        mp, bs, I_bar, state, fwd, _ = sample_trajectories
        el, tb = osculating_orbit(fwd, 0.0)
        _, _, H2, _ = energy_split(state, mp)
        assert mp.alpha2 * el.h == pytest.approx(H2, rel=1e-12)

    def test_element_drift_rate_scale(self, sample_trajectories):
        # outer element drift per unit time is of the order of the coupling
        # acceleration bound A eps^4, far below order one
        mp, bs, I_bar, state, fwd, _ = sample_trajectories
        eps = bs.epsilon(I_bar)
        t1 = min(5.0, abs(fwd.t_end))
        el0, _ = osculating_orbit(fwd, 0.0)
        el1, _ = osculating_orbit(fwd, t1)
        drift_rate = abs(el1.h - el0.h) / t1
        assert drift_rate < bs.A * eps**3  # |dh/dt| <= |F| |v| ~ A eps^4 / eps


class TestSandwichOde:
    def test_zero_forcing_reproduces_osculating_radius(self, sample_trajectories):
        mp, bs, I_bar, state, fwd, _ = sample_trajectories
        el0, tb0 = osculating_orbit(fwd, 0.0)
        sp = sandwich_params(bs, I_bar, el0.c, mp.M)
        rho0 = state.rho
        drho0 = float(state.xi2 @ state.dxi2) / rho0
        # a = 0 makes the forcing a eps^4 exactly 0.0
        sw = sandwich_ode(rho0, drho0, dataclasses.replace(sp, a=0.0), mp.M, direction=+1)
        t_check = min(sw.t_valid, 20.0)
        for t in np.linspace(0.0, t_check, 9):
            rho_osc = kp.propagate(tb0, t).r
            assert sw.rho_minus(t) == pytest.approx(rho_osc, abs=2e-9)
            assert sw.rho_plus(t) == pytest.approx(rho_osc, abs=2e-9)

    def test_ordering_and_eta_bound(self, sample_trajectories):
        mp, bs, I_bar, state, fwd, _ = sample_trajectories
        el0, tb0 = osculating_orbit(fwd, 0.0)
        sp = sandwich_params(bs, I_bar, el0.c, mp.M)
        rho0 = state.rho
        drho0 = float(state.xi2 @ state.dxi2) / rho0
        sw = sandwich_ode(rho0, drho0, sp, mp.M, direction=+1)
        assert sw.t_valid > 0
        ts = np.linspace(0.0, min(sw.t_valid, abs(fwd.t_end)), 33)
        for t in ts:
            rm, rp = sw.rho_minus(t), sw.rho_plus(t)
            rho_t = fwd.state_at(t).rho
            rho_o = kp.propagate(tb0, t).r
            slack = 1e-10 * rho0
            assert rm <= rho_t + slack and rho_t <= rp + slack
            assert rm <= rho_o + slack and rho_o <= rp + slack
            assert rp - rm <= eta_bound(sp, t) + slack

    def test_monotonicity_floor_flagged(self, sample_trajectories):
        # the desk-scale forcing a*eps^4 is enormous, so the minorant hits
        # the floor well inside the horizon and the solution says so
        mp, bs, I_bar, state, fwd, _ = sample_trajectories
        el0, _ = osculating_orbit(fwd, 0.0)
        sp = sandwich_params(bs, I_bar, el0.c, mp.M)
        rho0 = state.rho
        drho0 = float(state.xi2 @ state.dxi2) / rho0
        sw = sandwich_ode(rho0, drho0, sp, mp.M, direction=+1)
        assert not sw.monotone_ok
        assert sw.t_valid < sp.time_horizon

    def test_start_below_rho_bar_has_empty_window(self, sample_trajectories):
        # omega is a Lipschitz constant only above rho_bar = 1/eps
        mp, bs, I_bar, state, fwd, _ = sample_trajectories
        el0, _ = osculating_orbit(fwd, 0.0)
        sp = sandwich_params(bs, I_bar, el0.c, mp.M)
        assert 1.5 * sp.c0**2 / mp.M < 0.9 / sp.epsilon
        for rho0 in (0.9 / sp.epsilon, 1.0 / sp.epsilon):
            sw = sandwich_ode(rho0, 0.0, sp, mp.M, direction=+1)
            assert sw.t_valid == 0.0 and not sw.monotone_ok

    def test_eta_bound_chain_below_A1_eps(self, appendix_chain):
        # (2 a eps^4/omega)(cosh(sqrt(omega) t) - 1) <= (2 a eps/k)(2 + e^x)
        # <= A1 eps at the horizon, for the admissible range of c0
        bs = appendix_chain
        mp = bs.mp
        for I_mult in (1.0, 2.0, 5.0):
            I_bar = bs.R_bar * I_mult
            for c0 in (0.0, 0.5 * bs.c_j2, bs.c_j2):
                sp = sandwich_params(bs, I_bar, c0, mp.M)
                t = sp.time_horizon
                x = math.sqrt(sp.omega) * t
                lhs = eta_bound(sp, t)
                mid = (2 * sp.a * sp.epsilon / sp.k) * (2.0 + math.exp(x))
                assert lhs <= mid * (1 + 1e-12)
                assert mid <= bs.A1 * sp.epsilon * (1 + 1e-12)



def solve_ivp_sandwich(rho0, drho0, sp, M, direction, forcing=None):
    """The comparison pair as scipy's solve_ivp(method="DOP853") integrates
    it, with the same terminal event at max(floor, rho_bar): {sign: OdeResult}."""
    f = sp.a * sp.epsilon**4 if forcing is None else forcing
    floor = max(1.5 * sp.c0**2 / M, 1.0 / sp.epsilon)

    def rhs(t, y, sgn):
        return [y[1], sp.c0**2 / y[0]**3 - M / y[0]**2 + sgn * f]

    def hit_floor(t, y, sgn):
        return y[0] - floor

    hit_floor.terminal = True
    hit_floor.direction = -1
    return {sgn: solve_ivp(rhs, (0.0, direction * sp.time_horizon), [rho0, drho0],
                           method="DOP853", rtol=1e-12, atol=1e-12, dense_output=True,
                           events=hit_floor, args=(sgn,))
            for sgn in (-1.0, 1.0)}


class TestSandwichAgainstSolveIvp:
    """sandwich_ode on the in-repo driver against solve_ivp, the reference it
    replaces: both run DOP853 at rtol = atol = 1e-12, so the solutions agree
    to a small multiple of that, and the floor event, polished by Brent on
    the step interpolant, to rounding."""

    RHO_REL = 10 * 1e-12
    EVENT_REL = 1e-12

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("forcing", [None, 0.0])
    def test_pair_and_floor_event_match(self, sample_trajectories, direction, forcing):
        mp, bs, I_bar, state, fwd, _ = sample_trajectories
        el0, _ = osculating_orbit(fwd, 0.0)
        sp = sandwich_params(bs, I_bar, el0.c, mp.M)
        rho0 = state.rho
        drho0 = float(state.xi2 @ state.dxi2) / rho0
        # the one override is forcing = 0.0, which a = 0 gives exactly
        run_sp = sp if forcing is None else dataclasses.replace(sp, a=0.0)
        sw = sandwich_ode(rho0, drho0, run_sp, mp.M, direction=direction)
        ref = solve_ivp_sandwich(rho0, drho0, sp, mp.M, direction, forcing)
        hits = [abs(float(r.t_events[0][0])) for r in ref.values() if r.t_events[0].size]
        assert all(r.status in (0, 1) for r in ref.values())
        assert sw.monotone_ok == (not hits)
        t_ref = min(hits + [sp.time_horizon])
        assert abs(sw.t_valid - t_ref) <= self.EVENT_REL * t_ref
        for t in np.linspace(0.0, direction * sw.t_valid, 101):
            for ours, want in ((sw.rho_minus(t), ref[-1.0].sol(t)[0]),
                               (sw.rho_plus(t), ref[1.0].sol(t)[0])):
                assert abs(ours - want) <= self.RHO_REL * abs(want)

    @pytest.mark.parametrize("direction", [1, -1])
    def test_step_size_failure_truncates_without_raising(self, sample_trajectories, direction):
        # c0 = 0 makes the pair a radial fall into rho = 0, where the step
        # size underflows before the event level max(floor, 1/eps) (now
        # 1e-30) is crossed
        mp, bs, I_bar, _, fwd, _ = sample_trajectories
        el0, _ = osculating_orbit(fwd, 0.0)
        sp = dataclasses.replace(sandwich_params(bs, I_bar, el0.c, mp.M), c0=0.0, epsilon=1e30)
        sw = sandwich_ode(1.0, 0.0, dataclasses.replace(sp, a=0.0), mp.M, direction=direction)
        ref = solve_ivp_sandwich(1.0, 0.0, sp, mp.M, direction, forcing=0.0)
        assert all(r.status == -1 and not r.t_events[0].size for r in ref.values())
        assert not sw.monotone_ok
        t_fail = abs(float(ref[1.0].t[-1]))
        assert 0.0 < sw.t_valid < sp.time_horizon
        assert sw.t_valid == pytest.approx(t_fail, rel=1e-12)
        assert sw.rho_minus(direction * sw.t_valid) < 1e-6


def kepler_pair(mp, xi2, dxi2, t1, kepler_only=True):
    """A state with a circular inner binary, integrated to +t1 and -t1."""
    st = JacobiState(xi1=[0.3, 0, 0], dxi1=[0, math.sqrt(mp.mu / 0.3), 0], xi2=xi2, dxi2=dxi2)
    return (integrate(st, mp, (0.0, t1), kepler_only=kepler_only),
            integrate(st, mp, (0.0, -t1), kepler_only=kepler_only))


REPORT_KEYS = {
    "I_bar", "epsilon", "bound", "max_deviation", "violations", "first_violation_t",
    "true_exit_t", "osc_exit_t", "I_at_osc_exit", "strip_bound", "strip_ceiling",
    "sandwich_t_valid", "sandwich_ordering_ok", "eta_bound_ok", "ct_ok", "ok",
}


class TestVerifyDeviation:
    def test_zero_deviation_without_coupling(self, appendix_chain):
        bs = appendix_chain
        fwd, bwd = kepler_pair(bs.mp, [10.0, 0, 0], [-0.08, 0.22, 0.0], 30.0)
        rep = verify_deviation(fwd, bwd, bs, bs.R_bar, n_samples=100)
        assert rep["violations"] == 0
        assert rep["max_deviation"] < 1e-8
        # without coupling the outer angular momentum is conserved
        assert rep["ct_drift"] < 1e-12

    def test_empty_window_outside_region(self, appendix_chain):
        # I(0) far below R_bar: both windows are empty, so nothing is
        # sampled and the drift check does not apply
        bs = appendix_chain
        fwd, bwd = kepler_pair(bs.mp, [3.0, 0, 0], [0.0, 0.4, 0.0], 5.0, kepler_only=False)
        rep = verify_deviation(fwd, bwd, bs, bs.R_bar)
        assert "ct_drift" not in rep
        assert rep["violations"] == 0 and rep["max_deviation"] == 0.0
        assert rep["true_exit_t"] == 0.0

    def test_trajectory_without_dense_output_named(self, appendix_chain):
        bs = appendix_chain
        fwd, bwd = kepler_pair(bs.mp, [10.0, 0, 0], [-0.08, 0.22, 0.0], 5.0)
        for pair in ((dataclasses.replace(fwd, dense=None), bwd),
                     (fwd, dataclasses.replace(bwd, dense=None))):
            with pytest.raises(ValueError, match="without dense output"):
                verify_deviation(*pair, bs, bs.R_bar, n_samples=16)

    def test_report_keys(self, appendix_chain):
        bs = appendix_chain
        pair = kepler_pair(bs.mp, [10.0, 0, 0], [-0.08, 0.22, 0.0], 30.0)
        assert set(verify_deviation(*pair, bs, bs.R_bar, n_samples=16)) \
            == REPORT_KEYS | {"ct_drift", "ct_bound"}
        below = kepler_pair(bs.mp, [3.0, 0, 0], [0.0, 0.4, 0.0], 5.0)
        assert set(verify_deviation(*below, bs, bs.R_bar)) == REPORT_KEYS

    def test_first_violation_tie_takes_negative_t(self, appendix_chain):
        # a circular outer orbit: both windows end at |t| = 30, so the two
        # sides sample the same |t|; with a bound of 1e-300 every rounding
        # deviation violates, and the tie at the least |t| goes to -t
        bs = appendix_chain
        mp = bs.mp
        fwd, bwd = kepler_pair(mp, [10.0, 0, 0], [0.0, math.sqrt(mp.M / 10.0), 0.0], 30.0)
        t1 = float(np.linspace(0.0, 30.0, 50)[1])
        _, tb0 = osculating_orbit(fwd, 0.0)
        for traj, t in ((fwd, t1), (bwd, -t1)):
            assert traj.state_at(t).rho != kp.propagate(tb0, t).r
        tiny = dataclasses.replace(bs, A1=1e-300 / bs.epsilon(bs.R_bar))
        rep = verify_deviation(fwd, bwd, tiny, bs.R_bar, n_samples=100)
        assert rep["violations"] > 0
        assert rep["first_violation_t"] == -t1

    def test_sampled_orbit_report(self, sample_trajectories):
        mp, bs, I_bar, state, fwd, bwd = sample_trajectories
        rep = verify_deviation(fwd, bwd, bs, I_bar)
        assert rep["ok"]
        assert rep["violations"] == 0
        assert rep["max_deviation"] < rep["bound"]
        assert rep["ct_drift"] < rep["ct_bound"]
        assert rep["osc_exit_t"] is not None
        # strip-exit measurement: true inertia at the osculating exit stays
        # within I_bar + 2 alpha2 A1 + lambda
        if rep["I_at_osc_exit"] is not None:
            assert rep["I_at_osc_exit"] <= rep["strip_bound"]
            assert rep["I_at_osc_exit"] == pytest.approx(I_bar, rel=0.05)

    def test_drift_slope_in_time(self, sample_trajectories):
        # |c_t - c_0| grows about linearly at small |t| (log-log slope ~ 1)
        mp, bs, I_bar, state, fwd, _ = sample_trajectories
        el0, tb0 = osculating_orbit(fwd, 0.0)
        c0 = el0.c
        ts = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        ts = ts[ts < abs(fwd.t_end)]
        drifts = []
        for t in ts:
            s = fwd.state_at(t)
            drifts.append(abs(float(np.linalg.norm(np.cross(s.xi2, s.dxi2))) - c0))
        drifts = np.array(drifts)
        if np.all(drifts > 0):
            slope = np.polyfit(np.log(ts), np.log(drifts), 1)[0]
            assert 0.5 < slope < 2.5


class TestCtDrift:
    """The report's c^2 drift over the window against b eps^(3/2)."""

    def test_zero_without_coupling(self, appendix_chain):
        # outbound: stays above the reference level over the forward span
        bs = appendix_chain
        fwd, bwd = kepler_pair(bs.mp, [10.0, 0, 0], [0.05, 0.25, 0.0], 20.0)
        rep = verify_deviation(fwd, bwd, bs, bs.R_bar)
        assert "ct_drift" in rep and rep["ct_ok"]
        assert rep["ct_drift"] < 1e-12

    def test_measured_below_bound(self, sample_trajectories):
        mp, bs, I_bar, state, fwd, bwd = sample_trajectories
        rep = verify_deviation(fwd, bwd, bs, I_bar)
        assert rep["ct_ok"]
        assert 0.0 < rep["ct_drift"] < rep["ct_bound"]
        assert rep["ct_bound"] == pytest.approx(bs.b * bs.epsilon(I_bar) ** 1.5)


class TestCertifyEntry:
    def test_declines_without_finite_constants(self, appendix_i0):
        I0_val, bs = appendix_i0
        cfg = ScenarioConfig(
            masses=APPENDIX_MASSES, H=APPENDIX_H, J=(0, 0, APPENDIX_J),
            count=1, seed=808080, level=I0_val,
        )
        state = sample_initial_conditions(cfg, bs)[0]
        mp = cfg.mp
        # inbound first: the osculating orbit falls through rho_bar forward
        sign = +1.0 if float(state.xi2 @ state.dxi2) <= 0.0 else -1.0
        budget = 4.0 * bs.B1 * bs.rho_bar(I0_val) ** 1.5
        t = certify_entry(state, mp, bs, I0_val, sign, budget)
        assert t is not None and t * sign > 0.0
        assert certify_entry(state, mp, bs, I0_val, -sign, budget) is None
        assert certify_entry(state, mp, bs, I0_val, sign, 0.5 * abs(t)) is None
        assert certify_entry(state, mp, bs, math.inf, sign, budget) is None
        for field in ("A1", "B1"):
            broken = dataclasses.replace(bs, **{field: math.inf})
            assert certify_entry(state, mp, broken, I0_val, sign, budget) is None
        # constants of another splitting say nothing about this state
        other = dataclasses.replace(bs, masses=(0.2, 0.3, 0.5))
        assert certify_entry(state, mp, other, I0_val, sign, budget) is None


class TestOscExitTime:
    """The osculating exit time read off the Kepler clock, on 1,200 seeded
    states: generic, near-parabolic and near-radial."""

    def test_closed_form_against_propagation_and_60_digits(self):
        rng = np.random.default_rng(3)
        seen = {"zero": 0, "none": 0, "time": 0}
        for kind in ("generic", "parabolic", "radial") * 400:
            s = kepler_state(rng, kind)
            rho_bar = s.r * rng.uniform(0.02, 1.3)
            t = _osc_exit_time(s, rho_bar, math.inf)
            q = kp.elements_from_state(s).q_peri
            if s.r <= rho_bar:
                assert t == 0.0
                seen["zero"] += 1
                continue
            if q >= rho_bar:
                assert t is None
                seen["none"] += 1
                continue
            seen["time"] += 1
            # toward pericenter: forward when inbound, backward when outbound
            assert t * float(np.asarray(s.xi) @ np.asarray(s.dxi)) < 0.0
            assert _osc_exit_time(s, rho_bar, abs(t)) == t
            assert _osc_exit_time(s, rho_bar, 0.5 * abs(t)) is None
            m0, m_bar = mp_kepler_clock(s), mp_kepler_clock(s, rho_bar)
            assert abs(t - float(m_bar - m0)) <= 1e-13 * max(abs(float(m0)), abs(float(m_bar)))
            if q < 0.9 * rho_bar:
                assert abs(kp.propagate(s, t).r - rho_bar) <= 1e-9 * rho_bar
        assert min(seen.values()) >= 100
