"""Adaptive integration, event detection, and regularized collision passage."""

import importlib
import math

import numpy as np
import pytest
from scipy.integrate import DOP853 as ScipyDOP853
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.integrate._ivp.rk import Dop853DenseOutput, rk_step

from lunarbound import kepler as kp
from lunarbound.core import (
    JacobiState, MassParams, energy_split, flat_inertia, make_rhs,
    moment_of_inertia,
)
from lunarbound.integrate import (
    DOP853,
    EventSpec,
    KS_SWITCH_FRACTION,
    _LazyDop853,
    _attempt_for,
    IntegrationSingularityError,
    integrate,
)

from conftest import coupling_term_sizes, outer_pericenter_event
from reference import perturbation_gradients


def hierarchical_state(a1=0.3, rho=9.0, vr=-0.2, vt=0.15):
    mp = MassParams(1 / 3, 1 / 3, 1 / 3)
    st = JacobiState(
        xi1=[a1, 0, 0],
        dxi1=[0, math.sqrt(mp.mu / a1), 0],
        xi2=[rho, 0, 0],
        dxi2=[vr, vt, 0],
    )
    return mp, st


class TestIntegrate:
    def test_kepler_only_matches_exact_flow(self):
        mp, st = hierarchical_state()
        traj = integrate(st, mp, (0.0, 30.0), kepler_only=True)
        inner = kp.TwoBodyState(xi=st.xi1, dxi=st.dxi1, kappa=mp.mu)
        outer = kp.TwoBodyState(xi=st.xi2, dxi=st.dxi2, kappa=mp.M)
        for t in np.linspace(0.0, 30.0, 13):
            s = traj.state_at(t)
            assert np.abs(s.xi1 - kp.propagate(inner, t).xi).max() < 1e-9
            assert np.abs(s.xi2 - kp.propagate(outer, t).xi).max() < 1e-9

    def test_conservation(self):
        mp, st = hierarchical_state()
        traj = integrate(st, mp, (0.0, 100.0))
        assert np.abs(traj.h_resid).max() < 1e-9
        assert np.abs(traj.j_resid).max() < 1e-9

    def test_time_reversal(self):
        mp, st = hierarchical_state()
        fwd = integrate(st, mp, (0.0, 20.0))
        back = integrate(fwd.state_at(20.0), mp, (0.0, -20.0))
        err = np.abs(back.state_at(-20.0).as_vector() - st.as_vector()).max()
        assert err < 1e-8

    def test_backward_span_first_class(self):
        mp, st = hierarchical_state()
        traj = integrate(st, mp, (0.0, -15.0))
        assert traj.t[0] == 0.0 and traj.t[-1] == -15.0
        assert np.all(np.diff(traj.t) < 0)

    def test_step_budget_flags_incomplete(self):
        mp, st = hierarchical_state()
        traj = integrate(st, mp, (0.0, 1e6), max_steps=50)
        assert not traj.complete
        assert traj.status == "step_budget_exhausted"
        assert traj.n_steps == 50

    def test_singularity_error_carries_state(self):
        # exact binary collision without regularization: steps underflow
        mp, st = two_body_collision_setup()
        with pytest.raises(IntegrationSingularityError) as exc:
            integrate(st, mp, (0.0, 2.5))
        assert exc.value.t == pytest.approx(math.pi / math.sqrt(8.0), abs=1e-6)
        assert exc.value.state.r < 1e-6
        assert exc.value.n_steps > 0

    def test_dense_output_continuity(self):
        mp, st = hierarchical_state()
        traj = integrate(st, mp, (0.0, 10.0))
        for i in (1, len(traj.t) // 2, len(traj.t) - 2):
            t = float(traj.t[i])
            left = traj.dense(np.nextafter(t, -np.inf))
            right = traj.dense(np.nextafter(t, np.inf))
            assert max(abs(a - b) for a, b in zip(left, right)) < 1e-9


def i_crossings(st, mp, span, level, **kw):
    """The crossings of I(t) = level that the step loop finds: entries
    (direction -1) and exits (+1), each tagged with its direction."""
    inertia = flat_inertia(mp)
    specs = [EventSpec("i_crossing", lambda t, y: inertia(y) - level, d,
                       payload={"level": level, "direction": d}) for d in (-1, +1)]
    return integrate(st, mp, span, events=specs, **kw).events


class TestEvents:
    def test_i_crossing_detection(self):
        mp, st = hierarchical_state(vr=-0.25)
        I0 = moment_of_inertia(st, mp)
        level = 0.7 * I0
        events = i_crossings(st, mp, (0.0, 60.0), level)
        assert events, "expected at least one crossing"
        for ev in events:
            assert abs(moment_of_inertia(ev.state, mp) - level) <= 1e-10 * level

    def test_i_crossing_none_below(self):
        mp, st = hierarchical_state()
        I0 = moment_of_inertia(st, mp)
        assert i_crossings(st, mp, (0.0, 5.0), 10.0 * I0 + 100.0) == []
        assert moment_of_inertia(st, mp) < 10.0 * I0 + 100.0  # already inside

    def test_i_crossing_alternating_directions(self):
        # oscillating I: eccentric outer orbit crossing a level repeatedly
        mp = MassParams(1 / 3, 1 / 3, 1 / 3)
        a2 = 8.0
        e2 = 0.3
        r_apo = a2 * (1 + e2)
        v_apo = math.sqrt(mp.M * (2 / r_apo - 1 / a2))
        st = JacobiState(
            xi1=[0.3, 0, 0], dxi1=[0, math.sqrt(mp.mu / 0.3), 0],
            xi2=[r_apo, 0, 0], dxi2=[0, v_apo, 0],
        )
        T2 = 2 * math.pi * math.sqrt(a2**3 / mp.M)
        level = mp.alpha2 * a2**2  # between peri and apo inertia levels
        events = i_crossings(st, mp, (0.0, 2.2 * T2), level)
        assert len(events) >= 4 and len(events) % 2 == 0
        dirs = [ev.payload["direction"] for ev in events]
        assert all(a != b for a, b in zip(dirs, dirs[1:]))

    def test_event_times_against_kepler_oracle(self):
        # coupling off: I(t) is exactly computable from two Kepler flows, so
        # every crossing time has an independent oracle
        from scipy.optimize import brentq as _brentq

        mp = MassParams(1 / 3, 1 / 3, 1 / 3)
        a2, e2 = 8.0, 0.3
        r_apo = a2 * (1 + e2)
        v_apo = math.sqrt(mp.M * (2 / r_apo - 1 / a2))
        st = JacobiState(
            xi1=[0.3, 0, 0], dxi1=[0, math.sqrt(mp.mu / 0.3), 0],
            xi2=[r_apo, 0, 0], dxi2=[0, v_apo, 0],
        )
        T2 = 2 * math.pi * math.sqrt(a2**3 / mp.M)
        level = mp.alpha1 * 0.3**2 + mp.alpha2 * a2**2
        found = i_crossings(st, mp, (0.0, 1.5 * T2), level, kepler_only=True)

        outer = kp.TwoBodyState(xi=st.xi2, dxi=st.dxi2, kappa=mp.M)
        rho_target = a2  # inner radius is constant (circular binary)

        def gap(t):
            return kp.propagate(outer, t).r - rho_target

        expected = []
        grid = np.linspace(0.0, 1.5 * T2, 400)
        vals = [gap(t) for t in grid]
        for i in range(len(grid) - 1):
            if vals[i] * vals[i + 1] < 0:
                expected.append(_brentq(gap, grid[i], grid[i + 1], xtol=1e-13))
        assert len(found) == len(expected)
        for ev, t_exp in zip(found, expected):
            assert ev.t == pytest.approx(t_exp, abs=1e-10 * max(1.0, t_exp))

    def test_terminal_event_stops(self):
        mp, st = hierarchical_state(vr=-0.3)
        level = 0.8 * moment_of_inertia(st, mp)
        ev = EventSpec(
            name="entry",
            func=lambda t, s: moment_of_inertia(s, mp) - level,
            direction=-1,
            terminal=True,
        )
        traj = integrate(st, mp, (0.0, 200.0), events=[ev])
        assert traj.status == "event"
        assert traj.events and traj.events[-1].kind == "entry"
        assert abs(moment_of_inertia(traj.events[-1].state, mp) - level) < 1e-9 * level
        assert traj.events[-1].y == traj.y[-1].tolist()

    def test_outer_pericenter_event(self):
        mp, st = hierarchical_state(vr=-0.2, vt=0.12)
        traj = integrate(st, mp, (0.0, 300.0), events=[outer_pericenter_event()])
        peri = [e for e in traj.events if e.kind == "outer_pericenter"]
        assert peri
        for ev in peri:
            assert abs(float(ev.state.xi2 @ ev.state.dxi2)) < 1e-8


def two_body_collision_setup(r0=1.0):
    """Binary falling from rest with a negligible, distant third mass."""
    mp = MassParams(0.5, 0.5, 1e-8)
    st = JacobiState(xi1=[r0, 0, 0], dxi1=[0, 0, 0], xi2=[0, 0, 1e6], dxi2=[0, 0, 0])
    return mp, st


class TestRegularized:
    def test_collision_bounce_conserves_inner_energy(self):
        mp, st = two_body_collision_setup()
        t_col = math.pi / math.sqrt(8.0)
        # end between the bounce and the next apocenter: outbound there
        traj = integrate(st, mp, (0.0, 1.6 * t_col), kepler_only=True, regularize=True)
        cols = [e for e in traj.events if e.kind == "collision_regularized"]
        assert len(cols) == 1
        assert cols[0].t == pytest.approx(t_col, abs=1e-9)
        _, H1_0, _, _ = energy_split(st, mp)
        end = JacobiState.from_vector(traj.y[-1])
        _, H1_end, _, _ = energy_split(end, mp)
        assert abs(H1_end - H1_0) < 1e-9 * abs(H1_0)
        # emerges outbound along the fall line with reflected velocity
        assert float(end.xi1 @ end.dxi1) > 0

    def test_multiple_passages(self):
        mp, st = two_body_collision_setup()
        t_col = math.pi / math.sqrt(8.0)
        traj = integrate(st, mp, (0.0, 4 * t_col), kepler_only=True, regularize=True)
        cols = [e for e in traj.events if e.kind == "collision_regularized"]
        assert len(cols) == 2
        assert cols[1].t == pytest.approx(3 * t_col, abs=1e-8)

    @staticmethod
    def r_switch(mp, st):
        return KS_SWITCH_FRACTION * mp.beta1 / abs(energy_split(st, mp)[0])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_no_collision_logged_past_the_run_end(self, sign):
        # the bound, then a terminal event, inside the KS stint just before
        # the collision: the step that passes them also brackets the
        # radial minimum, which lies past the run's end
        mp, st = two_body_collision_setup()
        t_col = math.pi / math.sqrt(8.0)
        traj = integrate(st, mp, (0.0, sign * (t_col - 1e-5)), kepler_only=True, regularize=True)
        assert traj.status == "completed" and traj.events == []
        assert traj.r_nodes()[-1] < self.r_switch(mp, st)
        stop = EventSpec("stop", lambda t, y: t - sign * (t_col - 1e-4), sign, True)
        traj = integrate(st, mp, (0.0, sign * 2 * t_col), events=[stop],
                         kepler_only=True, regularize=True)
        assert traj.status == "event"
        assert [e.kind for e in traj.events] == ["stop"]
        assert traj.r_nodes()[-1] < self.r_switch(mp, st)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_run_end_inside_a_ks_stint_lands_on_t1(self, sign):
        mp, st = two_body_collision_setup()
        t1 = sign * (math.pi / math.sqrt(8.0) + 1e-4)
        traj = integrate(st, mp, (0.0, t1), kepler_only=True, regularize=True)
        assert traj.status == "completed" and traj.t_end == t1
        assert [e.kind for e in traj.events] == ["collision_regularized"]
        assert traj.r_nodes()[-1] < self.r_switch(mp, st)

    def test_no_activation_matches_plain_integrate_bitwise(self):
        mp, st = hierarchical_state()  # binary never below the switch radius
        ev = outer_pericenter_event()
        a = integrate(st, mp, (0.0, 40.0), events=[ev])
        b = integrate(st, mp, (0.0, 40.0), events=[ev], regularize=True)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.y, b.y)
        assert [e.t for e in a.events] == [e.t for e in b.events]
        assert [e.kind for e in a.events] == [e.kind for e in b.events]

    def test_near_collision_flyby_beats_unregularized(self):
        # pericenter at 1e-6: the regularized path keeps its accuracy budget
        mp = MassParams(0.5, 0.5, 1e-6)
        a1, q = 0.2, 1e-6
        e1 = 1 - q / a1
        r_apo = a1 * (1 + e1)
        v_apo = math.sqrt(mp.mu * (2 / r_apo - 1 / a1))
        st = JacobiState(
            xi1=[r_apo, 0, 0], dxi1=[0, v_apo, 0], xi2=[0, 0, 50.0], dxi2=[0, 0, 0]
        )
        T1 = 2 * math.pi * math.sqrt(a1**3 / mp.mu)
        span = (0.0, 0.6 * T1)  # through one pericenter passage
        reg = integrate(st, mp, span, max_steps=20000, regularize=True)
        assert reg.complete
        drift_reg = np.abs(reg.h_resid).max()
        assert drift_reg < 1e-8
        unreg = integrate(st, mp, span, max_steps=20000)
        drift_unreg = np.abs(unreg.h_resid).max() if unreg.complete else np.inf
        assert (not unreg.complete) or unreg.n_steps > 2 * reg.n_steps or drift_unreg > drift_reg

    def test_event_functions_see_only_lists(self):
        # step ends, the Brent polish on the dense output, and a KS stint
        # (r_switch = 0.01 here): every call gets the flat state as a list
        mp, st = two_body_collision_setup()
        t_col = math.pi / math.sqrt(8.0)
        seen = []

        def typed(g):
            def func(t, y):
                seen.append(type(y))
                return g(t, y)
            return func

        specs = [EventSpec("half", typed(lambda t, y: y[0] - 0.5), -1),
                 EventSpec("in_stint", typed(lambda t, y: t - 1.000001 * t_col), 1)]
        traj = integrate(st, mp, (0.0, 1.5), kepler_only=True, regularize=True, events=specs)
        by_kind = {e.kind: e for e in traj.events}
        assert [e.kind for e in traj.events] == ["half", "collision_regularized", "in_stint"]
        assert by_kind["in_stint"].state.r < 0.01
        assert len(seen) > 2 * (traj.n_steps + 1)  # the polish calls too
        assert set(seen) == {list}
        assert all(type(e.y) is list for e in traj.events)
        assert type(traj.dense(by_kind["in_stint"].t)) is list

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_events_of_one_step_in_travel_order(self, sign):
        # an event just past the collision falls in the KS step of the
        # collision itself; the two are listed as the run meets them
        mp, st = two_body_collision_setup()
        t_col = sign * math.pi / math.sqrt(8.0)
        spec = EventSpec("in_stint", lambda t, y: sign * (t - 1.000001 * t_col), 1)
        traj = integrate(st, mp, (0.0, 1.5 * t_col), kepler_only=True, regularize=True,
                         events=[spec])
        col, late = traj.events
        assert (col.kind, late.kind) == ("collision_regularized", "in_stint")
        assert sign * (late.t - col.t) > 0.0
        ts = sign * traj.t
        assert np.searchsorted(ts, sign * col.t) == np.searchsorted(ts, sign * late.t)

    def test_backward_through_collision(self):
        mp, st = two_body_collision_setup()
        t_col = math.pi / math.sqrt(8.0)
        traj = integrate(st, mp, (0.0, -2.5), kepler_only=True, regularize=True)
        cols = [e for e in traj.events if e.kind == "collision_regularized"]
        assert len(cols) == 1
        assert cols[0].t == pytest.approx(-t_col, abs=1e-9)

    def test_outer_collision_not_regularized(self):
        # exact radial outer fall (coupling off so the collision is exact):
        # rho -> 0 has no regularized path and must error out
        mp = MassParams(1.0, 1.0, 1.0)
        st = JacobiState(xi1=[0.5, 0, 0], dxi1=[0, 2.3, 0], xi2=[0, 1.0, 0], dxi2=[0, -0.5, 0])
        with pytest.raises(IntegrationSingularityError):
            integrate(st, mp, (0.0, 10.0), kepler_only=True, regularize=True)


class TestLeanStepLoop:
    """Events are tested at step ends; interpolants and residuals are built
    only where they are read."""

    def test_dense_flag_does_not_change_the_run(self):
        mp, st = hierarchical_state(vr=-0.3)
        level = 0.8 * moment_of_inertia(st, mp)
        ev = EventSpec("entry", lambda t, s: moment_of_inertia(s, mp) - level, -1, True)
        lean = integrate(st, mp, (0.0, 200.0), events=[ev], dense=False)
        full = integrate(st, mp, (0.0, 200.0), events=[ev], dense=True)
        assert lean.status == full.status == "event"
        assert lean.dense is None
        assert np.array_equal(lean.t, full.t)
        assert np.array_equal(lean.y, full.y)
        assert lean.n_steps == full.n_steps
        assert [e.t for e in lean.events] == [e.t for e in full.events]

    def test_step_end_root_when_interpolant_misses_by_rounding(self):
        # the step-end value sits on the level, but the interpolant rounds
        # both ends of the step to the same side: the step end is the root
        from lunarbound.integrate import _locate_events

        mp, st = hierarchical_state()
        level = moment_of_inertia(st, mp)
        spec = EventSpec("entry", lambda t, s: moment_of_inertia(s, mp) - level, -1, True)

        class RoundedSegment:
            def point(self, t):
                return t, st.as_vector() * (1.0 + 1e-15)

        found = []
        y_end = st.as_vector().tolist()
        stop = _locate_events([spec], [0], 0.0, 2.5, RoundedSegment(), 2.5, y_end, found)
        assert found == [stop]
        assert stop.t == 2.5 and stop.y is y_end

    def test_event_free_run_builds_no_interpolant(self, monkeypatch):
        module = importlib.import_module("lunarbound.integrate")
        calls = [0]

        def counting_make_rhs(mp, kepler_only=False):
            rhs = make_rhs(mp, kepler_only=kepler_only)

            def wrapped(t, y):
                calls[0] += 1
                return rhs(t, y)

            return wrapped

        monkeypatch.setattr(module, "make_rhs", counting_make_rhs)
        mp, st = hierarchical_state()
        traj = integrate(st, mp, (0.0, 100.0), dense=False)
        assert traj.complete and traj.n_steps > 50
        # 12 stages per accepted step plus rejections; a dense interpolant
        # would add 3 more per step
        assert calls[0] / traj.n_steps < 14.0

    def test_dense_run_builds_interpolants_only_where_read(self, monkeypatch):
        module = importlib.import_module("lunarbound.integrate")
        calls = [0]

        def counting_make_rhs(mp, kepler_only=False):
            rhs = make_rhs(mp, kepler_only=kepler_only)

            def wrapped(t, y):
                calls[0] += 1
                return rhs(t, y)

            return wrapped

        monkeypatch.setattr(module, "make_rhs", counting_make_rhs)
        mp, st = hierarchical_state(vr=-0.2, vt=0.12)
        plain = integrate(st, mp, (0.0, 300.0), dense=False)
        stepping = calls[0]
        calls[0] = 0
        full = integrate(st, mp, (0.0, 300.0), events=[outer_pericenter_event()], dense=True)
        assert full.n_steps == plain.n_steps and full.events
        reads = [3.0, 77.7, 150.0, 150.0, 299.0]  # one step read twice
        for t in reads:
            full.dense(t)
        # each interpolant costs 3 extra RHS calls, once
        builds = (calls[0] - stepping) / 3
        assert builds <= len(set(reads)) + len(full.events)

    def test_ks_phase_makes_interpolants_only_on_bracketing_steps(self, monkeypatch):
        module = importlib.import_module("lunarbound.integrate")
        made = [0]

        class CountingDOP853(module.DOP853):
            def dense_output(self):
                made[0] += 1
                return super().dense_output()

        monkeypatch.setattr(module, "DOP853", CountingDOP853)
        mp, st = two_body_collision_setup()
        t_col = math.pi / math.sqrt(8.0)
        traj = integrate(st, mp, (0.0, 4 * t_col), kepler_only=True, dense=False, regularize=True)
        cols = [e for e in traj.events if e.kind == "collision_regularized"]
        assert len(cols) == 2 and traj.n_steps > 50
        # per passage, one interpolant locates the switch radius on the way
        # in and one the radial minimum; the other KS steps make none
        assert made[0] == 2 * len(cols)

    def test_nodes_read_the_core_formulas(self):
        # I, H and J at the nodes are core's flat formulas: I at every node
        # bit for bit, and both residuals exactly 0 at node 0
        mp, st = hierarchical_state(vr=-0.25, vt=0.1)
        traj = integrate(st, mp, (0.0, 60.0), dense=False)
        inertia = flat_inertia(mp)
        assert traj.inertia_nodes().tolist() == [inertia(y) for y in traj.y.tolist()]
        assert traj.h_resid[0] == 0.0 and traj.j_resid[0] == 0.0


class TestTrajectoryExport:
    def test_csv_round_trip(self, tmp_path):
        mp, st = hierarchical_state()
        traj = integrate(st, mp, (0.0, 3.0))
        p = tmp_path / "traj.csv"
        traj.to_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0].startswith("# lunar-bound/1")
        header = lines[1].split(",")
        assert header[:4] == ["t", "xi1x", "xi1y", "xi1z"]
        assert header[-3:] == ["I", "H_resid", "J_resid"]
        data = np.loadtxt(p, delimiter=",", skiprows=2)
        assert data.shape[0] == len(traj.t)
        assert data[0, 0] == traj.t[0]

    def test_events_csv(self, tmp_path):
        mp, st = hierarchical_state(vr=-0.25)
        level = 0.8 * moment_of_inertia(st, mp)
        ev = EventSpec("entry", lambda t, s: moment_of_inertia(s, mp) - level, -1, True)
        traj = integrate(st, mp, (0.0, 100.0), events=[ev])
        p = tmp_path / "events.csv"
        traj.events_to_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0].startswith("# lunar-bound/1")
        assert lines[1] == "t,kind,payload"
        assert any("entry" in ln for ln in lines[2:])


UNEQUAL = MassParams(0.6, 1.3, 2.1)
UNEQUAL_STATES = [
    JacobiState(xi1=[0.4, 0.05, 0.0], dxi1=[0.1, 2.2, 0.3],
                xi2=[6.0, 1.0, -0.5], dxi2=[-0.3, 0.25, 0.05]),
    JacobiState(xi1=[0.7, -0.2, 0.1], dxi1=[-0.4, 1.1, 0.0],
                xi2=[-2.5, 3.0, 0.4], dxi2=[0.2, -0.6, 0.1]),
    JacobiState(xi1=[0.2, 0.3, -0.1], dxi1=[2.0, -1.5, 0.8],
                xi2=[1.5, -2.0, 1.0], dxi2=[0.9, 0.3, -0.4]),
]


EPS = np.finfo(float).eps


def counting(fun):
    """fun with a call counter in .calls."""

    def wrapped(t, y):
        wrapped.calls += 1
        return fun(t, y)

    wrapped.calls = 0
    return wrapped


class TestDOP853Driver:
    """The in-repo stepper against scipy.integrate.DOP853, the reference it
    reproduces to rounding.  The tolerances follow from float64: a sum of m
    terms computed in any order is good to about m ulp of the sum of the
    terms' magnitudes, and both steppers round their stage arguments, whose
    differences the RHS carries into later stages.  The step grids drift
    apart slowly because the step size is set from the error estimate,
    which cancels to ~1e-7 of its terms, so its rounding reaches the step
    size at ~1e-9 relative per step."""

    ULPS = 16          # y_new, in ulp of the size of its summed terms
    NORM_ULPS = 32     # error norm, in ulp of the size of the error sums
    T_DRIFT = 1e-6     # relative gap of the step grids after 300 steps
    Y_GAP = 1e-10      # our step-end y against scipy's interpolant, relative

    @staticmethod
    def scipy_attempt(fun, t, y, f, h):
        """scipy's rk_step and DOP853 error norm for one attempt, with the
        sizes of the summed terms."""
        fun_np = lambda t, v: np.array(fun(t, v.tolist()))
        K = np.empty((_dop.N_STAGES + 1, len(y)))
        y_new, f_new = rk_step(fun_np, t, np.array(y), np.array(f), h,
                               _dop.A[:_dop.N_STAGES, :_dop.N_STAGES], _dop.B,
                               _dop.C[:_dop.N_STAGES], K)
        size = np.abs(y) + abs(h) * (np.abs(K[:-1].T) @ np.abs(_dop.B))
        scale = 1e-12 + np.maximum(np.abs(y), np.abs(y_new)) * 1e-12
        sums = []
        for E in (_dop.E5, _dop.E3):
            err, err_size = (K.T @ E) / scale, (np.abs(K.T) @ np.abs(E)) / scale
            sums.append((float(err @ err), 2.0 * float(np.abs(err) @ err_size) * EPS))
        return y_new, f_new, size, sums

    @staticmethod
    def error_norm(h, s5, s3, n):
        return abs(h) * s5 / math.sqrt((s5 + 0.01 * s3) * n)

    def test_one_attempt_matches_scipy_rk_step(self):
        rhs = make_rhs(UNEQUAL)
        for k, state in enumerate(UNEQUAL_STATES):
            for sign in (1.0, -1.0):
                solver = DOP853(rhs, 0.0, state.as_vector(), sign * 1e4, rtol=1e-12, atol=1e-12)
                attempt = _attempt_for(solver.n)
                for _ in range(40):
                    t, y, f = solver.t, solver.y, solver.f
                    for h in (sign * solver.h_abs, 3.0 * sign * solver.h_abs):
                        y_new, f_new, s5, s3, _ = attempt(rhs, t, y, f, h, 1e-12, 1e-12)
                        y_ref, f_ref, size, ((r5, d5), (r3, d3)) = self.scipy_attempt(rhs, t, y, f, h)
                        assert np.all(np.abs(np.array(y_new) - y_ref) <= self.ULPS * EPS * size)
                        # f_new is the RHS at y_new, which carries y_new's
                        # rounding into the accelerations
                        assert f_new == rhs(t + h, y_new)
                        acc = np.abs(f_ref[6:]).max()
                        assert np.abs(np.array(f_new[6:]) - f_ref[6:]).max() <= 4 * self.ULPS * EPS * acc
                        ours, ref = self.error_norm(h, s5, s3, 12), self.error_norm(h, r5, r3, 12)
                        bound = ref * (1.5 * d5 / r5 + 0.5 * d3 / r3)
                        assert abs(ours - ref) <= self.NORM_ULPS * bound, (k, sign)
                    solver.step()

    def assert_runs_track(self, ours, ref, n_steps):
        """Step both n_steps times: the same RHS calls (so the same accepted
        and rejected attempts), close step grids, and our step ends on
        scipy's solution to the accuracy both integrate at."""
        assert ours.h_abs == pytest.approx(ref.h_abs, rel=1e-14)
        extra = 0  # scipy's calls for its interpolants
        for _ in range(n_steps):
            assert ours.step() == ref.step()
            assert ours.status == ref.status
            assert ours.fun.calls == ref.nfev - extra
            assert abs(ours.t - ref.t) <= self.T_DRIFT * abs(ref.t)
            t_lo, t_hi = sorted((ref.t_old, ref.t))
            if t_lo <= ours.t <= t_hi:
                y_ref = ref.dense_output()(ours.t)
                extra += 3
                assert np.abs(np.array(ours.y) - y_ref).max() <= self.Y_GAP * np.abs(y_ref).max()
            if ref.status != "running":
                break

    @pytest.mark.parametrize("k", range(len(UNEQUAL_STATES)))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_steps_track_scipy(self, k, sign):
        y0 = UNEQUAL_STATES[k].as_vector()
        ours = DOP853(counting(make_rhs(UNEQUAL)), 0.0, y0, sign * 1e4, rtol=1e-12, atol=1e-12)
        ref = ScipyDOP853(make_rhs(UNEQUAL), 0.0, y0, sign * 1e4, rtol=1e-12, atol=1e-12)
        self.assert_runs_track(ours, ref, 300)
        assert ours.status == "running"

    def test_lazy_interpolant_matches_scipy_dense_output(self):
        rhs = counting(make_rhs(UNEQUAL))
        for state in UNEQUAL_STATES:
            ours = DOP853(rhs, 0.0, state.as_vector(), -1e4, rtol=1e-12, atol=1e-12)
            for _ in range(25):
                ours.step()
            t_old, y_old, h = ours.t_old, np.array(ours.y_old), ours.h_previous
            # scipy from the same step start, forced to the same step size
            ref = ScipyDOP853(rhs, t_old, y_old, -1e4, rtol=1e-12, atol=1e-12)
            ref.h_abs = abs(h)
            ref.step()
            assert ref.t == ours.t
            calls = rhs.calls
            interp = ours.dense_output()
            assert rhs.calls == calls  # packing evaluates nothing
            ref_interp = ref.dense_output()
            for x in (0.0, 0.1, 0.37, 0.5, 0.81, 1.0):
                tq = t_old + x * h
                got, want = interp(tq), ref_interp(tq)
                size = np.abs(y_old) + np.abs(ref_interp.F).sum(axis=0)
                assert np.all(np.abs(got - want) <= self.ULPS * EPS * size)
            # three extra stages for scipy's interpolant and three for ours,
            # evaluated once over six queries, through the solver's fun
            assert rhs.calls == calls + 3 + 3

    def test_last_step_clipped_to_the_bound(self):
        y0 = UNEQUAL_STATES[1].as_vector()
        ours = DOP853(counting(make_rhs(UNEQUAL)), 0.0, y0, -2.0, rtol=1e-10, atol=1e-10)
        ref = ScipyDOP853(make_rhs(UNEQUAL), 0.0, y0, -2.0, rtol=1e-10, atol=1e-10)
        self.assert_runs_track(ours, ref, 10_000)
        assert ours.status == "finished" and ours.t == -2.0

    def test_scipy_argument_checks_kept(self):
        rhs = make_rhs(UNEQUAL)
        y0 = UNEQUAL_STATES[0].as_vector()
        with pytest.warns(UserWarning, match="rtol"):
            ours = DOP853(counting(rhs), 0.0, y0, 1.0, rtol=1e-17, atol=1e-12)
        with pytest.warns(UserWarning, match="rtol"):
            ref = ScipyDOP853(rhs, 0.0, y0, 1.0, rtol=1e-17, atol=1e-12)
        assert ours.rtol == ref.rtol
        self.assert_runs_track(ours, ref, 5)
        bad = y0.copy()
        bad[4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            DOP853(rhs, 0.0, bad, 1.0)
        with pytest.raises(ValueError, match="atol"):
            DOP853(rhs, 0.0, y0, 1.0, atol=-1e-12)

    def test_same_singularity_error_as_scipy(self, monkeypatch):
        mp, st = two_body_collision_setup()
        with pytest.raises(IntegrationSingularityError) as ours:
            integrate(st, mp, (0.0, 2.5))
        monkeypatch.setattr(importlib.import_module("lunarbound.integrate"), "DOP853", ScipyDOP853)
        with pytest.raises(IntegrationSingularityError) as ref:
            integrate(st, mp, (0.0, 2.5))
        assert str(ours.value) == str(ref.value)
        # both stop at the collision, whose time the dynamics fixes
        assert ours.value.t == pytest.approx(ref.value.t, rel=1e-12)
        assert ours.value.state.r < 1e-6 and ref.value.state.r < 1e-6

    @staticmethod
    def ks_matrix(u: np.ndarray) -> np.ndarray:
        """The 3x4 KS matrix L(u), with xi1 = L(u) u."""
        u1, u2, u3, u4 = u
        return np.array([[u1, -u2, -u3, u4], [u2, u1, -u4, -u3], [u3, u4, u1, u2]])

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_ks_field_coupling_matches_perturbation_gradients(self, rng, direction):
        from lunarbound.integrate import _make_ks_rhs

        mp = UNEQUAL
        rhs = _make_ks_rhs(mp, False, direction)
        for _ in range(200):
            u, up = rng.normal(size=4) * 0.3, rng.normal(size=4)
            xi2, v2 = rng.normal(size=3) * 4.0, rng.normal(size=3) * 0.3
            h1 = -abs(rng.normal())
            dz = rhs(0.0, np.concatenate([u, up, [h1, rng.normal()], xi2, v2]))
            L = self.ks_matrix(u)
            r = float(u @ u)
            js = JacobiState(xi1=L @ u, dxi1=np.zeros(3), xi2=xi2, dxi2=v2)
            rho = js.rho
            g1, g2 = perturbation_gradients(js, mp)
            P = -g1 / mp.alpha1
            su, sw = coupling_term_sizes(js, mp)
            p_size = (mp.mu2 * su + mp.mu1 * sw) / mp.alpha1
            g2_size = (mp.beta2 / rho**2 + su + sw) / mp.alpha2
            blocks = (
                (dz[4:8], direction * (0.5 * h1 * u + 0.5 * r * (L.T @ P)),
                 0.5 * abs(h1) * math.sqrt(r) + 0.5 * r * math.sqrt(r) * p_size),
                (dz[8], direction * 2.0 * float((L @ up) @ P),
                 2.0 * math.sqrt(r) * np.linalg.norm(up) * p_size),
                (dz[13:16], direction * r * (-mp.M * xi2 / rho**3 - g2 / mp.alpha2),
                 r * (mp.M / rho**2 + g2_size)),
            )
            for got, want, size in blocks:
                assert np.linalg.norm(got - want) <= 1e-14 * size
            assert np.array_equal(dz[0:4], direction * up)
            assert dz[9] == pytest.approx(direction * r, rel=1e-15)
            assert np.allclose(dz[10:13], direction * r * v2, rtol=1e-15, atol=0.0)


class TestVendoredDop853:
    """The tableau and the interpolant the driver carries itself, against
    scipy's, which they reproduce exactly."""

    def test_tableau_equals_scipy_entry_for_entry(self):
        mod = importlib.import_module("lunarbound.integrate")
        for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
            assert getattr(mod, name) == getattr(_dop, name)
        for name in ("A", "B", "C", "E3", "E5", "D"):
            ours, ref = getattr(mod, name), getattr(_dop, name)
            assert ours.shape == ref.shape and ours.dtype == ref.dtype
            assert ours.tobytes() == ref.tobytes(), name

    @staticmethod
    def assert_bitwise(ours, ref, t_old, t, ts):
        """ours, a _LazyDop853, returns lists equal to scipy's arrays bit for
        bit at the scalar times ts, t_old and t."""
        for tq in [float(tq) for tq in ts] + [t_old, t]:
            got, want = ours(tq), ref(tq)
            assert type(got) is list and all(type(v) is float for v in got)
            assert np.array(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_interpolant_bitwise_equal_to_scipy(self, rng, sign):
        for _ in range(30):
            n = int(rng.integers(1, 17))
            t_old = float(rng.normal() * 10.0)
            t = t_old + sign * float(rng.uniform(1e-3, 2.0))
            y_old = rng.normal(size=n)
            F = rng.normal(size=(7, n)) * 10.0 ** rng.integers(-8, 3, size=(7, 1))
            # a component at rest, as a planar state's z in backward time
            # makes it: the signs of its zeros follow scipy's too
            y_old[0] = F[:, 0] = -0.0
            ts = t_old + (t - t_old) * np.concatenate([[0.0, 1.0], rng.uniform(-0.1, 1.1, 9)])
            build = lambda fun, t_old, t, block: (y_old.tolist(), F.tolist())
            self.assert_bitwise(_LazyDop853(build, None, t_old, t, None),
                                Dop853DenseOutput(t_old, t, y_old, F), t_old, t, ts)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_driver_interpolant_bitwise_equal_to_scipy(self, sign):
        for state in UNEQUAL_STATES:
            solver = DOP853(make_rhs(UNEQUAL), 0.0, state.as_vector(), sign * 1e4,
                            rtol=1e-12, atol=1e-12)
            for _ in range(10):
                solver.step()
            lazy = solver.dense_output()
            ts = np.linspace(solver.t_old, solver.t, 7)
            lazy(float(ts[3]))
            assert type(lazy.y_old) is list and len(lazy.F) == 7
            assert all(type(row) is list for row in lazy.F)
            ref = Dop853DenseOutput(lazy.t_old, lazy.t, np.array(lazy.y_old), np.array(lazy.F))
            self.assert_bitwise(lazy, ref, solver.t_old, solver.t, ts)
