"""Two-body machinery: elements, propagation, pericenter times, Lambert."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from lunarbound import kepler as kp

from conftest import kepler_state, mp_kepler_clock
from reference import period


def elliptic_state(a, e, kappa, E, incl=0.0):
    """State on an ellipse at eccentric anomaly E (orbit in a tilted plane)."""
    r = a * (1 - e * math.cos(E))
    xi = np.array([a * (math.cos(E) - e), a * math.sqrt(1 - e * e) * math.sin(E), 0.0])
    dxi = (math.sqrt(kappa * a) / r) * np.array(
        [-math.sin(E), math.sqrt(1 - e * e) * math.cos(E), 0.0]
    )
    if incl:
        c, s = math.cos(incl), math.sin(incl)
        rot = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
        xi, dxi = rot @ xi, rot @ dxi
    return kp.TwoBodyState(xi=xi, dxi=dxi, kappa=kappa)


def random_bound_state(rng):
    a = rng.uniform(0.5, 4.0)
    e = rng.uniform(0.0, 0.9)
    E = rng.uniform(0.0, 2 * math.pi)
    kappa = rng.uniform(0.5, 3.0)
    incl = rng.uniform(0, math.pi)
    return elliptic_state(a, e, kappa, E, incl)


def true_anomaly(E, e):
    return 2.0 * math.atan2(math.sqrt(1 + e) * math.sin(E / 2), math.sqrt(1 - e) * math.cos(E / 2))


def short_way_arc(rng, a, e):
    """Eccentric anomalies of an arc on the pericenter-side branch: no
    apocenter crossing and true-anomaly sweep at most pi."""
    for _ in range(200):
        E1 = rng.uniform(-0.95 * math.pi, 0.8 * math.pi)
        E2 = rng.uniform(E1 + 0.05, 0.95 * math.pi)
        if true_anomaly(E2, e) - true_anomaly(E1, e) <= math.pi:
            return E1, E2
    raise AssertionError("no conforming arc drawn")


class TestElements:
    def test_circular(self):
        R, kappa = 2.5, 1.7
        s = kp.TwoBodyState(xi=[R, 0, 0], dxi=[0, math.sqrt(kappa / R), 0], kappa=kappa)
        el = kp.elements_from_state(s)
        assert el.e < 1e-14
        assert el.q_peri == pytest.approx(R, rel=1e-13)
        assert el.h == pytest.approx(-kappa / (2 * R), rel=1e-13)

    def test_radial(self):
        s = kp.TwoBodyState(xi=[1.0, 1.0, 0], dxi=[0.3, 0.3, 0], kappa=1.0)
        el = kp.elements_from_state(s)
        assert el.c == 0.0 and el.q_peri == 0.0
        assert el.e == pytest.approx(1.0, abs=1e-12)

    def test_zero_radius_rejected(self):
        s = kp.TwoBodyState(xi=[0, 0, 0], dxi=[1, 0, 0], kappa=1.0)
        with pytest.raises(ValueError):
            kp.elements_from_state(s)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_consistency_identity(self, seed):
        rng = np.random.default_rng(seed)
        el = kp.elements_from_state(random_bound_state(rng))
        assert el.e**2 - (1 + 2 * el.h * el.c**2 / el.kappa**2) == pytest.approx(0.0, abs=1e-12)
        assert float(el.e_vec @ el.c_vec) == pytest.approx(0.0, abs=1e-10)


class TestPropagate:
    def test_identity_at_zero(self):
        s = kp.TwoBodyState(xi=[1, 2, 3], dxi=[0.1, 0, -0.2], kappa=2.0)
        s2 = kp.propagate(s, 0.0)
        assert np.array_equal(s2.xi, s.xi) and np.array_equal(s2.dxi, s.dxi)

    def test_circular_period_return(self):
        R, kappa = 1.5, 2.0
        s = kp.TwoBodyState(xi=[R, 0, 0], dxi=[0, math.sqrt(kappa / R), 0], kappa=kappa)
        T = 2 * math.pi * math.sqrt(R**3 / kappa)
        s2 = kp.propagate(s, T)
        assert np.abs(s2.xi - s.xi).max() < 1e-10
        assert np.abs(s2.dxi - s.dxi).max() < 1e-10

    def test_keplers_third_law(self, rng):
        for _ in range(10):
            s = random_bound_state(rng)
            el = kp.elements_from_state(s)
            s2 = kp.propagate(s, period(el))
            assert np.abs(s2.xi - s.xi).max() < 1e-10 * max(1.0, s.r)

    def test_conservation_long_span(self, rng):
        for _ in range(5):
            s = random_bound_state(rng)
            el = kp.elements_from_state(s)
            T = period(el)
            s2 = kp.propagate(s, 1e4 * T * rng.uniform(0.9, 1.1))
            el2 = kp.elements_from_state(s2)
            assert el2.h == pytest.approx(el.h, rel=1e-12)
            assert np.abs(el2.c_vec - el.c_vec).max() <= 1e-12 * max(el.c, 1.0)

    def test_against_ode_integration(self, rng):
        s = random_bound_state(rng)
        t_end = 7.3

        def rhs(t, y):
            r3 = np.linalg.norm(y[:3]) ** 3
            return np.concatenate([y[3:], -s.kappa * y[:3] / r3])

        sol = solve_ivp(
            rhs, (0, t_end), np.concatenate([s.xi, s.dxi]),
            method="DOP853", rtol=1e-13, atol=1e-13,
        )
        s2 = kp.propagate(s, t_end)
        assert np.abs(s2.xi - sol.y[:3, -1]).max() < 1e-9
        assert np.abs(s2.dxi - sol.y[3:, -1]).max() < 1e-9

    def test_hyperbolic_long_span(self):
        s = kp.TwoBodyState(xi=[1.0, 0.5, 0], dxi=[0.9, 1.1, 0.2], kappa=1.0)
        el = kp.elements_from_state(s)
        assert el.h > 0
        s2 = kp.propagate(s, 1e5)
        el2 = kp.elements_from_state(s2)
        assert el2.h == pytest.approx(el.h, rel=1e-12)
        back = kp.propagate(s2, -1e5)
        assert np.abs(back.xi - s.xi).max() < 1e-7

    @pytest.mark.parametrize(
        "xi, dxi, dt",
        [
            # inbound, 1.6e23 of a 2.4e23 fall
            ([-8.58781834487364e22, 1.6315700773408911e22, -1.6184918660946718e22],
             [0.35939693351735164, -0.06828058757961682, 0.0677332694099691], 1.6e23),
            # inbound, slow: the parabolic-fall seed once overshot the root 5e7 times
            ([5.321691105953986e22, 5.525309950056741e22, 1.0184935005905794e22],
             [-0.07171561998875198, -0.07445960707020517, -0.013725316143894068], 1.6e23),
            # outbound, propagated back toward the center
            ([-6.266923153981806e22, -4.0997175024107204e22, -1.0876481006960382e22],
             [-0.45289353687834105, -0.2962754631336302, -0.07860137791705063], -1.0e23),
        ],
    )
    def test_far_near_radial_hyperbolic_fall(self, xi, dxi, dt):
        # outer orbits of three-body states sampled near I = 2e44: the angular
        # momentum is rounding noise against r * v, so the orbit is radial
        s = kp.TwoBodyState(xi=xi, dxi=dxi, kappa=1.0)
        assert kp._is_radial(s)
        h0 = 0.5 * s.speed**2 - s.kappa / s.r
        assert h0 > 0.0
        tp = kp.time_to_pericenter(s)
        assert tp.direction * dt > 0 and abs(dt) < tp.time
        s2 = kp.propagate(s, dt)
        h2 = 0.5 * s2.speed**2 - s2.kappa / s2.r
        assert h2 == pytest.approx(h0, rel=1e-12)
        assert s2.r < s.r
        tp2 = kp.time_to_pericenter(s2)
        assert tp2.direction == tp.direction
        assert tp2.time == pytest.approx(tp.time - abs(dt), rel=1e-12)

    def test_near_parabolic_seed_far_past_the_root(self):
        # the hyperbolic seed is -1.7e8 for a root near -19.7: the solve's
        # residual is judged at its iterate, not over that wide bracket
        s = kp.TwoBodyState(xi=[74.60499418457249, -96.50796037102394, -231.3667492651786],
                            dxi=[0.0318759909680895, -0.03563697279550638, -0.06433052867425795],
                            kappa=0.8401740533208013)
        t = -2230.647904435789
        s2 = kp.propagate(s, t)
        assert float(mp_kepler_clock(s, s2.r) - mp_kepler_clock(s)) == pytest.approx(t, rel=1e-12)

    def test_near_parabolic_hyperbola_seeded_in_the_parabolic_regime(self, monkeypatch):
        # alpha = -3.6e-17: the hyperbolic seed sqrt(1/|alpha|) = 1.7e8 is
        # not offered where |alpha| chi^2 is tiny, so the solve starts near
        # the root (a median of 7 evaluations on generic propagations)
        s = kp.TwoBodyState(xi=[74.60499418457249, -96.50796037102394, -231.3667492651786],
                            dxi=[0.0318759909680895, -0.03563697279550638, -0.06433052867425795],
                            kappa=0.8401740533208013)
        calls = [0]
        universal_f = kp._universal_f

        def counting(*args):
            calls[0] += 1
            return universal_f(*args)

        monkeypatch.setattr(kp, "_universal_f", counting)
        kp.propagate(s, -2230.647904435789)
        assert calls[0] <= 15

    def test_radial_collision_raises(self):
        s = kp.TwoBodyState(xi=[1, 0, 0], dxi=[0, 0, 0], kappa=1.0)
        t_col = math.pi / math.sqrt(8.0)
        with pytest.raises(kp.CollisionAtTimeError) as exc:
            kp.propagate(s, 1.2 * t_col)
        assert exc.value.t_collision == pytest.approx(t_col, rel=1e-12)
        # short of the collision is fine
        s2 = kp.propagate(s, 0.9 * t_col)
        assert 0 < s2.r < 1.0

    def test_radial_backward_collision_raises(self):
        # outbound radial state: expelled from the center a moment ago
        s0 = kp.TwoBodyState(xi=[1, 0, 0], dxi=[0, 0, 0], kappa=1.0)
        t_col = math.pi / math.sqrt(8.0)
        s1 = kp.propagate(s0, 0.5 * t_col)  # inbound at smaller radius
        s1_out = kp.TwoBodyState(xi=s1.xi, dxi=-s1.dxi, kappa=1.0)
        with pytest.raises(kp.CollisionAtTimeError):
            kp.propagate(s1_out, -0.6 * t_col)


class TestTimeToPericenter:
    def test_at_pericenter(self):
        s = elliptic_state(2.0, 0.5, 1.0, 0.0)
        t, _ = kp.time_to_pericenter(s)
        assert abs(t) < 1e-12

    def test_circular_convention(self):
        R, kappa = 2.0, 1.0
        s = kp.TwoBodyState(xi=[R, 0, 0], dxi=[0, math.sqrt(kappa / R), 0], kappa=kappa)
        assert kp.time_to_pericenter(s) == (0.0, +1)

    def test_radial_fall_from_rest(self):
        rho0, kappa = 1.0, 1.0
        s = kp.TwoBodyState(xi=[rho0, 0, 0], dxi=[0, 0, 0], kappa=kappa)
        t, _ = kp.time_to_pericenter(s)
        # half-period of the degenerate ellipse a = rho0/2
        assert t == pytest.approx(math.pi * math.sqrt(rho0**3 / (8 * kappa)), rel=1e-13)

    def test_propagate_oracle(self, rng):
        for _ in range(25):
            s = random_bound_state(rng)
            el = kp.elements_from_state(s)
            if el.e < 1e-6:
                continue
            t, sig = kp.time_to_pericenter(s)
            sp = kp.propagate(s, sig * t)
            assert sp.r == pytest.approx(el.q_peri, rel=1e-10, abs=1e-12)

    def test_hyperbolic_outbound_backward(self):
        s = kp.TwoBodyState(xi=[2.0, 0, 0], dxi=[1.0, 0.8, 0], kappa=1.0)
        el = kp.elements_from_state(s)
        assert el.h > 0 and float(s.xi @ s.dxi) > 0
        t, sig = kp.time_to_pericenter(s)
        assert sig == -1 and t > 0
        sp = kp.propagate(s, -t)
        assert sp.r == pytest.approx(el.q_peri, rel=1e-10)

    def test_at_most_half_period(self, rng):
        for _ in range(25):
            s = random_bound_state(rng)
            el = kp.elements_from_state(s)
            t, _ = kp.time_to_pericenter(s)
            assert t <= 0.5 * period(el) * (1 + 1e-12)

    @pytest.mark.parametrize("vx, direction", [(-1.0, +1), (1.0, -1)])
    def test_parabolic_barker(self, vx, direction):
        # h = 1/2 * 2 - 1/1 = 0 exactly, c = 1, q = 1/2: Barker's equation
        # with tan(nu/2) = +-1 gives sqrt(2 q^3/kappa) (1 + 1/3) = 2/3
        s = kp.TwoBodyState(xi=[1.0, 0, 0], dxi=[vx, 1.0, 0], kappa=1.0)
        el = kp.elements_from_state(s)
        assert el.h == 0.0 and el.q_peri == pytest.approx(0.5, rel=1e-15)
        t, sig = kp.time_to_pericenter(s)
        assert sig == direction
        assert t == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert kp.propagate(s, sig * t).r == pytest.approx(el.q_peri, rel=1e-9)

    def test_radial_parabolic_fall(self):
        # h = 1/2 - 2/4 = 0 exactly on a radial infall: the fall from r = 4
        r, kappa = 4.0, 2.0
        s = kp.TwoBodyState(xi=[0, 0, r], dxi=[0, 0, -1.0], kappa=kappa)
        t, sig = kp.time_to_pericenter(s)
        assert sig == +1
        assert t == kp.radial_fall_time(r, 0.0, kappa)


class TestKeplerClock:
    """time_to_pericenter against Barker's equation and the 60-digit clock
    near e = 1, where Kepler's equation cancels unless 1 - e is carried as
    q/a, and next to the radial threshold."""

    @pytest.mark.parametrize("vy", [1.0 + 1e-15, math.sqrt(1.0 + 2e-12), math.sqrt(1.0 - 2e-12)])
    def test_near_parabolic_reaches_pericenter(self, vy):
        # h = 1.1e-15, +1e-12 and -1e-12 next to the Barker state above
        s = kp.TwoBodyState(xi=[1.0, 0, 0], dxi=[-1.0, vy, 0], kappa=1.0)
        el = kp.elements_from_state(s)
        t, sig = kp.time_to_pericenter(s)
        assert sig == +1
        assert t == pytest.approx(2.0 / 3.0, rel=1e-11)
        assert t == pytest.approx(-float(mp_kepler_clock(s)), rel=1e-14)
        assert abs(kp.propagate(s, t).r - el.q_peri) <= 1e-14 * el.q_peri

    def test_near_radial_bound_state_keeps_its_energy(self):
        # c = 9.6e-13 is above _is_radial's threshold, so the clock reads the
        # bound orbit: its fall time, not the parabolic one
        s = kp.TwoBodyState(xi=[0.15, 0, 0], dxi=[-3.5118845842842465, 6.4e-12, 0], kappa=1.0)
        assert not kp._is_radial(s)
        el = kp.elements_from_state(s)
        assert el.h < 0.0
        t, sig = kp.time_to_pericenter(s)
        assert sig == +1
        assert t == pytest.approx(kp.radial_fall_time(0.15, el.h, 1.0), rel=1e-13)
        assert t == pytest.approx(-float(mp_kepler_clock(s)), rel=1e-13)

    def test_against_60_digit_clock(self):
        # near-radial states that _is_radial takes are timed by the collision
        # window instead, and left out
        rng = np.random.default_rng(7)
        checked = 0
        for kind in ("generic", "parabolic", "radial") * 200:
            s = kepler_state(rng, kind)
            if kp._is_radial(s):
                continue
            t, sig = kp.time_to_pericenter(s)
            assert -sig * t == pytest.approx(float(mp_kepler_clock(s)), rel=1e-12)
            checked += 1
        assert checked >= 450


class TestCollisionTimeBound:
    def test_formula(self):
        assert kp.collision_time_bound(1.0, 1.0) == pytest.approx(math.pi / math.sqrt(8.0))

    def test_equality_at_rest(self):
        rho0, kappa = 2.7, 1.3
        s = kp.TwoBodyState(xi=[0, rho0, 0], dxi=[0, 0, 0], kappa=kappa)
        t, _ = kp.time_to_pericenter(s)
        assert t == pytest.approx(kp.collision_time_bound(rho0, kappa), rel=1e-10)

    def test_dominates_inbound_radial_states(self, rng):
        kappa = 1.0
        for _ in range(100):
            rho0 = rng.uniform(0.5, 5.0)
            h = rng.uniform(-kappa / rho0, kappa / rho0)
            v = -math.sqrt(2 * (h + kappa / rho0))
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            s = kp.TwoBodyState(xi=rho0 * direction, dxi=v * direction, kappa=kappa)
            t, sig = kp.time_to_pericenter(s)
            assert sig == +1
            assert t <= kp.collision_time_bound(rho0, kappa) * (1 + 1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            kp.collision_time_bound(-1.0, 1.0)


class TestLambert:
    def test_coincident_points(self):
        assert kp.lambert_time_of_flight(2.0, 2.0, 0.0, -0.1, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_rectilinear_equals_fall_difference(self, rng):
        for _ in range(20):
            kappa = rng.uniform(0.5, 2.0)
            h = rng.uniform(-0.4, 0.4)
            r1 = rng.uniform(0.1, 2.0)
            r2 = rng.uniform(0.1, 2.0)
            d = r1 + r2  # chord through the focus
            if h < 0 and d > -kappa / h:  # beyond the energy's reach
                continue
            t = kp.lambert_time_of_flight(r1, r2, d, h, kappa)
            expect = kp.radial_fall_time(d, h, kappa)
            assert t == pytest.approx(expect, rel=1e-12)

    def test_propagation_oracle(self, rng):
        for _ in range(50):
            a = rng.uniform(0.5, 3.0)
            e = rng.uniform(0.0, 0.95)
            kappa = rng.uniform(0.5, 2.0)
            E1, E2 = short_way_arc(rng, a, e)
            sA = elliptic_state(a, e, kappa, E1)
            dt = math.sqrt(a**3 / kappa) * ((E2 - e * math.sin(E2)) - (E1 - e * math.sin(E1)))
            sB = kp.propagate(sA, dt)
            d = float(np.linalg.norm(sB.xi - sA.xi))
            h = 0.5 * sA.speed**2 - kappa / sA.r
            t = kp.lambert_time_of_flight(sA.r, sB.r, d, h, kappa)
            assert t == pytest.approx(dt, rel=1e-10, abs=1e-10)

    def test_invariance_across_orbits(self, rng):
        # same (r1+r2, d, h): arcs on different ellipses share the flight time
        kappa = 1.0
        for _ in range(20):
            a = rng.uniform(1.0, 3.0)
            e = rng.uniform(0.1, 0.8)
            E1, E2 = short_way_arc(rng, a, e)
            sA = elliptic_state(a, e, kappa, E1)
            dt = math.sqrt(a**3 / kappa) * ((E2 - e * math.sin(E2)) - (E1 - e * math.sin(E1)))
            sB = kp.propagate(sA, dt)
            d = float(np.linalg.norm(sB.xi - sA.xi))
            rsum = sA.r + sB.r
            h = 0.5 * sA.speed**2 - kappa / sA.r
            # a different split of the same radius sum
            shift = rng.uniform(-0.2, 0.2) * min(sA.r, sB.r)
            t1 = kp.lambert_time_of_flight(sA.r, sB.r, d, h, kappa)
            t2 = kp.lambert_time_of_flight(sA.r - shift, sB.r + shift, d, h, kappa)
            assert t1 == pytest.approx(t2, rel=1e-12)
            assert t1 == pytest.approx(dt, rel=1e-9, abs=1e-10)

    def test_infeasible_geometry(self):
        with pytest.raises(kp.InfeasibleGeometryError):
            kp.lambert_time_of_flight(1.0, 1.0, 3.0, -0.1, 1.0)
        with pytest.raises(kp.InfeasibleGeometryError):
            kp.lambert_time_of_flight(1.0, 3.0, 0.5, -0.1, 1.0)
        # energy too low for the geometry: max radius 2a < s
        with pytest.raises(kp.InfeasibleGeometryError):
            kp.lambert_time_of_flight(4.0, 4.0, 2.0, -1.0, 1.0)


class TestPericenterDistanceBound:
    def test_values(self):
        assert kp.pericenter_distance_bound(0.0, 1.0) == 0.0
        assert kp.pericenter_distance_bound(2.0, 4.0) == pytest.approx(1.0)

    def test_property_sweep(self, rng):
        kappa = 1.0
        c_j2 = 1.5
        bound = kp.pericenter_distance_bound(c_j2, kappa)
        for _ in range(1000):
            a = rng.uniform(0.2, 5.0)
            e = rng.uniform(0.0, 0.99)
            c = math.sqrt(kappa * a * (1 - e * e))
            if c > c_j2:
                continue
            q = a * (1 - e)
            assert q <= bound * (1 + 1e-12)
