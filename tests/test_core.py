"""Coordinate transforms, conserved quantities, and the coupling term."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lunarbound.core import (
    _coupling_kernel,
    CartesianState,
    JacobiState,
    MassParams,
    SingularConfigurationError,
    angular_momentum,
    energy_split,
    from_jacobi,
    make_rhs,
    moment_of_inertia,
    perturbation,
    to_jacobi,
)

from conftest import coupling_term_sizes, random_jacobi_state
from reference import perturbation_gradients, vector_field


def reference_rhs(mp: MassParams, kepler_only: bool = False):
    """make_rhs as it was before the coupling kernel: the same operations,
    evaluated on numpy scalars read from y[0]..y[5]."""
    m1, m2, m3 = mp.m1, mp.m2, mp.m3
    mu, M = mp.mu, mp.M
    mu1, mu2 = mp.mu1, mp.mu2
    a1, a2 = mp.alpha1, mp.alpha2
    beta2 = mp.beta2
    m13 = m1 * m3
    m23 = m2 * m3

    def rhs(t, y):
        x1, y1, z1, x2, y2, z2 = y[0], y[1], y[2], y[3], y[4], y[5]
        r2 = x1 * x1 + y1 * y1 + z1 * z1
        p2 = x2 * x2 + y2 * y2 + z2 * z2
        r3 = r2 * math.sqrt(r2)
        p3 = p2 * math.sqrt(p2)
        c1 = -mu / r3
        c2 = -M / p3
        ax1, ay1, az1 = c1 * x1, c1 * y1, c1 * z1
        ax2, ay2, az2 = c2 * x2, c2 * y2, c2 * z2
        if not kepler_only:
            ux, uy, uz = x2 + mu2 * x1, y2 + mu2 * y1, z2 + mu2 * z1
            wx, wy, wz = x2 - mu1 * x1, y2 - mu1 * y1, z2 - mu1 * z1
            nu2 = ux * ux + uy * uy + uz * uz
            nw2 = wx * wx + wy * wy + wz * wz
            cu = m13 / (nu2 * math.sqrt(nu2))
            cw = m23 / (nw2 * math.sqrt(nw2))
            gb = beta2 / p3
            ax1 -= (mu2 * cu * ux - mu1 * cw * wx) / a1
            ay1 -= (mu2 * cu * uy - mu1 * cw * wy) / a1
            az1 -= (mu2 * cu * uz - mu1 * cw * wz) / a1
            ax2 -= (cu * ux + cw * wx - gb * x2) / a2
            ay2 -= (cu * uy + cw * wy - gb * y2) / a2
            az2 -= (cu * uz + cw * wz - gb * z2) / a2
        return np.array([y[6], y[7], y[8], y[9], y[10], y[11], ax1, ay1, az1, ax2, ay2, az2])

    return rhs


def cartesian_energy(state: CartesianState, mp: MassParams) -> float:
    m = mp.masses()
    q = state.positions()
    v = state.velocities()
    T = 0.5 * sum(m[i] * float(v[i] @ v[i]) for i in range(3))
    U = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            U += m[i] * m[j] / np.linalg.norm(q[i] - q[j])
    return T - U


def cartesian_inertia(state: CartesianState, mp: MassParams) -> float:
    return sum(mi * float(qi @ qi) for mi, qi in zip(mp.masses(), state.positions()))


def cartesian_J(state: CartesianState, mp: MassParams) -> np.ndarray:
    return sum(
        mi * np.cross(qi, vi)
        for mi, qi, vi in zip(mp.masses(), state.positions(), state.velocities())
    )


class TestMassParams:
    def test_derived_constants(self):
        mp = MassParams(1.0, 2.0, 3.0)
        assert mp.mu == 3.0
        assert mp.M == 6.0
        assert mp.alpha1 == pytest.approx(2.0 / 3.0)
        assert mp.alpha2 == pytest.approx(3.0 * 3.0 / 6.0)
        assert mp.beta1 == pytest.approx(mp.mu * mp.alpha1)
        assert mp.beta2 == pytest.approx(mp.m3 * mp.mu)
        assert mp.mu1 + mp.mu2 == pytest.approx(1.0)
        assert mp.alpha1 <= mp.mu / 4.0 + 1e-15

    def test_positive_masses_required(self):
        with pytest.raises(ValueError):
            MassParams(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            MassParams(0.0, 1.0, 1.0)

    def test_relabeled_far_body(self):
        mp = MassParams(1.0, 2.0, 3.0)
        assert mp.relabeled(3).masses() == (1.0, 2.0, 3.0)
        assert mp.relabeled(1).masses() == (2.0, 3.0, 1.0)
        assert mp.relabeled(2).masses() == (3.0, 1.0, 2.0)


class TestJacobiTransform:
    def test_worked_example(self):
        mp = MassParams(1, 1, 1)
        st = CartesianState(
            q1=[-1, -1, 0], q2=[1, -1, 0], q3=[0, 2, 0],
            v1=[0, 0, 0], v2=[0, 0, 0], v3=[0, 0, 0],
        )
        js = to_jacobi(st, mp)
        assert np.allclose(js.xi1, [2, 0, 0])
        assert np.allclose(js.xi2, [0, 3, 0])
        # with zero center of mass, xi2 = (M/mu) q3
        assert np.allclose(js.xi2, (mp.M / mp.mu) * np.asarray(st.q3), atol=1e-14)
        # both inertia formulas agree: sum m|q|^2 = 8 and alpha-weighted = 8
        assert cartesian_inertia(st, mp) == pytest.approx(8.0)
        assert moment_of_inertia(js, mp) == pytest.approx(8.0, abs=1e-13)

    def test_inverse_of_example(self):
        mp = MassParams(1, 1, 1)
        js = JacobiState(xi1=[2, 0, 0], dxi1=[0, 0, 0], xi2=[0, 3, 0], dxi2=[0, 0, 0])
        cart = from_jacobi(js, mp)
        assert np.allclose(cart.q3, [0, 2, 0])
        assert np.allclose(cart.q1, [-1, -1, 0])
        assert np.allclose(cart.q2, [1, -1, 0])
        assert np.allclose(cart.v1, 0) and np.allclose(cart.v2, 0)

    def test_rejects_com_violation(self):
        mp = MassParams(1, 1, 1)
        st = CartesianState(
            q1=[0, 0, 0], q2=[1, 0, 0], q3=[1, 1, 0],
            v1=[0, 0, 0], v2=[0, 0, 0], v3=[0, 0, 0],
        )
        with pytest.raises(ValueError, match="center of mass"):
            to_jacobi(st, mp)

    def test_cartesian_to_jacobi_round_trip(self, rng):
        mp = MassParams(0.9, 1.4, 0.6)
        js = random_jacobi_state(rng)
        cart = from_jacobi(js, mp)
        cart2 = from_jacobi(to_jacobi(cart, mp), mp)
        for name in ("q1", "q2", "q3", "v1", "v2", "v3"):
            a, b = getattr(cart, name), getattr(cart2, name)
            assert np.abs(a - b).max() <= 1e-13 * max(np.abs(a).max(), 1.0)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        mp = MassParams(*(rng.uniform(0.2, 3.0, size=3)))
        js = random_jacobi_state(rng, hierarchical=False)
        back = to_jacobi(from_jacobi(js, mp), mp)
        ref = js.as_vector()
        scale = max(np.abs(ref).max(), 1.0)
        assert np.abs(back.as_vector() - ref).max() <= 1e-13 * scale

    def test_cartesian_round_trip(self, rng):
        mp = MassParams(0.7, 1.3, 2.1)
        js = random_jacobi_state(rng)
        cart = from_jacobi(js, mp)
        m = np.array(mp.masses())
        q_scale = np.abs(cart.positions()).max()
        v_scale = np.abs(cart.velocities()).max()
        assert np.abs(m @ cart.positions()).max() < 1e-14 * max(q_scale, 1.0)
        assert np.abs(m @ cart.velocities()).max() < 1e-14 * max(v_scale, 1.0)


class TestConservedQuantities:
    def test_inertia_identity(self, rng):
        for _ in range(20):
            mp = MassParams(*(rng.uniform(0.2, 3.0, size=3)))
            js = random_jacobi_state(rng, hierarchical=False)
            cart = from_jacobi(js, mp)
            a = moment_of_inertia(js, mp)
            b = cartesian_inertia(cart, mp)
            assert a == pytest.approx(b, rel=1e-12)

    def test_inertia_degenerate_and_scaling(self):
        mp = MassParams(1, 2, 3)
        zero = JacobiState(xi1=[0, 0, 0], dxi1=[0, 0, 0], xi2=[0, 0, 0], dxi2=[0, 0, 0])
        assert moment_of_inertia(zero, mp) == 0.0
        js = JacobiState(xi1=[1, 2, 0], dxi1=[0, 0, 0], xi2=[0, 1, 3], dxi2=[0, 0, 0])
        js2 = JacobiState(xi1=2 * js.xi1, dxi1=js.dxi1, xi2=2 * js.xi2, dxi2=js.dxi2)
        assert moment_of_inertia(js2, mp) == pytest.approx(4 * moment_of_inertia(js, mp))

    def test_angular_momentum_identity(self, rng):
        for _ in range(20):
            mp = MassParams(*(rng.uniform(0.2, 3.0, size=3)))
            js = random_jacobi_state(rng, hierarchical=False)
            J, J1, J2 = angular_momentum(js, mp)
            assert np.allclose(J, J1 + J2, rtol=1e-14, atol=0)
            Jc = cartesian_J(from_jacobi(js, mp), mp)
            scale = max(np.linalg.norm(J), np.linalg.norm(Jc), 1e-30)
            assert np.linalg.norm(J - Jc) <= 1e-12 * scale

    def test_angular_momentum_zero_cases(self):
        mp = MassParams(1, 1, 1)
        js = JacobiState(xi1=[1, 0, 0], dxi1=[0, 0, 0], xi2=[0, 2, 0], dxi2=[0, 0, 0])
        J, _, _ = angular_momentum(js, mp)
        assert np.allclose(J, 0.0)
        # radial motion: velocities parallel to positions
        js = JacobiState(xi1=[1, 0, 0], dxi1=[0.5, 0, 0], xi2=[0, 2, 0], dxi2=[0, -1, 0])
        J, _, _ = angular_momentum(js, mp)
        assert np.allclose(J, 0.0)


class TestEnergySplit:
    def test_coupling_worked_example(self):
        mp = MassParams(1, 1, 1)
        js = JacobiState(xi1=[2, 0, 0], dxi1=[0, 0, 0], xi2=[0, 3, 0], dxi2=[0, 0, 0])
        H, H1, H2, g = energy_split(js, mp)
        assert g == pytest.approx(2.0 / 3.0 - 2.0 / math.sqrt(10.0), abs=1e-15)

    def test_coupling_vanishes_for_coincident_binary(self):
        mp = MassParams(0.4, 1.1, 2.0)
        js = JacobiState(xi1=[1e-14, 0, 0], dxi1=[0, 0, 0], xi2=[0, 4, 0], dxi2=[0, 0, 0])
        assert abs(perturbation(js, mp)) < 1e-15

    def test_quadratic_vanishing_in_r(self):
        # |g| <= c r^2 along a geometric sequence of binary sizes
        mp = MassParams(1.0, 0.5, 0.8)
        xi2 = np.array([0.7, 3.0, -0.4])
        direction = np.array([0.3, -0.5, 0.81])
        direction /= np.linalg.norm(direction)
        rs = 0.5 ** np.arange(2, 12)
        gs = []
        for r in rs:
            js = JacobiState(xi1=r * direction, dxi1=[0, 0, 0], xi2=xi2, dxi2=[0, 0, 0])
            gs.append(abs(perturbation(js, mp)))
        ratios = np.array(gs) / rs**2
        assert ratios.max() / ratios.min() < 1.5

    def test_total_energy_identity(self, rng):
        for _ in range(20):
            mp = MassParams(*(rng.uniform(0.2, 3.0, size=3)))
            js = random_jacobi_state(rng, hierarchical=False)
            H, H1, H2, g = energy_split(js, mp)
            Hc = cartesian_energy(from_jacobi(js, mp), mp)
            assert H == pytest.approx(Hc, rel=1e-12)

    def test_singular_configuration_raises(self):
        mp = MassParams(1, 1, 1)
        js = JacobiState(xi1=[0, 0, 0], dxi1=[0, 0, 0], xi2=[1, 0, 0], dxi2=[0, 0, 0])
        with pytest.raises((SingularConfigurationError, ValueError)):
            energy_split(js, mp)
        # far body on top of binary member: xi2 = mu1 * xi1
        js = JacobiState(xi1=[1, 0, 0], dxi1=[0, 0, 0], xi2=[0.5, 0, 0], dxi2=[0, 0, 0])
        with pytest.raises(SingularConfigurationError):
            energy_split(js, mp)


class TestPerturbationGradients:
    def test_outer_gradient_zero_for_coincident_binary(self):
        mp = MassParams(0.9, 1.2, 0.7)
        js = JacobiState(xi1=[0, 0, 0], dxi1=[0, 0, 0], xi2=[1, 2, 2], dxi2=[0, 0, 0])
        g1, g2 = perturbation_gradients(js, mp)
        assert np.allclose(g2, 0.0, atol=1e-16)

    def test_gradients_match_finite_differences(self, rng):
        # the coupling is a small difference of O(beta2/rho) potential terms,
        # so the central-difference oracle carries an absolute noise floor of
        # about eps * (beta2/rho) / step on top of its truncation error
        step = 1e-6
        for _ in range(10):
            mp = MassParams(*(rng.uniform(0.3, 2.0, size=3)))
            js = random_jacobi_state(rng)
            g1, g2 = perturbation_gradients(js, mp)
            fd_floor = 50.0 * np.finfo(float).eps * (mp.beta2 / js.rho) / step

            def g_of(xi1, xi2):
                return perturbation(
                    JacobiState(xi1=xi1, dxi1=js.dxi1, xi2=xi2, dxi2=js.dxi2), mp
                )

            for k in range(3):
                d = np.zeros(3)
                d[k] = step
                fd1 = (g_of(js.xi1 + d, js.xi2) - g_of(js.xi1 - d, js.xi2)) / (2 * step)
                fd2 = (g_of(js.xi1, js.xi2 + d) - g_of(js.xi1, js.xi2 - d)) / (2 * step)
                scale1 = max(abs(fd1), np.linalg.norm(g1))
                scale2 = max(abs(fd2), np.linalg.norm(g2))
                assert abs(g1[k] - fd1) <= 1e-6 * scale1 + fd_floor
                assert abs(g2[k] - fd2) <= 1e-6 * scale2 + fd_floor

    def test_symmetric_configuration(self):
        # equal binary masses, far body on the perpendicular bisector:
        # the inner gradient points along the binary axis
        mp = MassParams(1.0, 1.0, 0.8)
        js = JacobiState(xi1=[1.4, 0, 0], dxi1=[0, 0, 0], xi2=[0, 3.0, 0], dxi2=[0, 0, 0])
        g1, _ = perturbation_gradients(js, mp)
        assert abs(g1[1]) < 1e-15 and abs(g1[2]) < 1e-15


class TestCouplingKernel:
    def test_matches_perturbation_gradients(self, rng):
        mp = MassParams(0.8, 1.1, 1.7)
        coupling = _coupling_kernel(mp)
        for k in range(200):
            js = random_jacobi_state(rng, hierarchical=k % 2 == 0)
            g1, g2 = perturbation_gradients(js, mp)
            got = coupling(*js.xi1.tolist(), *js.xi2.tolist(), js.rho ** 3)
            su, sw = coupling_term_sizes(js, mp)
            assert np.linalg.norm(np.array(got[:3]) - g1) <= 1e-14 * (mp.mu2 * su + mp.mu1 * sw)
            assert np.linalg.norm(np.array(got[3:]) - g2) <= 1e-14 * (mp.beta2 / js.rho ** 2 + su + sw)


class TestVectorField:
    def test_kepler_only_limit(self, rng):
        mp = MassParams(0.8, 1.1, 1.7)
        js = random_jacobi_state(rng)
        f = vector_field(js, mp, kepler_only=True)
        dd1 = f[6:9]
        dd2 = f[9:12]
        assert np.allclose(dd1, -mp.mu * js.xi1 / js.r**3)
        assert np.allclose(dd2, -mp.M * js.xi2 / js.rho**3)

    def test_rhs_matches_vector_field(self, rng):
        mp = MassParams(0.8, 1.1, 1.7)
        js = random_jacobi_state(rng)
        rhs = make_rhs(mp)
        assert np.allclose(rhs(0.0, js.as_vector()), vector_field(js, mp), rtol=1e-15)

    @pytest.mark.parametrize("kepler_only", [False, True])
    def test_rhs_bitwise_equal_to_numpy_scalar_reference(self, rng, kepler_only):
        mp = MassParams(0.8, 1.1, 1.7)
        rhs = make_rhs(mp, kepler_only=kepler_only)
        ref = reference_rhs(mp, kepler_only=kepler_only)
        for k in range(1000):
            y = random_jacobi_state(rng, scale=10.0 ** rng.uniform(-3, 3),
                                    hierarchical=k % 2 == 0).as_vector()
            assert np.array_equal(rhs(0.0, y), ref(0.0, y)), y

    def test_rhs_at_zero_distance_matches_reference(self):
        # Python floats raise at r = 0; the field still gives numpy's inf/nan
        mp = MassParams(0.8, 1.1, 1.7)
        y = np.array([0.0, 0, 0, 3, 1, 0, 0.5, 0, 0, 0, 0.1, 0])
        with np.errstate(all="ignore"):
            got, want = make_rhs(mp)(0.0, y), reference_rhs(mp)(0.0, y)
        assert np.array_equal(got, want, equal_nan=True)
        assert not np.isfinite(got[6:9]).any()

    def test_force_is_minus_potential_gradient(self, rng):
        # d/dt of the split energy vanishes along the field
        mp = MassParams(1.0, 0.6, 1.4)
        js = random_jacobi_state(rng)
        f = vector_field(js, mp)
        g1, g2 = perturbation_gradients(js, mp)
        dd1 = f[6:9]
        dd2 = f[9:12]
        # alpha_i * ddot_xi_i + beta_i xi_i / |xi_i|^3 + g_xi_i = 0
        res1 = mp.alpha1 * dd1 + mp.beta1 * js.xi1 / js.r**3 + g1
        res2 = mp.alpha2 * dd2 + mp.beta2 * js.xi2 / js.rho**3 + g2
        assert np.abs(res1).max() < 1e-12
        assert np.abs(res2).max() < 1e-12
