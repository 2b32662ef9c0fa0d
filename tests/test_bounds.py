"""The constant chain: splitting threshold, region bounds, deviation and
strip constants, the final threshold, and the monotonicity-method comparison."""

import math
from typing import Callable

import numpy as np
import pytest

from lunarbound import bounds as bd
from lunarbound import kepler as kp
from lunarbound.core import JacobiState, MassParams, angular_momentum, energy_split, moment_of_inertia, perturbation, perturbation_gradients
from lunarbound.bounds import (
    ChainOverflowError,
    NoSplittingError,
    compute_chain,
    deviation_constants,
    euler_configuration,
    euler_potential_saddle,
    i0,
    i_star,
    i_star_star,
    marchal_comparison,
    marchal_phi,
    region_constants,
    strip_and_main,
)
from lunarbound.harness import APPENDIX_H, APPENDIX_J, APPENDIX_MASSES


class TestEulerConfiguration:
    def test_equal_masses_closed_form(self, mp_equal):
        # symmetric: positions +-d, 0 with (2/3) d^2 = 1
        ec = euler_configuration(mp_equal, 2)
        expected = 5.0 / (18.0 * math.sqrt(1.5))
        assert ec.u_hat == pytest.approx(expected, rel=1e-14)
        d = math.sqrt(1.5)
        assert sorted(np.round(ec.positions, 12)) == pytest.approx([-d, 0.0, d], abs=1e-12)

    def test_equal_masses_all_orderings_agree(self, mp_equal):
        vals = [euler_configuration(mp_equal, k).u_hat for k in (1, 2, 3)]
        assert max(vals) - min(vals) < 1e-14

    def test_residual_random_masses(self, rng):
        for _ in range(15):
            mp = MassParams(*(rng.uniform(0.2, 3.0, size=3)))
            for k in (1, 2, 3):
                ec = euler_configuration(mp, k)
                assert ec.residual <= 1e-12
                i_val = sum(m * p * p for m, p in zip(mp.masses(), ec.positions))
                assert i_val == pytest.approx(1.0, rel=1e-12)


class TestIStar:
    def test_appendix_value(self, mp_equal):
        assert i_star(mp_equal, APPENDIX_H, APPENDIX_J) == pytest.approx(32.0 / 27.0, abs=1e-9)

    def test_zero_momentum_value(self, mp_equal):
        assert i_star(mp_equal, APPENDIX_H, 0.0) == pytest.approx(50.0 / 27.0, rel=1e-12)

    def test_monotone_decreasing_in_J(self, mp_equal):
        u_hat = euler_potential_saddle(mp_equal)
        J_max = u_hat / math.sqrt(2.0 * abs(APPENDIX_H))
        vals = [i_star(mp_equal, APPENDIX_H, f * J_max) for f in (0.0, 0.3, 0.6, 0.9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_infeasible_levels(self, mp_equal):
        u_hat = euler_potential_saddle(mp_equal)
        J_max = u_hat / math.sqrt(2.0 * abs(APPENDIX_H))
        with pytest.raises(NoSplittingError):
            i_star(mp_equal, APPENDIX_H, 1.01 * J_max)

    def test_requires_negative_energy(self, mp_equal):
        with pytest.raises(ValueError):
            i_star(mp_equal, 0.1, 0.0)


class TestRegionConstants:
    def test_appendix_values(self, mp_equal):
        rc = region_constants(mp_equal, APPENDIX_H, APPENDIX_J)
        assert rc.c_r == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert rc.c_j2 == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-13)
        # Taylor constants at sigma = 1/2
        base = mp_equal.m3 * mp_equal.alpha1
        assert rc.c_g == pytest.approx(16.0 * base)
        assert rc.c_g2 == pytest.approx(192.0 * base)

    def test_rho_min_budget(self, mp_equal):
        rc = region_constants(mp_equal, APPENDIX_H, APPENDIX_J)
        lhs = mp_equal.beta2 / rc.rho_min + rc.c_g * rc.c_r**2 / rc.rho_min**3
        assert lhs <= 0.5 * abs(APPENDIX_H) * (1 + 1e-12)

    def test_enforced_threshold_orders(self, mp_equal):
        rc = region_constants(mp_equal, APPENDIX_H, APPENDIX_J)
        a1, a2, s = mp_equal.alpha1, mp_equal.alpha2, rc.sigma
        assert rc.i_star_eff >= rc.i_star
        assert rc.i_star_eff >= a1 * rc.c_r**2 + a2 * rc.rho_min**2
        assert rc.i_star_eff >= a1 * rc.c_r**2 + a2 * (rc.c_r / s) ** 2
        assert rc.i_star_eff >= (a1 * s**2 + a2) * rc.rho_min**2

    def test_geometric_bound_sampling(self, mp_equal, rng):
        # positions-only sweep: the coupling bounds under r <= sigma rho
        rc = region_constants(mp_equal, APPENDIX_H, APPENDIX_J)
        n = 20_000
        rho = rc.rho_min * np.exp(rng.uniform(0.0, 6.0, size=n))
        frac = rng.uniform(0.01, 1.0, size=n)
        u2 = rng.normal(size=(n, 3))
        u2 /= np.linalg.norm(u2, axis=1)[:, None]
        u1 = rng.normal(size=(n, 3))
        u1 /= np.linalg.norm(u1, axis=1)[:, None]
        viol = 0
        for i in range(n):
            r = frac[i] * rc.sigma * rho[i]
            js = JacobiState(xi1=r * u1[i], dxi1=[0, 0, 0], xi2=rho[i] * u2[i], dxi2=[0, 0, 0])
            g = abs(perturbation(js, mp_equal))
            _, g2 = perturbation_gradients(js, mp_equal)
            if g > rc.c_g * r**2 / rho[i] ** 3:
                viol += 1
            if np.linalg.norm(g2) > rc.c_g2 * r**2 / rho[i] ** 4:
                viol += 1
        assert viol == 0


class TestIStarStar:
    def test_formula_degenerate(self, mp_equal):
        rc = region_constants(mp_equal, APPENDIX_H, APPENDIX_J)
        rc0 = rc.__class__(**{**rc.__dict__, "c_j2": 0.0})
        assert i_star_star(rc0, mp_equal) == pytest.approx(
            max(rc.i_star, mp_equal.alpha1 * rc.c_r**2)
        )

    def test_monotone_in_c_j2(self, mp_equal):
        rc = region_constants(mp_equal, APPENDIX_H, APPENDIX_J)
        vals = []
        for cj in (0.5, 1.0, 2.0, 4.0):
            rcx = rc.__class__(**{**rc.__dict__, "c_j2": cj})
            vals.append(i_star_star(rcx, mp_equal))
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_appendix_below_I_M(self, appendix_chain):
        assert appendix_chain.i_star2 < appendix_chain.marchal.I_M

    def test_osculating_fall_property(self, appendix_chain, rng):
        # orbits with c <= c_J2 started above I** dip below it by pericenter
        bs = appendix_chain
        mp = bs.mp
        for _ in range(200):
            e = rng.uniform(0.0, 0.95)
            c = rng.uniform(0.0, bs.c_j2)
            q = c * c / (mp.M * (1 + e))
            I_pc_max = mp.alpha1 * bs.c_r**2 + mp.alpha2 * q**2
            assert I_pc_max <= bs.i_star2 * (1 + 1e-12)


class TestDeviationConstants:
    def test_b1_zero_degenerate(self, mp_equal):
        rc = region_constants(mp_equal, APPENDIX_H, APPENDIX_J)
        dc = deviation_constants(rc, mp_equal, B1=0.0)
        assert dc.b == 0.0
        assert dc.a == pytest.approx(dc.A)
        assert dc.A1 == pytest.approx(3.0 * dc.A / mp_equal.M)

    def test_default_b1(self, mp_equal):
        rc = region_constants(mp_equal, APPENDIX_H, APPENDIX_J)
        dc = deviation_constants(rc, mp_equal)
        assert dc.B1 == pytest.approx(2.0**1.5 * math.pi / math.sqrt(mp_equal.M), rel=1e-15)

    def test_a_is_b_plus_A(self, mp_equal):
        rc = region_constants(mp_equal, APPENDIX_H, APPENDIX_J)
        dc = deviation_constants(rc, mp_equal)
        assert dc.a == pytest.approx(dc.b + dc.A, rel=1e-15)
        assert dc.A == pytest.approx(rc.c_g2 * rc.c_r**2 / mp_equal.alpha2, rel=1e-15)

    def test_A1_increasing_in_B1(self, mp_equal):
        rc = region_constants(mp_equal, APPENDIX_H, APPENDIX_J)
        vals = [deviation_constants(rc, mp_equal, B1=b).A1 for b in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_appendix_regression(self, appendix_chain):
        # frozen values computed by this chain at the reference levels
        bs = appendix_chain
        assert bs.A == pytest.approx(85.33333333333333, rel=1e-12)
        assert bs.B1 == pytest.approx(8.885765876316732, rel=1e-12)
        assert bs.b == pytest.approx(578607.292654224, rel=1e-9)
        assert bs.a == pytest.approx(578692.6259875573, rel=1e-9)
        assert bs.A1 == pytest.approx(6.267157750544582e22, rel=1e-9)
        assert bs.R_bar == pytest.approx(17.281577670534876, rel=1e-12)


class TestStripsAndMain:
    def test_orderings(self, mp_equal):
        rc = region_constants(mp_equal, APPENDIX_H, APPENDIX_J)
        dc = deviation_constants(rc, mp_equal)
        eps = np.finfo(float).eps
        for lam in (1e-4, 0.1, 0.5, 0.99):
            sc = strip_and_main(rc, dc, mp_equal, lam)
            assert sc.R_bar_lambda > sc.R
            # R_lambda exceeds R_bar_lambda by lambda' exactly; at the huge
            # magnitudes the chain produces, the increment can fall below one
            # ulp, so strictness is asserted only where representable
            assert sc.R_lambda == sc.R_bar_lambda + sc.lambda_prime
            if sc.lambda_prime > 4 * eps * sc.R_bar_lambda:
                assert sc.R_lambda > sc.R_bar_lambda
            assert sc.R >= max(dc.R_bar, 4 * mp_equal.alpha1 * rc.c_r**2)

    def test_strip_growth(self, appendix_chain):
        # widths grow linearly in s; use s steps large enough to register
        # against the ladder's base magnitude
        bs = appendix_chain
        base = bs.R_bar_lambda
        widths = []
        for s in (0.0, 0.5 * base, 2.0 * base, 10.0 * base):
            I_s, I_plus = bs.strip(s)
            widths.append(I_plus - I_s)
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_strip_cover(self, appendix_chain):
        # the strips [I_s + lambda', I_s^+] cover [R_lambda, inf)
        bs = appendix_chain
        covered_to = bs.R_lambda
        assert bs.R_bar_lambda + bs.lambda_prime <= bs.R_lambda * (1 + 1e-15)
        for s in np.linspace(0.0, 3.0 * bs.R_bar_lambda, 2000):
            I_s, I_plus = bs.strip(s)
            lo = I_s + bs.lambda_prime
            if lo <= covered_to * (1 + 1e-12):
                covered_to = max(covered_to, I_plus)
        assert covered_to >= 4.0 * bs.R_lambda

    def test_strip_exit_inequality_at_scale(self, appendix_chain):
        # I_bar + 2 alpha2 A1 + lambda < I_bar^+ holds at the certified level
        bs = appendix_chain
        mp = bs.mp
        I_bar = bs.R_bar_lambda
        assert I_bar + 2 * mp.alpha2 * bs.A1 + bs.lam < bs.i_plus(I_bar)

    def test_epsilon_proviso(self, appendix_chain):
        bs = appendix_chain
        for I_bar in (bs.R_bar, 2 * bs.R_bar, bs.R_bar_lambda):
            assert bs.epsilon(I_bar) <= 1.0

    def test_level_helpers_use_far_body_labeling(self):
        # the constants of far body 1 come from the relabeled masses
        # (2, 3, 1); rho_bar, epsilon and i_plus must use the same labeling
        mp = MassParams(1.0, 2.0, 3.0)
        bs = compute_chain(mp, -0.5, 0.2, far_body=1)
        level = 10.0 * bs.R
        assert bs.rho_bar(level) == pytest.approx(411.13001207219315, rel=1e-9)
        assert bs.epsilon(level) == 1.0 / bs.rho_bar(level)
        mpk = MassParams(2.0, 3.0, 1.0)
        assert bs.i_plus(level) == 4.0 * (level - mpk.alpha1 * bs.c_r**2)
        # far body 3 is the identity labeling
        bs3 = compute_chain(mp, -0.5, 0.2)
        level3 = 10.0 * bs3.R
        assert bs3.rho_bar(level3) == math.sqrt((level3 - mp.alpha1 * bs3.c_r**2) / mp.alpha2)

    @pytest.mark.parametrize(
        "masses, H, J, far_body, B1, interior",
        [
            (APPENDIX_MASSES, APPENDIX_H, APPENDIX_J, 3, None, False),
            # lam* = lam_L, where K + C/lam meets L + lam
            ((0.2914272686368355, 6.910083170235628, 0.026493682808177883),
             -23.569182378184216, 0.11811539905572088, 2, None, True),
            # lam* = C/(R - K), where K + C/lam meets R
            ((0.018690343227690694, 0.4951791224941443, 6.651005092898708),
             -49.75708556162991, 0.005406138754664914, 3, None, True),
            ((1.0, 1.0, 1.0), -50.0, 0.0, 3, 1.0, True),
            # C = 5.8e307 is finite but (L - K)^2 is not: the textbook root
            # formula gives lam_L = 0 here
            ((1.0, 1.0, 3.0), -0.5, 0.0, 3, 77.2, False),
        ],
    )
    def test_lambda_star_is_the_minimum(self, masses, H, J, far_body, B1, interior, monkeypatch):
        calls = []
        monkeypatch.setattr(bd, "strip_and_main", lambda *a, **kw: calls.append(1) or strip_and_main(*a, **kw))
        mp = MassParams(*masses)
        bs = compute_chain(mp, H, J, far_body=far_body, B1=B1)
        assert len(calls) == 1
        assert (bs.lam < 1.0 - 1e-9) == interior
        if not interior:
            assert bs.lam == 1.0 - 1e-9
        mpk = mp.relabeled(far_body)
        rc = region_constants(mpk, H, J)
        dc = deviation_constants(rc, mpk, B1=B1)
        i2 = i_star_star(rc, mpk)

        def r_lambda(lam):
            return strip_and_main(rc, dc, mpk, lam, i_star2=i2).R_lambda

        for lam in np.logspace(-6.0, math.log10(1.0 - 1e-9), 2001).tolist():
            assert bs.i0 <= r_lambda(lam), lam
        assert bs.i0 <= r_lambda(bs.lam * (1.0 - 1e-9))
        if interior:
            assert bs.i0 <= r_lambda(bs.lam * (1.0 + 1e-9))

    def test_strip_ceiling_exceeds_floor(self, appendix_chain):
        bs = appendix_chain
        mp = bs.mp
        base = 4.0 * mp.alpha1 * bs.c_r**2
        for I_bar in (base, 2 * base, bs.R, bs.R_bar_lambda):
            assert bs.i_plus(I_bar) > I_bar


class TestI0:
    def test_appendix_chain_ordering(self, appendix_i0):
        I0_val, bs = appendix_i0
        assert math.isfinite(I0_val)
        assert bs.i_star == pytest.approx(32.0 / 27.0, abs=1e-9)
        assert bs.i_star < bs.i_star2 < bs.marchal.I_M < I0_val

    def test_appendix_i0_regression(self, appendix_i0):
        I0_val, _ = appendix_i0
        assert I0_val == pytest.approx(1.9396180893574466e44, rel=1e-6)

    def test_deterministic(self, mp_equal):
        a = compute_chain(mp_equal, APPENDIX_H, APPENDIX_J)
        b = compute_chain(mp_equal, APPENDIX_H, APPENDIX_J)
        assert a.to_dict() == b.to_dict()

    def test_equal_masses_far_body_symmetric(self, mp_equal, appendix_i0):
        I0_val, bs = appendix_i0
        for k in (1, 2):
            bsk = compute_chain(mp_equal, APPENDIX_H, APPENDIX_J, far_body=k)
            assert bsk.i0 == pytest.approx(bs.i0, rel=1e-12)

    # a numpy-float level overflows quietly too, with no RuntimeWarning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("H", [-0.1, np.float64(-0.1)], ids=["float", "float64"])
    @pytest.mark.parametrize(
        "masses, name",
        [
            # exp(sqrt(2M + 3 c_J2^2) B1) = exp(1136) in A1
            ((3.0, 3.0, 0.4), "A1"),
            # A1 = 7.3e277 is finite, alpha2^2 A1^2/lambda is not
            ((2.9, 1.7, 0.4), "R_lambda"),
        ],
    )
    def test_overflow_is_named(self, masses, name, H):
        with pytest.raises(ChainOverflowError) as info:
            compute_chain(MassParams(*masses), H, 0.3)
        assert info.value.name == name
        assert str(info.value).startswith(f"{name} overflows")

    def test_monotone_in_J(self, mp_equal):
        u_hat = euler_potential_saddle(mp_equal)
        J_max = u_hat / math.sqrt(2.0 * abs(APPENDIX_H))
        vals = [i0(mp_equal, APPENDIX_H, f * J_max)[0] for f in (0.2, 0.5, 0.8)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_covariant_subchain_under_similarity(self, mp_equal):
        # masses x k and lengths x k leave the G = 1 dynamics similar with
        # H x k, J x k^2, times x k, and inertia x k^3.  Every geometric
        # constant of the chain follows that scaling exactly; the deviation
        # constants beyond this point mix powers through the eps <= 1
        # normalization and are deliberately not covariant.
        k = 2.3
        H1, J1 = APPENDIX_H, APPENDIX_J
        mp2 = MassParams(*(k * m for m in mp_equal.masses()))
        H2, J2 = k * H1, k * k * J1
        rc1 = region_constants(mp_equal, H1, J1)
        rc2 = region_constants(mp2, H2, J2)
        assert rc2.c_r == pytest.approx(k * rc1.c_r, rel=1e-12)
        assert rc2.c_j2**2 / mp2.M == pytest.approx(k * rc1.c_j2**2 / mp_equal.M, rel=1e-12)
        assert rc2.rho_min == pytest.approx(k * rc1.rho_min, rel=1e-12)
        assert rc2.i_star == pytest.approx(k**3 * rc1.i_star, rel=1e-12)
        assert rc2.i_star_eff == pytest.approx(k**3 * rc1.i_star_eff, rel=1e-12)
        assert i_star_star(rc2, mp2) == pytest.approx(k**3 * i_star_star(rc1, mp_equal), rel=1e-12)
        mc1 = marchal_comparison(rc1, mp_equal)
        mc2 = marchal_comparison(rc2, mp2)
        assert mc2.delta == pytest.approx(mc1.delta, rel=1e-10)
        assert mc2.I_M == pytest.approx(k**3 * mc1.I_M, rel=1e-9)
        # the final threshold stays a valid bound but grows super-covariantly
        I0_1, _ = i0(mp_equal, H1, J1)
        I0_2, _ = i0(mp2, H2, J2)
        assert I0_2 >= k**3 * I0_1 * (1 - 1e-9)


def _golden_min(f: Callable[[float], float], lo: float, hi: float, rtol: float = 1e-6):
    """Golden-section minimizer (deterministic, derivative-free)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rtol * max(abs(a), abs(b), 1e-12):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = c if fc <= fd else d
    return x, min(fc, fd)


def _grid_delta(mp, lam_max, grid=512):
    """The grid estimate of min phi that the branch-and-bound replaced: a
    grid x grid sweep plus golden refinement along each axis.  It is no
    lower bound; the tests use it as a reference value."""
    lams = np.linspace(0.0, lam_max, grid)
    gammas = np.linspace(0.0, math.pi, grid)
    vals = marchal_phi(mp, lams[:, None], gammas[None, :])
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    dl, dg = lams[1] - lams[0], gammas[1] - gammas[0]
    lam_best, gam_best = lams[i], gammas[j]
    for _ in range(2):
        lam_best, _ = _golden_min(
            lambda L: float(marchal_phi(mp, L, gam_best)),
            max(0.0, lam_best - dl), min(lam_max, lam_best + dl), rtol=1e-12,
        )
        gam_best, _ = _golden_min(
            lambda G: float(marchal_phi(mp, lam_best, G)),
            max(0.0, gam_best - dg), min(math.pi, gam_best + dg), rtol=1e-12,
        )
    return min(float(vals[i, j]), float(marchal_phi(mp, lam_best, gam_best)))


def _phi_c(ctx, mu1, mu2, lam, c):
    """phi(lam, c = cos gamma) in an mpmath context: the independent oracle."""
    m1, m2 = ctx.mpf(mu1), ctx.mpf(mu2)
    t1 = m1 * (1 + m2 * c * lam) / (1 + 2 * m2 * c * lam + (m2 * lam) ** 2) ** 1.5
    t2 = m2 * (1 - m1 * c * lam) / (1 - 2 * m1 * c * lam + (m1 * lam) ** 2) ** 1.5
    return t1 + t2


class TestMarchalComparison:
    def test_phi_at_zero(self, mp_equal, rng):
        for _ in range(10):
            mp = MassParams(*(rng.uniform(0.2, 3.0, size=3)))
            gamma = rng.uniform(0, math.pi)
            assert marchal_phi(mp, 0.0, gamma) == pytest.approx(1.0, rel=1e-14)

    def test_equal_mass_right_angle(self, mp_equal):
        for lam in (0.1, 0.3, 0.5):
            expected = (1 + lam * lam / 4.0) ** -1.5
            assert marchal_phi(mp_equal, lam, math.pi / 2) == pytest.approx(expected, rel=1e-14)
            assert marchal_phi(mp_equal, lam, math.pi / 2) < 1.0

    def test_delta_below_one(self, appendix_chain):
        mc = appendix_chain.marchal
        assert 0.0 < mc.delta < 1.0

    def test_comparison_chain(self, appendix_chain):
        # pericenter cap c_J2^2/M < rho_M, hence I** < I_M
        bs = appendix_chain
        mp = bs.mp
        peri_cap = kp.pericenter_distance_bound(bs.c_j2, mp.M)
        assert peri_cap < bs.marchal.rho_M
        assert bs.i_star2 < bs.marchal.I_M

    def test_random_grid_ordering(self):
        # the appendix ordering on a grid of mass triples at two energies,
        # with |J| at 95% of the splitting-feasibility limit; the certified
        # delta sits at or below the grid estimate it replaced
        rng = np.random.default_rng(31415)
        masses = rng.uniform(1.0 / 3.0, 3.0, size=(125, 3))
        checked = 0
        for m in masses:
            mp = MassParams(*m)
            u_hat = euler_potential_saddle(mp)
            for H in (-0.1, -0.5):
                J = 0.95 * u_hat / math.sqrt(2.0 * abs(H))
                rc = region_constants(mp, H, J)
                i2 = i_star_star(rc, mp)
                mc = marchal_comparison(rc, mp)
                assert i2 < mc.I_M, f"ordering failed for m={m}, H={H}"
                assert mc.delta <= _grid_delta(mp, mc.lam_max), f"m={m}, H={H}"
                assert mc.delta <= mc.delta_upper <= mc.delta + bd.DELTA_TOL
                checked += 1
        assert checked == 250

    def test_delta_below_fine_grid_with_edge(self, appendix_chain, mp_equal):
        # the minimum lies on the edge lam = lam_max at gamma = pi/2; the
        # grid includes that point
        mc = appendix_chain.marchal
        lams = np.linspace(0.0, mc.lam_max, 1201)
        gammas = np.linspace(0.0, math.pi, 1201)
        vals = marchal_phi(mp_equal, lams[:, None], gammas[None, :])
        assert mc.delta <= vals.min()

    def test_delta_enclosure_width(self, appendix_chain):
        mc = appendix_chain.marchal
        assert mc.delta <= mc.delta_upper <= mc.delta + bd.DELTA_TOL
        assert 0 < mc.boxes < 1000

    @pytest.mark.parametrize("masses, H", [(APPENDIX_MASSES, APPENDIX_H), ((0.6, 1.9, 1.1), -0.5)])
    def test_mpmath_encloses_final_boxes(self, masses, H):
        iv = pytest.importorskip("mpmath").iv
        mp = MassParams(*masses)
        rc = region_constants(mp, H, 0.95 * euler_potential_saddle(mp) / math.sqrt(2.0 * abs(H)))
        mc = marchal_comparison(rc, mp)
        mu1, mu2 = mp.mu1, mp.mu2
        lower, upper, boxes, open_boxes = bd._marchal_bnb(
            mu1, mu2, math.nextafter(mc.lam_max, math.inf))
        assert (lower, upper, boxes) == (mc.delta, mc.delta_upper, mc.boxes)
        assert min(b[0] for b in open_boxes) == lower
        dps = iv.dps
        iv.dps = 30
        try:
            for bound, _, l0, l1, c0, c1, _ in sorted(open_boxes)[:12]:
                f0, f1 = bd._phi_box(mu1, mu2, l0, l1, c0, c1)[:2]
                assert f0 <= bound
                for lam in (l0, 0.5 * (l0 + l1), l1):
                    for c in (c0, 0.5 * (c0 + c1), c1):
                        ref = _phi_c(iv, mu1, mu2, iv.mpf(lam), iv.mpf(c))
                        assert lower <= bound <= ref.a and ref.b <= f1
                whole = _phi_c(iv, mu1, mu2, iv.mpf([l0, l1]), iv.mpf([c0, c1]))
                assert max(f0, whole.a) <= min(f1, whole.b)
        finally:
            iv.dps = dps

    def test_gradient_enclosures_hold(self):
        # the monotonicity test drops boxes on the sign of these enclosures
        mpm = pytest.importorskip("mpmath")
        rng = np.random.default_rng(808)
        with mpm.workdps(30):
            for _ in range(40):
                mu1 = float(rng.uniform(0.1, 0.9))
                mu2 = 1.0 - mu1
                l0, l1 = sorted(rng.uniform(0.0, 0.5, size=2))
                c0, c1 = sorted(rng.uniform(-1.0, 1.0, size=2))
                f0, f1, gl0, gl1, gc0, gc1 = bd._phi_box(mu1, mu2, l0, l1, c0, c1)
                for lam, c in zip(rng.uniform(l0, l1, size=3), rng.uniform(c0, c1, size=3)):
                    lam, c = mpm.mpf(float(lam)), mpm.mpf(float(c))
                    assert f0 <= _phi_c(mpm, mu1, mu2, lam, c) <= f1
                    assert gl0 <= mpm.diff(lambda x: _phi_c(mpm, mu1, mu2, x, c), lam) <= gl1
                    assert gc0 <= mpm.diff(lambda x: _phi_c(mpm, mu1, mu2, lam, x), c) <= gc1

    def test_point_enclosures_round_outward(self):
        # at a point the float result misses phi by about an ulp either
        # way; only outward rounding keeps phi inside the enclosure
        mpm = pytest.importorskip("mpmath")
        rng = np.random.default_rng(909)
        with mpm.workdps(40):
            for _ in range(200):
                mu1 = float(rng.uniform(0.1, 0.9))
                mu2 = float(rng.uniform(0.1, 0.9))
                lam, c = float(rng.uniform(0.0, 0.5)), float(rng.uniform(-1.0, 1.0))
                f0, f1 = bd._phi_box(mu1, mu2, lam, lam, c, c)[:2]
                assert f0 < f1
                assert f0 <= _phi_c(mpm, mu1, mu2, mpm.mpf(lam), mpm.mpf(c)) <= f1
