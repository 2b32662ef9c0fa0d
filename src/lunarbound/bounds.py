"""The explicit constant chain.

Starting from masses, an energy level H < 0 and an angular momentum level J,
this module derives, in order: the splitting threshold I* above which the
far-body regions separate, the region bounds (c_r, c_J2, c_g, c_g2), the
osculating-pericenter threshold I**, the deviation constants (A, a, b, A1,
B1, R_bar), the strip constants (R, R_bar_lambda, lambda', R_lambda), the
final threshold I0, and the comparison constants (phi, delta, rho_M, I_M)
of Marchal's monotonicity method.

Every constant has an elementary derivation recorded in its docstring; the
weakest links (the region bounds, which the literature usually leaves
implicit) are validated by large sampling sweeps in the test suite.

The chain is deterministic: identical inputs give bit-identical outputs.
Its two stages that read the masses alone, the collinear configurations and
Marchal's delta, are memoized on the exact floats they read, so a chain
served from the memo is the chain computed afresh, bit for bit.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, fields
from typing import Optional

from .core import MassParams
from .roots import brentq

__all__ = [
    "NoSplittingError",
    "ChainOverflowError",
    "EulerConfig",
    "euler_configuration",
    "euler_potential_saddle",
    "i_star",
    "RegionConstants",
    "region_constants",
    "i_star_star",
    "DeviationConstants",
    "deviation_constants",
    "StripConstants",
    "strip_and_main",
    "MarchalComparison",
    "marchal_comparison",
    "BoundSet",
    "compute_chain",
    "i0",
]

# the largest separation ratio r/rho the region constants are derived for
DEFAULT_SIGMA = 0.5

# Reference values quoted for comparison in reports; annotations only, the
# sharper analyses behind them are not reproduced here.
MARCHAL_EQUAL_MASS_I_M = (1.0 / 3.0) * 2.709629**2
HENON_BROUCKE_MIN_I = 2.402035


class NoSplittingError(ValueError):
    """At these (H, J) levels no threshold separates the far-body regions."""


class ChainOverflowError(OverflowError):
    """A constant of the chain exceeds the double range at these levels.

    Carries the constant's name; no bound is reported in place of it.
    """

    def __init__(self, name: str, detail: str):
        super().__init__(f"{name} overflows a double: {detail}")
        self.name = name


def _in_double_range(stage):
    """Decorator: a division by zero or a float overflow inside the stage
    is raised as ChainOverflowError naming the stage.  Extreme masses or
    levels push an intermediate (rho^3, c_J2^4, a position difference) past
    the double range; no constant is reported in place of it."""

    def wrap(f):
        @functools.wraps(f)
        def checked(*args, **kwargs):
            try:
                return f(*args, **kwargs)
            except ChainOverflowError:
                raise
            except ZeroDivisionError as exc:
                raise ChainOverflowError(stage, "a divisor rounds to zero") from exc
            except OverflowError as exc:
                raise ChainOverflowError(stage, "an intermediate exceeds the double range") from exc
        return checked
    return wrap


# ---------------------------------------------------------------------------
# Collinear central configuration

@dataclass(frozen=True)
class EulerConfig:
    """Collinear central configuration normalized to I = 1.

    positions are the signed coordinates of the three bodies along the line
    (center of mass at the origin), middle is the index (1-based) of the mass
    between the other two, and u_hat the potential value at the
    configuration.
    """

    middle: int
    positions: tuple
    u_hat: float


def _euler_quintic_root(mA: float, mB: float, mC: float) -> float:
    """Positive root x of the collinear central configuration quintic for
    masses (mA, mB, mC) in line order, x = BC/AB.

    The root is bracketed in [1e-12, hi], hi doubled from 1 until p(hi) > 0
    or hi**5 overflows.  Where mA dwarfs mB + mC it lies at or below 1e-12
    (p(1e-12) >= 0); since p(0) = -(mB + mC) < 0, halving from 1e-12 then
    brackets it within a factor 2, and it is solved to relative precision.
    """

    def p(x):
        return (
            (mA + mB) * x**5
            + (3 * mA + 2 * mB) * x**4
            + (3 * mA + mB) * x**3
            - (mB + 3 * mC) * x**2
            - (2 * mB + 3 * mC) * x
            - (mB + mC)
        )

    rtol = 8.881784197001252e-16
    lo = hi = 1e-12
    if p(lo) < 0.0:
        hi = 1.0
        while not p(hi) > 0.0:
            # ends past the root, or where hi**5 raises OverflowError
            hi *= 2.0
        return brentq(p, lo, hi, xtol=1e-15, rtol=rtol, maxiter=200)
    while p(lo) >= 0.0:
        lo, hi = 0.5 * lo, lo
    return brentq(p, lo, hi, xtol=math.ulp(0.0), rtol=rtol, maxiter=200)


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once: Dekker's two-product splits a * b into the
    float product and its exact error, and math.fsum rounds the exact sum
    of the three."""
    p = a * b
    t = 134217729.0 * a  # 2^27 + 1: the Veltkamp split into 26-bit halves
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = 134217729.0 * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return math.fsum((p, err, c))


def _dot3(a, b) -> float:
    """The 3-term dot product as the fused chain fma(a2, b2, fma(a1, b1,
    a0 * b0)), the evaluation the reported I* was first computed with."""
    return _fma(a[2], b[2], _fma(a[1], b[1], a[0] * b[0]))


@functools.lru_cache(maxsize=32)
@_in_double_range("euler_configuration")
def _collinear_line(mA: float, mB: float, mC: float):
    """Line positions (pA, pB, pC) and potential value u_hat of the
    collinear central configuration of masses (mA, mB, mC) in line order,
    centered and normalized to I = 1.

    The quintic has a unique positive root, so the root-finder cannot
    honestly fail.  The two 3-term dot products are fused chains (_dot3),
    whose rounding the reported I* carries to the last bit.  Memoized on the
    exact masses: each ordered triple is solved once per process while it
    stays among the 32 most recent.
    """
    x = _euler_quintic_root(mA, mB, mC)
    m_ord = (mA, mB, mC)
    com = _dot3(m_ord, (0.0, 1.0, 1.0 + x)) / (mA + mB + mC)
    p = (0.0 - com, 1.0 - com, (1.0 + x) - com)
    scale = 1.0 / math.sqrt(_dot3(m_ord, [v * v for v in p]))
    pA, pB, pC = (v * scale for v in p)

    r_ab = abs(pB - pA)
    r_bc = abs(pC - pB)
    r_ac = abs(pC - pA)
    u_hat = mA * mB / r_ab + mB * mC / r_bc + mA * mC / r_ac
    return (pA, pB, pC), u_hat


def euler_configuration(mp: MassParams, middle: int) -> EulerConfig:
    """Collinear central configuration with the given mass in the middle:
    _collinear_line's positions, handed to the bodies in line order."""
    if middle not in (1, 2, 3):
        raise ValueError("middle must be 1, 2 or 3")
    masses = mp.masses()
    outer = [i for i in range(3) if i != middle - 1]
    order = [outer[0], middle - 1, outer[1]]
    line, u_hat = _collinear_line(*(masses[i] for i in order))
    positions = [0.0, 0.0, 0.0]
    for body, pos in zip(order, line):
        positions[body] = pos
    return EulerConfig(middle=middle, positions=tuple(positions), u_hat=u_hat)


def euler_potential_saddle(mp: MassParams) -> float:
    """Largest potential value over the three collinear central
    configurations on I = 1 (the binding bottleneck for the splitting)."""
    return max(euler_configuration(mp, k).u_hat for k in (1, 2, 3))


def i_star(mp: MassParams, H: float, J: float) -> float:
    """Splitting threshold: apocenter of the collinear homographic motion.

    sqrt(I*) is the larger root of H = J^2/(2I) - U_hat/sqrt(I), with U_hat
    the saddle potential value.  Above this threshold the admissible region
    splits into three far-body components.  Raises NoSplittingError when the
    discriminant is negative (J too large for this derivation at this H).
    """
    if not H < 0.0:
        raise ValueError("H must be negative")
    u_hat = euler_potential_saddle(mp)
    disc = u_hat * u_hat - 2.0 * abs(H) * J * J
    if disc < 0.0:
        raise NoSplittingError(
            f"no splitting at these levels: U^2 = {u_hat**2:.6g} < 2|H|J^2 = {2*abs(H)*J*J:.6g}"
        )
    s = (u_hat + math.sqrt(disc)) / (2.0 * abs(H))
    return s * s


# ---------------------------------------------------------------------------
# Region constants

@dataclass(frozen=True)
class RegionConstants:
    """Bounds valid throughout the far-body component above i_star_eff.

    c_r caps the binary separation, c_j2 the outer angular momentum
    (|J2| <= alpha2 c_j2), and c_g / c_g2 are the Taylor-remainder constants
    with |g| <= c_g r^2/rho^3 and |g_xi2| <= c_g2 r^2/rho^4 for r <= sigma rho.
    """

    sigma: float
    c_r: float
    c_j2: float
    c_g: float
    c_g2: float
    rho_min: float
    i_star: float
    i_star_eff: float


def _taylor_constants(mp: MassParams, sigma: float):
    """Remainder constants for the coupling term under r <= sigma rho.

    Second-order Taylor expansion of both 1/|xi2 +- mu_i xi1| terms about
    xi1 = 0: the zeroth and first orders cancel against beta2/rho, and the
    second derivative of y -> 1/|y| (resp. y -> y/|y|^3) is bounded by
    4/|y|^3 (resp. 24/|y|^4) with |y| >= (1 - sigma) rho.
    """
    base = mp.m3 * mp.alpha1
    one = 1.0 - sigma
    c_g = 2.0 * base / one**3
    c_g2 = 12.0 * base / one**4
    return c_g, c_g2


@_in_double_range("region_constants")
def region_constants(mp: MassParams, H: float, J: float) -> RegionConstants:
    """Explicit region bounds, plus the enforced threshold that makes them
    hold pointwise.

    Derivations:
      c_r    = 2 beta1/|H|: with rho >= rho_min the outer and coupling terms
               eat at most |H|/2, so H1 <= H/2 and -beta1/r <= H1 forces it.
      c_j2   = (|J| + 2 beta1 sqrt(alpha1/|H|))/alpha2: |J1| <= sqrt(2
               alpha1 beta1 r) from the same H1 <= H/2 budget, then the
               triangle inequality on J = J1 + J2.
      rho_min: the larger of the root of beta2/rho + c_g c_r^2/rho^3 = |H|/2
               and 2 beta2/((1-sigma)|H|).  The second term is a feasibility
               backstop: any configuration with U >= |H| (necessary at the
               energy level) and rho >= it satisfies m1 m2/r >= |H|/2
               directly, closing the loop in the c_r derivation without
               assuming r <= c_r first.
      i_star_eff: i_star raised until I > i_star_eff (with r <= sigma rho and
               U >= |H|) pins rho >= max(rho_min, c_r/sigma), making all four
               bounds pointwise-checkable.  The raw i_star is kept alongside;
               it is the honest splitting threshold.
    """
    # plain floats, so that the chain overflows to inf without a numpy warning
    H, J = float(H), float(J)
    if not H < 0.0:
        raise ValueError("H must be negative")
    sigma = DEFAULT_SIGMA
    absH = abs(H)
    c_g, c_g2 = _taylor_constants(mp, sigma)
    c_r = 2.0 * mp.beta1 / absH
    c_j2 = (abs(J) + 2.0 * mp.beta1 * math.sqrt(mp.alpha1 / absH)) / mp.alpha2

    def budget(rho):
        return mp.beta2 / rho + c_g * c_r**2 / rho**3 - 0.5 * absH

    lo = mp.beta2 / absH  # budget(lo) >= beta2/lo - |H|/2 = |H|/2 > 0
    hi = 4.0 * mp.beta2 / absH
    while budget(hi) > 0.0:
        hi *= 2.0
    if math.isinf(hi):
        # beta2 or c_g c_r^2 is past the double range, and budget(inf) is NaN
        raise ChainOverflowError("rho_min", "the root of its budget exceeds the double range")
    rho_root = brentq(budget, lo, hi, xtol=1e-300, rtol=8.881784197001252e-16)
    rho_feas = 2.0 * mp.beta2 / ((1.0 - sigma) * absH)
    rho_min = max(rho_root, rho_feas)

    raw = i_star(mp, H, J)
    a1, a2 = mp.alpha1, mp.alpha2
    eff = max(
        raw,
        a1 * c_r**2 + a2 * rho_min**2,
        a1 * c_r**2 + a2 * (c_r / sigma) ** 2,
        (a1 * sigma**2 + a2) * rho_min**2,
    )
    return RegionConstants(
        sigma=sigma,
        c_r=c_r,
        c_j2=c_j2,
        c_g=c_g,
        c_g2=c_g2,
        rho_min=rho_min,
        i_star=raw,
        i_star_eff=eff,
    )


@_in_double_range("i_star_star")
def i_star_star(rc: RegionConstants, mp: MassParams) -> float:
    """Osculating-pericenter threshold max{I*, alpha1 c_r^2 + alpha2 c_J2^4/M^2}.

    Any outer osculating orbit started above it falls below it no later than
    its pericenter passage.  Uses the raw splitting threshold, matching the
    comparison against the monotonicity method: whenever the second branch
    binds, I** < I_M follows from delta < 1 alone.
    """
    return max(rc.i_star, mp.alpha1 * rc.c_r**2 + mp.alpha2 * rc.c_j2**4 / mp.M**2)


# ---------------------------------------------------------------------------
# Deviation constants

@dataclass(frozen=True)
class DeviationConstants:
    """Constants of the osculating-deviation estimate.

    A bounds the outer perturbing acceleration by A eps^4; b bounds the
    outer angular-momentum-squared drift by b eps^(3/2) over the horizon
    B1 eps^(-3/2); a = b + A feeds the comparison equations; A1 eps is the
    resulting radial deviation bound, valid above R_bar.
    """

    A: float
    a: float
    b: float
    A1: float
    B1: float
    R_bar: float


@_in_double_range("deviation_constants")
def deviation_constants(
    rc: RegionConstants, mp: MassParams, B1: Optional[float] = None
) -> DeviationConstants:
    """A = alpha2^-1 c_g2 c_r^2, b = (A B1)^2 + 2 c_J2 A B1, a = b + A,
    A1 = (a/M)(2 + exp(sqrt(2M + 3 c_J2^2) B1)).

    B1 defaults to 2^(3/2) pi / sqrt(M), the value the strip argument needs.
    R_bar = max{I*, alpha1 c_r^2 + max{1, (3 c_J2^2/(2M))^2} alpha2} is the
    level above which the estimate applies (it also pins eps <= 1).
    """
    M = mp.M
    if B1 is None:
        B1 = 2.0**1.5 * math.pi / math.sqrt(M)
    if B1 < 0.0:
        raise ValueError("B1 must be nonnegative")
    A = rc.c_g2 * rc.c_r**2 / mp.alpha2
    b = (A * B1) ** 2 + 2.0 * rc.c_j2 * A * B1
    a = b + A
    k_max = 2.0 * M + 3.0 * rc.c_j2**2
    growth = math.sqrt(k_max) * B1
    try:
        A1 = (a / M) * (2.0 + math.exp(growth))
    except OverflowError:
        A1 = math.inf
    if not math.isfinite(A1):
        raise ChainOverflowError("A1", f"exp(sqrt(2M + 3 c_J2^2) B1) = exp({growth:.6g})")
    R_bar = max(
        rc.i_star_eff,
        mp.alpha1 * rc.c_r**2
        + max(1.0, (3.0 * rc.c_j2**2 / (2.0 * M)) ** 2) * mp.alpha2,
    )
    return DeviationConstants(A=A, a=a, b=b, A1=A1, B1=B1, R_bar=R_bar)


# ---------------------------------------------------------------------------
# Strips and the final threshold

@dataclass(frozen=True)
class StripConstants:
    R: float
    lam: float
    lambda_prime: float
    R_bar_lambda: float
    R_lambda: float


LAMBDA_CAP = 1.0 - 1e-9


def _lambda_star(rc, dc, mp, R):
    """The exact minimizer of R_lambda over lam in (0, LAMBDA_CAP].

    With K = alpha1 c_r^2, C = alpha2^2 A1^2 and L = 2 alpha2 A1 + 4K,
    strip_and_main gives R_lambda(lam) = max(g, h) + 2 alpha2 A1 with
      g(lam) = max(R, L + lam) + lam, rising with slope >= 1, and
      h(lam) = K + C/lam + lam, convex, slope 1 - C/lam^2 < 1, least at
               lam = sqrt(C) = alpha2 A1.
    h - g strictly falls, so R_lambda follows h up to the crossing
    lam_c = min(C/(R - K), lam_L), where K + C/lam meets R or L + lam, and g
    after it.  lam_L = 2C/((L - K) + sqrt((L - K)^2 + 4C)) is the positive
    root of K + C/lam = L + lam (R >= 4K puts R - K > 0).  So R_lambda
    falls until lam* = min(alpha2 A1, lam_c) and rises after it; when lam*
    lies past the cap, R_lambda still falls there and the cap is the
    minimizer.  Any lam > 0 gives a valid I0, so lam* needs no certificate.

    When C overflows, R_lambda is inf at every lam and the cap is returned
    (inf/inf would give a NaN, which min() ignores or keeps by argument
    order); compute_chain then reports the overflow.
    """
    K = mp.alpha1 * rc.c_r**2
    C = mp.alpha2 * (mp.alpha2 * (dc.A1 * dc.A1))
    if not math.isfinite(C):
        return LAMBDA_CAP
    # lam_L = 2q/(1 + sqrt(1 + 4q/d)) with d = L - K and q = C/d <= alpha2 A1/2:
    # no intermediate overflows while C is finite
    d = 2.0 * mp.alpha2 * dc.A1 + 3.0 * K
    q = C / d
    lam_L = 2.0 * q / (1.0 + math.sqrt(1.0 + 4.0 * q / d))
    return min(mp.alpha2 * dc.A1, C / (R - K), lam_L, LAMBDA_CAP)


@_in_double_range("strip_and_main")
def strip_and_main(
    rc: RegionConstants,
    dc: DeviationConstants,
    mp: MassParams,
    lam: Optional[float],
    i_star2: float,
) -> StripConstants:
    """R = max{R_bar, I**, 4 alpha1 c_r^2}, with I** = i_star2 as
    i_star_star gives it; then for the strip parameter
    lam > 0: R_bar_lambda = max{R, alpha1 c_r^2 + alpha2 (alpha2 A1^2/lam),
    2 alpha2 A1 + 4 alpha1 c_r^2 + lam} and R_lambda = R_bar_lambda +
    2 alpha2 A1 + lam.

    Strips [I_s + lambda', I_s^+] with I_s = R_bar_lambda + s and
    I_s^+ = 4(I_s - alpha1 c_r^2) cover [R_lambda, inf); an orbit entering a
    strip is forced below its floor, hence down the ladder.  Where
    alpha2^2 A1^2/lam exceeds the double range, R_bar_lambda and R_lambda
    come out inf; compute_chain reports that as ChainOverflowError.
    lam = None takes the minimizer lam* of R_lambda (see _lambda_star).
    """
    a1, a2 = mp.alpha1, mp.alpha2
    R = max(dc.R_bar, i_star2, 4.0 * a1 * rc.c_r**2)
    if lam is None:
        lam = _lambda_star(rc, dc, mp, R)
        if lam == 0.0:
            raise ChainOverflowError("1/lambda*", "lambda*, the minimizer of R_lambda, underflows "
                                     f"to 0 with alpha2 A1 = {a2 * dc.A1:.6g} and R = {R:.6g}")
    if not lam > 0.0:
        raise ValueError("lambda must be positive")
    lambda_prime = 2.0 * a2 * dc.A1 + lam
    R_bar_lambda = max(
        R,
        a1 * rc.c_r**2 + a2 * (a2 * (dc.A1 * dc.A1) / lam),
        2.0 * a2 * dc.A1 + 4.0 * a1 * rc.c_r**2 + lam,
    )
    R_lambda = R_bar_lambda + lambda_prime
    return StripConstants(
        R=R, lam=lam, lambda_prime=lambda_prime,
        R_bar_lambda=R_bar_lambda, R_lambda=R_lambda,
    )


# ---------------------------------------------------------------------------
# Marchal comparison

# Interval arithmetic on floats: each operation's float result r is stepped
# one ulp outward, nextafter(r, _DN) for a lower end and nextafter(r, _UP)
# for an upper end.  Round-to-nearest misses the exact result by at most half
# an ulp, so the stepped ends enclose it.  math.sqrt is correctly rounded and
# gets the same step; scaling by 2 is exact and gets none.
_DN = -math.inf
_UP = math.inf

DELTA_TOL = 1e-12
_MAX_BOXES = 200_000


@dataclass(frozen=True)
class MarchalComparison:
    """Constants of Marchal's rho-acceleration method, for comparison.

    phi(lam, gamma) with lam = r/rho and gamma the angle between the Jacobi
    vectors is the (normalized) radial attraction factor; its minimum over
    the admissible (lam, gamma) range bounds the attraction from below, and
    delta, a certified lower bound of that minimum, gives
    rho_M = c_J2^2/(M delta) and I_M = alpha1 c_r^2 + alpha2 rho_M^2, above
    which rho must decelerate.  delta_upper is an upper bound of phi at a
    point of [0, lam_edge] x [-1, 1] in (lam, cos gamma), with lam_edge one
    ulp past lam_max, so the minimum over that range lies in
    [delta, delta_upper]; boxes counts the boxes the branch-and-bound
    enclosed.  Since delta < 1, the pericenter route's I**
    sits strictly below I_M.
    """

    delta: float
    delta_upper: float
    boxes: int
    rho_M: float
    I_M: float
    lam_max: float


def _term_value(w, m, l0, l1, c0, c1):
    """Enclosure of one term t = w (1 + a c) D^(-3/2) of phi, with a = m lam
    and D = 1 + 2 a c + a^2, over lam in [l0, l1] (l0 >= 0), c in [c0, c1].

    Returns (t0, t1, a0, a1, ac0, ac1, aa0, aa1, d0, d1, q0, q1): t and the
    enclosures of a, a c, a^2, D and D^(-3/2) it is built from, which
    _term_box reuses for the derivatives.
    """
    nx = math.nextafter
    a0 = max(nx(m * l0, _DN), 0.0)
    a1 = nx(m * l1, _UP)
    ac0 = nx(c0 * (a1 if c0 < 0.0 else a0), _DN)
    ac1 = nx(c1 * (a0 if c1 < 0.0 else a1), _UP)
    aa0 = nx(a0 * a0, _DN)
    aa1 = nx(a1 * a1, _UP)
    u0 = nx(1.0 + ac0, _DN)
    u1 = nx(1.0 + ac1, _UP)
    # D >= (1 - a)^2 > 0 for a < 1, but d0, about 1 - 2 a1 + a0^2 at
    # c0 = -1, reaches 0 on a wide box once m lam_edge >= 1/2
    d0 = nx(nx(u0 + ac0, _DN) + aa0, _DN)
    d1 = nx(nx(u1 + ac1, _UP) + aa1, _UP)
    if not d0 > 0.0:
        raise ValueError(f"D = 1 + 2 a c + a^2 is not enclosed above 0 where a reaches {a1!r}")
    # D^(-3/2) = 1/(D sqrt D) falls as D grows
    q0 = nx(1.0 / nx(d1 * nx(math.sqrt(d1), _UP), _UP), _DN)
    q1 = nx(1.0 / nx(d0 * nx(math.sqrt(d0), _DN), _DN), _UP)
    t0 = nx(nx(w * u0, _DN) * q0, _DN)
    t1 = nx(nx(w * u1, _UP) * q1, _UP)
    return t0, t1, a0, a1, ac0, ac1, aa0, aa1, d0, d1, q0, q1


def _term_box(w, m, l0, l1, c0, c1, s0, s1):
    """_term_value's enclosure of t, and the factors D^(-5/2) P and
    D^(-5/2) Q of its derivatives, dt/dlam = -w m D^(-5/2) P and
    dt/dc = w m lam D^(-5/2) Q, where P = 2c(1 + a^2) + a(3 + c^2) and
    Q = a^2 - a c - 2.  [s0, s1] encloses 3 + c^2.

    Returns (t0, t1, rp0, rp1, rq0, rq1).
    """
    nx = math.nextafter
    t0, t1, a0, a1, ac0, ac1, aa0, aa1, d0, d1, q0, q1 = _term_value(w, m, l0, l1, c0, c1)
    r0 = nx(q0 / d1, _DN)
    r1 = nx(q1 / d0, _UP)
    e0 = nx(1.0 + aa0, _DN)
    e1 = nx(1.0 + aa1, _UP)
    p0 = nx(nx(2.0 * c0 * (e1 if c0 < 0.0 else e0), _DN) + nx(a0 * s0, _DN), _DN)
    p1 = nx(nx(2.0 * c1 * (e0 if c1 < 0.0 else e1), _UP) + nx(a1 * s1, _UP), _UP)
    g0 = nx(nx(aa0 - ac1, _DN) - 2.0, _DN)
    g1 = nx(nx(aa1 - ac0, _UP) - 2.0, _UP)
    return (
        t0, t1,
        nx(p0 * (r1 if p0 < 0.0 else r0), _DN), nx(p1 * (r0 if p1 < 0.0 else r1), _UP),
        nx(g0 * (r1 if g0 < 0.0 else r0), _DN), nx(g1 * (r0 if g1 < 0.0 else r1), _UP),
    )


def _add(x0, x1, y0, y1):
    """Outward-rounded [x0, x1] + [y0, y1]."""
    return math.nextafter(x0 + y0, _DN), math.nextafter(x1 + y1, _UP)


def _phi_point(mu1, mu2, lam, c):
    """Outward-rounded enclosure (f0, f1) of phi at the point (lam, c): the
    value part of _phi_box(mu1, mu2, lam, lam, c, c), bit for bit, without
    its gradient."""
    t0, t1 = _term_value(mu1, mu2, lam, lam, c, c)[:2]
    v0, v1 = _term_value(mu2, mu1, lam, lam, -c, -c)[:2]
    return _add(t0, t1, v0, v1)


def _phi_box(mu1, mu2, l0, l1, c0, c1):
    """Outward-rounded enclosures of phi, dphi/dlam and dphi/dc over the box
    lam in [l0, l1], c = cos(gamma) in [c0, c1], in one pass.

    phi(lam, c) = t(mu1, mu2, c) + t(mu2, mu1, -c) with t as in _term_value.
    Returns (f0, f1, gl0, gl1, gc0, gc1).
    """
    nx = math.nextafter
    if c0 >= 0.0:
        s0, s1 = c0 * c0, c1 * c1
    elif c1 <= 0.0:
        s0, s1 = c1 * c1, c0 * c0
    else:
        s0, s1 = 0.0, max(c0 * c0, c1 * c1)
    s0 = nx(3.0 + nx(s0, _DN), _DN)
    s1 = nx(3.0 + nx(s1, _UP), _UP)
    t0, t1, p0, p1, g0, g1 = _term_box(mu1, mu2, l0, l1, c0, c1, s0, s1)
    v0, v1, P0, P1, G0, G1 = _term_box(mu2, mu1, l0, l1, -c1, -c0, s0, s1)
    # dphi/dlam = -k (p + P) and dphi/dc = k lam (g - G), k = mu1 mu2 > 0
    k0 = nx(mu1 * mu2, _DN)
    k1 = nx(mu1 * mu2, _UP)
    h0 = nx(p0 + P0, _DN)
    h1 = nx(p1 + P1, _UP)
    z0 = nx(k0 * l0, _DN)
    z1 = nx(k1 * l1, _UP)
    y0 = nx(g0 - G1, _DN)
    y1 = nx(g1 - G0, _UP)
    return (
        *_add(t0, t1, v0, v1),
        -nx(h1 * (k1 if h1 > 0.0 else k0), _UP), -nx(h0 * (k0 if h0 > 0.0 else k1), _DN),
        nx(y0 * (z1 if y0 < 0.0 else z0), _DN), nx(y1 * (z0 if y1 < 0.0 else z1), _UP),
    )


def _marchal_bnb(mu1: float, mu2: float, lam_edge: float):
    """Certified enclosure of min phi over lam in [0, lam_edge] x c in [-1, 1]
    by interval branch-and-bound (Moore; Hansen and Walster).

    Each box gets one fused enclosure of phi and its gradient.  Where a
    gradient component keeps one sign the minimum sits on a face of the box:
    a box whose face is interior is dropped, one whose face is a domain edge
    is cut down to it.  Otherwise the box's lower bound is the larger of the
    natural enclosure and the mean-value form about its midpoint, whose
    upper end also lowers the incumbent.  The incumbent starts from
    lam in {0, lam_edge} x c in {-1, 0, 1}.  These probes and the midpoint
    one need phi's value at a point only: they read _phi_point, which skips
    the gradient and gives the point box's value bit for bit.  Boxes are
    popped lowest bound first and bisected along the coordinate with the
    largest width times gradient magnitude, until the lowest open bound is
    within DELTA_TOL of the incumbent.

    Returns (lower, upper, boxes, open_boxes): min phi lies in
    [lower, upper], boxes counts the enclosures made, and open_boxes holds
    (bound, seq, l0, l1, c0, c1, split) for each box still open.  Raises
    ValueError when no box bounds phi (an enclosure of D reaches 0) or
    _MAX_BOXES boxes do not reach DELTA_TOL.
    """
    nx = math.nextafter
    upper = min(_phi_point(mu1, mu2, L, c)[1]
                for L in (0.0, lam_edge) for c in (-1.0, 0.0, 1.0))
    heap = []
    boxes = 0

    def enclose(l0, l1, c0, c1):
        nonlocal boxes, upper
        while True:
            boxes += 1
            f0, f1, gl0, gl1, gc0, gc1 = _phi_box(mu1, mu2, l0, l1, c0, c1)
            if gl0 > 0.0:
                if l0 > 0.0:
                    return
                if l1 > l0:
                    l1 = l0
                    continue
            elif gl1 < 0.0:
                if l1 < lam_edge:
                    return
                if l1 > l0:
                    l0 = l1
                    continue
            if gc0 > 0.0:
                if c0 > -1.0:
                    return
                if c1 > c0:
                    c1 = c0
                    continue
            elif gc1 < 0.0:
                if c1 < 1.0:
                    return
                if c1 > c0:
                    c0 = c1
                    continue
            break
        lm = 0.5 * (l0 + l1)
        cm = 0.5 * (c0 + c1)
        m0, m1 = _phi_point(mu1, mu2, lm, cm)
        upper = min(upper, m1)
        dl0 = nx(l0 - lm, _DN)
        dl1 = nx(l1 - lm, _UP)
        dc0 = nx(c0 - cm, _DN)
        dc1 = nx(c1 - cm, _UP)
        mv = nx(m0 + nx(min(gl0 * dl1, gl1 * dl0), _DN), _DN)
        mv = nx(mv + nx(min(gc0 * dc1, gc1 * dc0), _DN), _DN)
        bound = max(f0, mv)
        if bound <= upper:
            split = (l1 - l0) * max(-gl0, gl1) >= (c1 - c0) * max(-gc0, gc1)
            heapq.heappush(heap, (bound, boxes, l0, l1, c0, c1, split))

    enclose(0.0, lam_edge, -1.0, 1.0)
    while heap:
        bound, _, l0, l1, c0, c1, split = heap[0]
        if upper - bound <= DELTA_TOL:
            return bound, upper, boxes, heap
        if boxes > _MAX_BOXES:
            break
        heapq.heappop(heap)
        if split:
            lm = 0.5 * (l0 + l1)
            enclose(l0, lm, c0, c1)
            enclose(lm, l1, c0, c1)
        else:
            cm = 0.5 * (c0 + c1)
            enclose(l0, l1, c0, cm)
            enclose(l0, l1, cm, c1)
    raise ValueError(f"phi minimum not enclosed to {DELTA_TOL:g} in {boxes} boxes")


@functools.lru_cache(maxsize=16)
def _marchal_delta(mu1: float, mu2: float, lam_edge: float):
    """_marchal_bnb's (lower, upper, boxes), memoized on its exact inputs.
    The open boxes are dropped, so an entry holds three numbers."""
    return _marchal_bnb(mu1, mu2, lam_edge)[:3]


@_in_double_range("marchal_comparison")
def marchal_comparison(rc: RegionConstants, mp: MassParams) -> MarchalComparison:
    """delta = a certified lower bound of min phi over lam in [0, lam_max] x
    gamma in [0, pi], by interval branch-and-bound in c = cos(gamma) over
    [-1, 1], which covers gamma in [0, pi] exactly.

    lam_max is the largest r/rho the region I >= I* admits (capped at sigma,
    the component's own separation ratio, which also keeps both denominators
    of phi away from zero).  Minimizing over this superset of the admissible
    ratios, widened by one ulp past lam_max, is conservative: it can only
    lower delta and raise I_M.  A delta not certified raises ValueError.
    """
    a1, a2 = mp.alpha1, mp.alpha2
    val = (rc.i_star - a1 * rc.c_r**2) / a2
    if val > 0.0:
        lam_max = min(rc.c_r / math.sqrt(val), rc.sigma)
    else:
        lam_max = rc.sigma
    try:
        delta, delta_upper, boxes = _marchal_delta(mp.mu1, mp.mu2, math.nextafter(lam_max, _UP))
    except ValueError as exc:
        raise ValueError(f"marchal_comparison: {exc}") from exc
    if not delta > 0.0:
        raise ValueError("phi minimum not positive; region constants inconsistent")
    rho_M = rc.c_j2**2 / (mp.M * delta)
    I_M = a1 * rc.c_r**2 + a2 * rho_M**2
    return MarchalComparison(delta=delta, delta_upper=delta_upper, boxes=boxes,
                             rho_M=rho_M, I_M=I_M, lam_max=lam_max)


# ---------------------------------------------------------------------------
# The assembled chain

# report keys that differ from the BoundSet field names
_JSON_KEYS = {"c_j2": "c_J2", "i_star": "I_star", "i_star_eff": "I_star_eff",
              "i_star2": "I_star2", "lam": "lambda", "i0": "I0"}


@dataclass(frozen=True)
class BoundSet(StripConstants, DeviationConstants, RegionConstants):
    """Every constant of the chain for one far-body choice.

    The stage constants are the fields it inherits from RegionConstants,
    DeviationConstants and StripConstants, whose records compute_chain
    passes on whole; to_dict writes every field, renamed by _JSON_KEYS where
    the report key differs.  Also carries the level-dependent helpers:
    rho_bar(I) and epsilon(I) for a query level, and the strip ceiling
    I_plus(I).  i0 is the minimized R_lambda
    for this far body.
    """

    far_body: int
    masses: tuple
    H: float
    J: float
    i_star2: float
    i0: float
    marchal: MarchalComparison

    @property
    def mp(self) -> MassParams:
        return MassParams(*self.masses)

    @property
    def far_mp(self) -> MassParams:
        """The masses relabeled with far_body last: the labeling of the
        constants."""
        return self.mp.relabeled(self.far_body)

    def rho_bar(self, I_bar: float) -> float:
        """Least outer distance compatible with I >= I_bar and r <= c_r, in
        the labeling of the constants (far body last)."""
        mp = self.far_mp
        val = (I_bar - mp.alpha1 * self.c_r**2) / mp.alpha2
        if val <= 0.0:
            raise ValueError(f"level {I_bar} sits below alpha1 c_r^2")
        return math.sqrt(val)

    def epsilon(self, I_bar: float) -> float:
        return 1.0 / self.rho_bar(I_bar)

    def horizon(self, I_bar: float) -> float:
        """Time horizon B1 eps^(-3/2) of the deviation estimate at I_bar."""
        return self.B1 * self.epsilon(I_bar) ** (-1.5)

    def i_plus(self, I_bar: float) -> float:
        """Strip ceiling 4 (I_bar - alpha1 c_r^2), far body last."""
        mp = self.far_mp
        return 4.0 * (I_bar - mp.alpha1 * self.c_r**2)

    def to_dict(self) -> dict:
        out = {_JSON_KEYS.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}
        out["marchal"] = dict(vars(self.marchal))
        return out


def _stages(mp: MassParams, H: float, J: float, far_body: int, lam: Optional[float],
            B1: Optional[float]):
    """The chain's stages up to R_lambda for one far-body choice, as
    (relabeled masses, region record, I**, deviation record, strip record).

    Raises ChainOverflowError when A1 or R_lambda exceeds the double range.
    """
    mpk = mp.relabeled(far_body)
    rc = region_constants(mpk, H, J)
    i2 = i_star_star(rc, mpk)
    dc = deviation_constants(rc, mpk, B1=B1)
    sc = strip_and_main(rc, dc, mpk, lam, i_star2=i2)
    if not math.isfinite(sc.R_lambda):
        raise ChainOverflowError(
            "R_lambda", f"alpha2^2 A1^2/lambda with A1 = {dc.A1:.6g}, lambda = {sc.lam:.6g}"
        )
    return mpk, rc, i2, dc, sc


def compute_chain(
    mp: MassParams,
    H: float,
    J: float,
    far_body: int = 3,
    lam: Optional[float] = None,
    B1: Optional[float] = None,
) -> BoundSet:
    """Run the whole chain for one far-body choice.

    lam = None takes lam* = min(alpha2 A1, C/(R - K), lam_L, 1 - 1e-9), the
    exact minimizer of R_lambda over (0, 1 - 1e-9] (see _lambda_star); an
    explicit lam pins it.
    Raises ChainOverflowError when A1 or R_lambda exceeds the double range.
    """
    mpk, rc, i2, dc, sc = _stages(mp, H, J, far_body, lam, B1)
    mc = marchal_comparison(rc, mpk)
    return BoundSet(far_body=far_body, masses=mp.masses(), H=H, J=J, **vars(rc), i_star2=i2,
                    **vars(dc), **vars(sc), i0=sc.R_lambda, marchal=mc)


def i0(
    mp: MassParams,
    H: float,
    J: float,
    lam: Optional[float] = None,
    B1: Optional[float] = None,
):
    """Final threshold I0(m, H, J) and the bound set that realizes it.

    The threshold must work in all three far-body components, so the
    reported I0 is the largest R_lambda over the three labelings (the first
    largest on a tie), and the returned BoundSet is that binding one.  Only
    the binding chain is run whole: Marchal's delta, the one costly stage,
    is enclosed for it alone.
    """
    far_body = max((1, 2, 3), key=lambda k: _stages(mp, H, J, k, lam, B1)[-1].R_lambda)
    bs = compute_chain(mp, H, J, far_body=far_body, lam=lam, B1=B1)
    return bs.i0, bs
