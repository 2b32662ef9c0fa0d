"""Exact two-body machinery on float 3-tuples, without numpy.

Covers every conic type in one code path: elements from a state vector and
universal-variable propagation (Stumpff functions, Newton with a bisection
safeguard).  Dot products and norms are the fused chain ``bounds._dot3``.

One Kepler clock, ``_time_since_pericenter``, serves the radial collision
window and the osculating exit time; it branches on the sign of the energy
alone, and no orbit carries a conic label.  A radial orbit (zero angular
momentum, c = 0) is an ordinary value with eccentricity 1 and a signed
radial phase; its "pericenter" is the collision itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import _dot3

__all__ = [
    "CollisionAtTimeError",
    "TwoBodyState",
    "KeplerElements",
    "elements_from_state",
    "propagate",
    "stumpff_c", "stumpff_s",
]

# Relative threshold below which an orbit is treated as radial (c = 0)
_RADIAL_TOL = 1e-12
# Convergence target for the universal Kepler equation
_UKEPLER_TOL = 1e-13
_UKEPLER_MAXITER = 60
# Smallest relative size of the hyperbolic seed's denominator that still
# carries digits (about the square root of the double epsilon)
_SEED_CANCEL = 1e-8


class CollisionAtTimeError(RuntimeError):
    """Propagation of a radial orbit would pass through the center.

    Carries the collision time (relative to the propagation epoch).
    """

    def __init__(self, t_collision: float):
        super().__init__(f"radial orbit reaches the center at t = {t_collision!r}")
        self.t_collision = t_collision


def _norm(v) -> float:
    """|v| as sqrt of the fused dot chain, which is np.linalg.norm's value."""
    return math.sqrt(_dot3(v, v))


def _cross(a, b) -> tuple:
    """a x b with np.cross's products and differences, unfused."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _fg(f: float, x, g: float, v) -> tuple:
    """f x + g v, componentwise and unfused, as numpy evaluates it."""
    return tuple(f * a + g * b for a, b in zip(x, v))


@dataclass(frozen=True)
class TwoBodyState:
    """Position and velocity (float 3-tuples) and kappa of one Kepler problem."""

    xi: tuple
    dxi: tuple
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "xi", tuple(map(float, self.xi)))
        object.__setattr__(self, "dxi", tuple(map(float, self.dxi)))
        object.__setattr__(self, "kappa", float(self.kappa))

    @property
    def r(self) -> float:
        return _norm(self.xi)

    @property
    def speed(self) -> float:
        return _norm(self.dxi)


@dataclass(frozen=True)
class KeplerElements:
    """Conic-orbit description: energy, angular momentum and eccentricity vectors."""

    kappa: float
    h: float
    c_vec: tuple
    e_vec: tuple

    @property
    def c(self) -> float:
        return _norm(self.c_vec)

    @property
    def e(self) -> float:
        return _norm(self.e_vec)

    @property
    def a(self) -> float:
        """Semi-major axis (negative for hyperbolic, inf for parabolic)."""
        if self.h == 0.0:
            return math.inf
        return -self.kappa / (2.0 * self.h)

    @property
    def q_peri(self) -> float:
        """Pericenter distance c^2/(kappa (1 + e)), 0 on a radial orbit."""
        c = self.c
        return c * c / (self.kappa * (1.0 + self.e))


def elements_from_state(s: TwoBodyState) -> KeplerElements:
    """Osculating elements of the state: freezes (xi, dxi) into a conic."""
    r = s.r
    if r == 0.0:
        raise ValueError("cannot form elements at zero radius")
    h = 0.5 * _dot3(s.dxi, s.dxi) - s.kappa / r
    c_vec = _cross(s.xi, s.dxi)
    e_vec = tuple(a / s.kappa - b / r for a, b in zip(_cross(s.dxi, c_vec), s.xi))
    return KeplerElements(kappa=s.kappa, h=h, c_vec=c_vec, e_vec=e_vec)


# ---------------------------------------------------------------------------
# Stumpff functions

# below this z the hyperbolic branches overflow a double; both functions
# diverge to +inf there, which the monotone bracketing handles gracefully
_Z_FLOOR = -480_000.0


def stumpff_c(z: float) -> float:
    """C(z) = (1 - cos sqrt z)/z, continued through z <= 0."""
    if abs(z) < 1e-5:
        return 0.5 - z / 24.0 + z * z / 720.0 - z * z * z / 40320.0
    if z > 0.0:
        sz = math.sqrt(z)
        return (1.0 - math.cos(sz)) / z
    if z < _Z_FLOOR:
        return math.inf
    sz = math.sqrt(-z)
    return (math.cosh(sz) - 1.0) / (-z)


def stumpff_s(z: float) -> float:
    """S(z) = (sqrt z - sin sqrt z)/sqrt(z)^3, continued through z <= 0."""
    if abs(z) < 1e-5:
        return 1.0 / 6.0 - z / 120.0 + z * z / 5040.0 - z * z * z / 362880.0
    if z > 0.0:
        sz = math.sqrt(z)
        return (sz - math.sin(sz)) / (z * sz)
    if z < _Z_FLOOR:
        return math.inf
    sz = math.sqrt(-z)
    return (math.sinh(sz) - sz) / (-z * sz)


# ---------------------------------------------------------------------------
# Stable anomaly differences

def _e_minus_sin(x: float) -> float:
    """x - sin x without cancellation for small x."""
    if abs(x) < 0.1:
        x2 = x * x
        return x * x2 * (1.0 / 6.0) * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0 * (1.0 - x2 / 72.0)))
    return x - math.sin(x)


def _sinh_minus(x: float) -> float:
    """sinh x - x without cancellation for small x."""
    if abs(x) < 0.1:
        x2 = x * x
        return x * x2 * (1.0 / 6.0) * (1.0 + x2 / 20.0 * (1.0 + x2 / 42.0 * (1.0 + x2 / 72.0)))
    return math.sinh(x) - x


def _is_radial(s: TwoBodyState) -> bool:
    c = _norm(_cross(s.xi, s.dxi))
    r = s.r
    return c <= _RADIAL_TOL * math.sqrt(s.kappa * r) + _RADIAL_TOL * r * s.speed


def _time_since_pericenter(r: float, rv: float, h: float, kappa: float,
                           e: float = 1.0, q: float = 0.0) -> float:
    """Signed time since the nearest pericenter passage at radius r, with
    rv = xi . dxi, energy h, eccentricity e and pericenter distance q:
    positive outbound, negative inbound.

    Kepler's equation with 1 - e written as q/a (bound) or e - 1 as q/|a|
    (unbound), so nothing cancels as e -> 1: the elliptic anomaly comes from
    atan2 (the result lies in (-T/2, T/2]), the hyperbolic one from asinh,
    and h = 0 is Barker's equation, which at q = 0 is the radial fall.
    Radial orbits are the case e = 1, q = 0, their pericenter the collision.
    """
    if h < 0.0:
        a = -kappa / (2.0 * h)
        esinE = rv / math.sqrt(kappa * a)
        E = math.atan2(esinE, 1.0 - r / a)
        return (q * math.sqrt(a) * E + e * a**1.5 * _e_minus_sin(E)) / math.sqrt(kappa)
    if h > 0.0:
        aa = kappa / (2.0 * h)
        F = math.asinh(rv / math.sqrt(kappa * aa) / e)
        return (q * math.sqrt(aa) * F + e * aa**1.5 * _sinh_minus(F)) / math.sqrt(kappa)
    d = max(r - q, 0.0)
    return math.copysign(math.sqrt(2.0 / kappa) * (q + d / 3.0) * math.sqrt(d), rv)


def _radial_collision_window(s: TwoBodyState):
    """Open interval (t_prev, t_next) of propagation times free of collision.

    t_prev < 0 < t_next; infinite endpoints when the orbit never reaches the
    center on that side.
    """
    r = s.r
    kappa = s.kappa
    h = 0.5 * s.speed**2 - kappa / r
    vr = _dot3(s.xi, s.dxi) / r
    t_since = _time_since_pericenter(r, vr * r, h, kappa)
    if h < 0.0:
        a = -kappa / (2.0 * h)
        T = 2.0 * math.pi / math.sqrt(kappa / a**3)
        if t_since < 0.0:  # time since the last collision, in [0, T)
            t_since += T
        return -t_since, T - t_since
    # unbound: one collision; outbound, it was expelled at -t_since and never returns
    if t_since >= 0.0:
        return -t_since, math.inf
    return -math.inf, -t_since


def propagate(s: TwoBodyState, t: float) -> TwoBodyState:
    """Exact Kepler flow by universal variables.

    Conserves energy and the angular momentum vector to rounding (the f-g
    update preserves xi x dxi identically).  Radial orbits propagate fine up
    to, but not through, the center: crossing raises CollisionAtTimeError
    carrying the collision time.
    """
    t = float(t)
    if t == 0.0:
        return s
    r0 = s.r
    if r0 == 0.0:
        raise ValueError("cannot propagate from zero radius")
    kappa = s.kappa
    sqk = math.sqrt(kappa)
    rv = _dot3(s.xi, s.dxi)
    v2 = _dot3(s.dxi, s.dxi)
    alpha = 2.0 / r0 - v2 / kappa

    if _is_radial(s):
        t_prev, t_next = _radial_collision_window(s)
        if not (t_prev < t < t_next):
            raise CollisionAtTimeError(t_next if t > 0 else t_prev)

    dt = t
    if alpha > 0.0:
        # reduce by the period: the universal solve then stays well scaled
        T = 2.0 * math.pi / (sqk * alpha**1.5)
        if abs(dt) > 0.5 * T:
            dt = math.remainder(dt, T)
            if dt == 0.0:
                dt = math.copysign(0.0, t)

    chi = _solve_universal(r0, rv, alpha, kappa, dt)
    z = alpha * chi * chi
    C = stumpff_c(z)
    S = stumpff_s(z)
    f = 1.0 - chi * chi * C / r0
    g = dt - chi**3 * S / sqk
    xi_new = _fg(f, s.xi, g, s.dxi)
    rn = _norm(xi_new)
    if rn == 0.0:
        raise CollisionAtTimeError(t)
    fdot = sqk / (rn * r0) * chi * (z * S - 1.0)
    gdot = 1.0 - chi * chi * C / rn
    dxi_new = _fg(fdot, s.xi, gdot, s.dxi)
    return TwoBodyState(xi=xi_new, dxi=dxi_new, kappa=kappa)


def _universal_f(chi, r0, rv, alpha, kappa, dt):
    sqk = math.sqrt(kappa)
    z = alpha * chi * chi
    if z < _Z_FLOOR:
        # far beyond any root: F is monotone, only its sign matters here
        return math.copysign(math.inf, chi), math.inf
    C = stumpff_c(z)
    S = stumpff_s(z)
    F = rv / sqk * chi * chi * C + (1.0 - alpha * r0) * chi**3 * S + r0 * chi - sqk * dt
    dF = rv / sqk * chi * (1.0 - z * S) + (1.0 - alpha * r0) * chi * chi * C + r0
    return F, dF


def _chi_seed(r0, rv, alpha, kappa, dt) -> float:
    """Scale-aware first guess for the universal anomaly.

    Uses whichever regime dominates: linear (small |dt|), parabolic cubic
    (weakly bound/unbound over long spans), elliptic secular, or the
    hyperbolic logarithmic estimate.  The cubic and the logarithmic estimate
    are offered only where they can hold: far out (r0 ~ 1e22), a near-radial
    fall otherwise seeds the anomaly up to 1e7 times past its root, where
    cancellation leaves the universal function no correct digits.
    """
    sqk = math.sqrt(kappa)
    guesses = [sqk * dt / r0]
    cubic = math.copysign((6.0 * sqk * abs(dt)) ** (1.0 / 3.0), dt)
    # the cubic is the anomaly of a parabolic fall from the center; a span
    # shorter than r0^(3/2)/(6 sqk), about a third of the fall time from r0,
    # cannot bring the orbit near it
    if cubic * cubic >= r0:
        guesses.append(cubic)
    if alpha > 0.0:
        guesses.append(sqk * alpha * dt)
    elif alpha < 0.0:
        am = -1.0 / alpha
        term = math.copysign(1.0, dt) * math.sqrt(kappa * am) * (1.0 - r0 * alpha)
        denom = rv + term
        # an infall that is nearly radial and far out cancels the two terms
        # to rounding noise; the estimate then means nothing
        if abs(denom) > _SEED_CANCEL * (abs(rv) + abs(term)):
            arg = (-2.0 * kappa * alpha * dt) / denom
            if arg > 1.0:
                return math.copysign(math.sqrt(am) * math.log(arg), dt)
        # sqrt(1/|alpha|) is where alpha chi^2 = -1; in the parabolic regime,
        # where |alpha| chi^2 / 12 (the curvature term of c2) is below the
        # solve's tolerance, it overshoots the root by orders of magnitude
        chi = max(guesses, key=abs)
        if -alpha * chi * chi >= 12.0 * _UKEPLER_TOL:
            guesses.append(math.copysign(math.sqrt(am), dt))
    # smallest magnitude that is not absurdly small: the linear estimate
    # undershoots badly for long spans, the cubic overshoots short ones
    return max(guesses, key=abs) if abs(dt) * sqk > r0 else min(guesses, key=abs)


def _solve_universal(r0, rv, alpha, kappa, dt) -> float:
    """Universal Kepler equation: safeguarded Newton on a monotone function."""
    chi = _chi_seed(r0, rv, alpha, kappa, dt)

    # bracket the root: F is nondecreasing in chi with F(0) = -sqk*dt
    sgn = 1.0 if dt > 0 else -1.0
    far = abs(chi)
    for _ in range(200):
        if sgn * _universal_f(sgn * far, r0, rv, alpha, kappa, dt)[0] >= 0.0:
            break
        far *= 2.0
    lo, hi = (0.0, sgn * far) if sgn > 0 else (sgn * far, 0.0)

    chi = min(max(chi, lo), hi)
    # the residual is judged at the iterate, not over the bracket: for a
    # nearly parabolic orbit the hyperbolic seed can lie 1e7 times past the
    # root, and a bracket that wide must not widen the tolerance with it
    sqk_dt = math.sqrt(kappa) * abs(dt)
    best_chi, best_absf = chi, math.inf
    for _ in range(_UKEPLER_MAXITER * 4):
        F, dF = _universal_f(chi, r0, rv, alpha, kappa, dt)
        if abs(F) < best_absf:
            best_chi, best_absf = chi, abs(F)
        if F > 0.0:
            hi = chi
        elif F < 0.0:
            lo = chi
        if abs(F) <= _UKEPLER_TOL * (sqk_dt + r0 * abs(chi)):
            return chi
        step_ok = math.isfinite(F) and dF > 0.0 and math.isfinite(dF)
        if step_ok:
            nxt = chi - F / dF
            step_ok = lo <= nxt <= hi
        if not step_ok:
            nxt = 0.5 * (lo + hi)
        if nxt == chi:
            break
        chi = nxt
    F, _ = _universal_f(best_chi, r0, rv, alpha, kappa, dt)
    if not abs(F) <= 1e-9 * (sqk_dt + r0 * abs(best_chi)):
        raise ArithmeticError(
            f"universal Kepler solve failed (residual {F:.3e} at chi={best_chi:.6e})"
        )
    return best_chi
