"""High-accuracy integration of the coupled system with events.

The stepper is DOP853 (8th order with embedded error control and a
7th-order dense interpolant), an in-repo driver on the tableau vendored
below from Hairer, Norsett and Wanner.  Its hot path runs on Python floats
end to end: states and RHS values are lists (see core.make_rhs), and one
step attempt is straight-line code, generated from the tableau for each
state dimension, whose sums run left to right over the tableau's nonzero
entries.  Results therefore agree with scipy.integrate.DOP853 to rounding,
not bitwise.  It is driven manually so
that we control the step budget, event localization and the coordinate
switches of the regularized path.  Backward time is first class: pass
t1 < t0.

One step loop (run_steps) serves the three-body field in physical time,
the KS stints of the regularized path in fictitious time, and any small
ODE on lists of floats, such as the radial sandwich pair of osculate: one
integration on two clocks.  A clock maps the solver's variable and state to
physical time and the flat state; it is the identity except in a KS stint.
Event functions take (t, y), with y the flat state as a list of floats (for
the three-body field in JacobiState.as_vector layout), and are evaluated on
the clock's state at the end of each accepted step.  A step keeps its
stages only as a small packed block; the dense interpolant (three extra RHS
stages) is built from it the first time a dense-output query or an event
search reads the step, and returns lists too.  The root of an event is
bracketed and polished with Brent's method in the solver's own variable on
that interpolant (in a KS stint that is the fictitious time s, in which a
collision is a regular point), so event times are good to ~1e-12 relative;
an Event keeps the flat state at its root.

Collisions of the inner binary can be crossed by switching the short Jacobi
vector to Kustaanheimo-Stiefel variables with the time rescaling dt = r ds
while r is below a switch radius (integrate(..., regularize=True)); the
outer vector stays in physical coordinates, evolved in the fictitious time
alongside.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    JacobiState, MassParams, _coupling_kernel, _float_rhs, angular_momentum, energy_split,
    flat_angular_momentum, flat_energy, flat_inertia, make_rhs, moment_of_inertia,
)
from .roots import brentq

__all__ = [
    "IntegrationSingularityError",
    "EventSpec",
    "Event",
    "Trajectory",
    "run_steps",
    "integrate",
]

DEFAULT_TOL = 1e-12  # relative and absolute
DEFAULT_MAX_STEPS = 500_000

# KS switch radius as a fraction of the binary's natural length beta1/|H|,
# with a x2 hysteresis band so the mode cannot chatter.
KS_SWITCH_FRACTION = 1e-2
KS_EXIT_FACTOR = 2.0
# a passage counts as a collision when the radial minimum dips below this
# fraction of the switch radius
KS_COLLISION_FRACTION = 1e-9


class IntegrationSingularityError(RuntimeError):
    """Step size underflow near an uncontrolled singularity.

    Carries the last valid time and state, and the steps accepted before it.
    """

    def __init__(self, message: str, t: float, state: JacobiState, n_steps: int):
        super().__init__(message)
        self.t = t
        self.state = state
        self.n_steps = n_steps


@dataclass(frozen=True)
class EventSpec:
    """Scalar event g(t, y) with a sign-change direction.

    y is the flat state as a list of floats, for the three-body field in
    JacobiState.as_vector layout [xi1, xi2, dxi1, dxi2], both at step ends
    and on the dense output.  direction +1 fires on -> +, -1 on + -> -,
    0 on both.  Terminal events stop the integration at the root.  Names
    that start with "_", and "collision_regularized" in a KS stint, are the
    integrator's own.
    """

    name: str
    func: Callable[[float, List[float]], float]
    direction: int = 0
    terminal: bool = False
    payload: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Event:
    """An event at time t, with y the flat state there (a list of floats)."""

    t: float
    kind: str
    payload: dict
    y: list

    @property
    def state(self) -> JacobiState:
        return JacobiState.from_vector(self.y)


# ---------------------------------------------------------------------------
# The DOP853 tableau

# The coefficients of DOP853 as Hairer and Wanner's Fortran code dop853.f
# gives them (E. Hairer, S. P. Norsett and G. Wanner, Solving Ordinary
# Differential Equations I: Nonstiff Problems, 2nd ed., Springer 1993):
# nodes C and stage coefficients A, whose rows 13-15 are the three extra
# stages of the dense output; weights B; the 5th- and 3rd-order error
# weights E5 and E3; and the rows D of the 7th-order interpolant beyond the
# three that come from the step itself (see _build_for).
N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7


def _dense(width, rows) -> np.ndarray:
    """The matrix of the sparse rows ({column: value}), zero elsewhere."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[i, j] = v
    return out


C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0,
    1.0, 0.1, 0.2, 0.777777777777777777777777777778,
])
A = _dense(N_STAGES_EXTENDED, [
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1, 4: 6.02165389804559606850219397283e-2,
     5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
])
E5 = _dense(N_STAGES + 1, [
    {0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
     6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
     8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
     10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1},
])[0]
D = _dense(N_STAGES_EXTENDED, [
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
])

B = A[N_STAGES, :N_STAGES]
E3 = np.append(B, 0.0)
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1


# ---------------------------------------------------------------------------
# The stepper

_N = N_STAGES
# The stages an accepted step keeps for its interpolant: K0 (= f at the
# step start), K12 (= f at the step end) and every stage between them that
# the extra stages or the interpolant weights read.  With the step-start
# state they make the packed block of _LazyDop853.
_KEPT = [j for j in range(_N + 1) if D[:, j].any() or A[_N + 1:, j].any()]


def _lincomb(coeffs, terms) -> str:
    """Source of the sum of c * x over the nonzero c, left to right."""
    return "(" + " + ".join(f"{float(c)!r} * {x}" for c, x in zip(coeffs, terms) if c != 0.0) + ")"


def _names(s, n) -> str:
    return ", ".join(f"k{s}_{i}" for i in range(n))


def _stage(s, n, t0) -> List[str]:
    """Lines evaluating stage s at time t0 + c_s h from the stages before
    it, and unpacking it."""
    args = ", ".join(
        f"y_{i} + {_lincomb(A[s, :s], [f'k{j}_{i}' for j in range(s)])} * h" for i in range(n))
    return [f"    k{s} = fun({t0} + {float(C[s])!r} * h, [{args}])",
            f"    {_names(s, n)} = k{s}"]


def _y_new(i) -> str:
    return f"y_{i} + h * {_lincomb(B, [f'k{j}_{i}' for j in range(_N)])}"


@functools.lru_cache(maxsize=None)
def _attempt_for(n: int):
    """One step attempt for states of dimension n, as straight-line code
    over Python floats.

    attempt(fun, t, y, f, h, atol, rtol) returns y_new, f_new, the sums of
    squares of the scaled 5th- and 3rd-order error estimates, and the
    stage lists K1..K11.
    """
    src = ["def attempt(fun, t, y, f, h, atol, rtol):",
           f"    {', '.join(f'y_{i}' for i in range(n))} = y",
           f"    {_names(0, n)} = f"]
    for s in range(1, _N):
        src += _stage(s, n, "t")
    src += [f"    y_new = [{', '.join(_y_new(i) for i in range(n))}]",
            "    f_new = fun(t + h, y_new)",
            f"    {', '.join(f'n_{i}' for i in range(n))} = y_new",
            "    s5 = s3 = 0.0"]
    for i in range(n):
        ks = [f"k{j}_{i}" for j in range(_N + 1)]
        src += [f"    a = abs(y_{i})",
                f"    b = abs(n_{i})",
                "    sc = atol + (a if a > b else b) * rtol",
                f"    e = {_lincomb(E5, ks)} / sc",
                "    s5 += e * e",
                f"    e = {_lincomb(E3, ks)} / sc",
                "    s3 += e * e"]
    src += [f"    return y_new, f_new, s5, s3, ({', '.join(f'k{s}' for s in range(1, _N))})"]
    return _compiled("attempt", src, n)


@functools.lru_cache(maxsize=None)
def _build_for(n: int):
    """build(fun, t_old, t, block) for states of dimension n: evaluates the
    three extra stages on the packed block [y_old, K0, K5..K12] and returns
    y_old and the INTERPOLATOR_POWER rows of the step's interpolant, as
    lists of floats.  Its y_new is the attempt's, bit for bit."""
    ys = ", ".join(f"y_{i}" for i in range(n))
    src = ["def build(fun, t_old, t, block):",
           f"    {ys}, {', '.join(_names(j, n) for j in _KEPT)} = block",
           "    h = t - t_old"]
    for s in range(_N + 1, N_STAGES_EXTENDED):
        src += _stage(s, n, "t_old")
    F = []
    for i in range(n):
        ks = [f"k{j}_{i}" for j in range(N_STAGES_EXTENDED)]
        src += [f"    d_{i} = {_y_new(i)} - y_{i}"]
        F.append([f"d_{i}", f"h * k0_{i} - d_{i}", f"2 * d_{i} - h * (k{_N}_{i} + k0_{i})"]
                 + [f"h * {_lincomb(row, ks)}" for row in D])
    rows = ", ".join("[" + ", ".join(F[i][r] for i in range(n)) + "]"
                     for r in range(INTERPOLATOR_POWER))
    src += [f"    return [{ys}], [{rows}]"]
    return _compiled("build", src, n)


def _compiled(name, src, n):
    namespace = {}
    exec(compile("\n".join(src), f"<DOP853 {name} n={n}>", "exec"), namespace)
    return namespace[name]


class DOP853:
    """DOP853 on Python floats, without OdeSolver's per-call wrappers.

    The tableau vendored from Hairer, Norsett and Wanner, with scipy's
    error norm, step-size control and initial step, and the arithmetic of
    one attempt unrolled over lists of floats (see _attempt_for), so t, y
    and status agree with scipy.integrate.DOP853 to rounding.  fun(t, y)
    takes and returns lists; self.y and self.f are lists.  Tolerances are
    scalars with scipy's checks.  A step below ten float spacings of t sets status "failed" and
    returns scipy's message.

    dense_output() packs the last step's stages into a _LazyDop853, which
    evaluates the three extra stages (through fun) on its first call.
    """

    TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
    _EXPONENT = -1 / 8  # -1 / (error estimator order + 1)

    def __init__(self, fun, t0, y0, t_bound, rtol=1e-3, atol=1e-6):
        y0 = np.asarray(y0).astype(float, copy=False)
        if not np.isfinite(y0).all():
            raise ValueError("All components of the initial state `y0` must be finite.")
        eps100 = 100 * np.finfo(float).eps
        if rtol < eps100:
            warnings.warn("At least one element of `rtol` is too small. "
                          f"Setting `rtol = np.maximum(rtol, {eps100})`.", stacklevel=2)
            rtol = eps100
        if atol < 0:
            raise ValueError("`atol` must be positive.")
        self.fun, self.rtol, self.atol = fun, float(rtol), float(atol)
        self.t, self.y, self.t_bound = t0, y0.tolist(), t_bound
        self.t_old = self.y_old = self.h_previous = None
        self.direction = 1.0 if t_bound >= t0 else -1.0
        self.status = "running"
        self.n = y0.size
        self._attempt = _attempt_for(self.n)
        self._f_old = self._stages = None
        self.f = fun(t0, self.y)
        self.h_abs = self._initial_step()

    def _norm(self, x) -> float:
        return math.sqrt(sum(v * v for v in x)) / self.n ** 0.5

    def _initial_step(self) -> float:
        t0, y0, f0, direction = self.t, self.y, self.f, self.direction
        interval_length = abs(self.t_bound - t0)
        scale = [self.atol + abs(v) * self.rtol for v in y0]
        d0 = self._norm(v / s for v, s in zip(y0, scale))
        d1 = self._norm(v / s for v, s in zip(f0, scale))
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = self.fun(t0 + h0 * direction, [v + h0 * direction * g for v, g in zip(y0, f0)])
        d2 = self._norm((a - b) / s for a, b, s in zip(f1, f0, scale)) / h0
        h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
              else (0.01 / max(d1, d2)) ** (1 / 8))
        return min(100 * h0, h1, interval_length)

    def step(self):
        """Advance one accepted step; returns None, or the failure message."""
        attempt, fun, atol, rtol, n = self._attempt, self.fun, self.atol, self.rtol, self.n
        t, y, f, direction, t_bound = self.t, self.y, self.f, self.direction, self.t_bound
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return self.TOO_SMALL_STEP
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, e5, e3, stages = attempt(fun, t, y, f, h, atol, rtol)
            error_norm = 0.0 if e5 == 0 and e3 == 0 else h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * n)
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** self._EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** self._EXPONENT)
            rejected = True
        self.h_previous, self.t_old, self.y_old, self._f_old, self._stages = h, t, y, f, stages
        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs
        if direction * (t_new - t_bound) >= 0:
            self.status = "finished"
        return None

    def dense_output(self) -> "_LazyDop853":
        """The 7th-order interpolant over the last step, built on first call."""
        block = self.y_old + self._f_old
        for j in _KEPT[1:-1]:
            block += self._stages[j - 1]
        block += self.f
        return _LazyDop853(_build_for(self.n), self.fun, self.t_old, self.t, array("d", block))


class _LazyDop853:
    """The 7th-order DOP853 interpolant over one step from t_old to t, built
    on its first call.

    Until then it holds only the step's packed float64 block [y_old, K0,
    K5..K12] (10 rows); the build (see _build_for) evaluates the three extra
    stages through the solver's fun, keeps y_old and the rows F as lists of
    floats, and drops the block.  A call at a scalar t returns the state
    there as a list, evaluated as scipy's Dop853DenseOutput evaluates it,
    operation for operation, so bit for bit: with x = (t - t_old) / h, a
    Horner-like pass over the rows in reverse that multiplies by x and
    1 - x in turn, then y_old added.  It is also the dense segment of a
    physical-coordinate step (t_lo, t_hi, state_vector).
    """

    __slots__ = ("_build", "_fun", "t_old", "t", "_block", "y_old", "F")

    def __init__(self, build, fun, t_old, t, block):
        self._build, self._fun, self.t_old, self.t = build, fun, t_old, t
        self._block, self.y_old, self.F = block, None, None

    @property
    def t_lo(self) -> float:
        return min(self.t_old, self.t)

    @property
    def t_hi(self) -> float:
        return max(self.t_old, self.t)

    def __call__(self, t) -> list:
        if self.F is None:
            self.y_old, self.F = self._build(self._fun, self.t_old, self.t, self._block)
            self._block = None
        x = (t - self.t_old) / (self.t - self.t_old)
        x1 = 1 - x
        return [(((((((0.0 + f6) * x + f5) * x1 + f4) * x + f3) * x1 + f2) * x + f1) * x1 + f0) * x
                 + y0 for y0, f0, f1, f2, f3, f4, f5, f6 in zip(self.y_old, *self.F)]

    state_vector = __call__

    def point(self, t: float):
        """(t, state), as a KS segment's point(s) gives (t(s), state(s))."""
        return t, self(t)


# ---------------------------------------------------------------------------
# Dense output across segments (physical and regularized)

class _KSSegment:
    """One accepted step of a KS stint, indexed by physical time.

    point(s) gives the physical (t, flat state) at fictitious time s on the
    step's interpolant; a query at a physical time inverts the monotone
    t(s) component first.
    """

    __slots__ = ("t_lo", "t_hi", "s_lo", "s_hi", "interp")

    def __init__(self, interp, t_lo, t_hi):
        self.interp = interp
        self.s_lo = interp.t_lo
        self.s_hi = interp.t_hi
        self.t_lo = min(t_lo, t_hi)
        self.t_hi = max(t_lo, t_hi)

    def point(self, s: float):
        z = self.interp(s)
        return z[_KS_T], _ks_to_cart(z)

    def state_vector(self, t: float) -> list:
        return self.point(self._s_of_t(t))[1]

    def _s_of_t(self, t: float) -> float:
        f = lambda s: self.interp(s)[_KS_T] - t
        f_lo = f(self.s_lo)
        f_hi = f(self.s_hi)
        if f_lo == 0.0:
            return self.s_lo
        if f_hi == 0.0:
            return self.s_hi
        if f_lo * f_hi > 0.0:  # clamp when t is at a boundary up to rounding
            return self.s_lo if abs(f_lo) < abs(f_hi) else self.s_hi
        return brentq(f, self.s_lo, self.s_hi, xtol=1e-15, maxiter=200)


class DenseSolution:
    """Piecewise dense output over monotone (increasing or decreasing) time."""

    def __init__(self, segments: Sequence):
        # lookup table sorted ascending in time regardless of travel direction
        self._ordered = sorted(segments, key=lambda s: s.t_lo)
        self._starts = [seg.t_lo for seg in self._ordered]

    def __call__(self, t: float) -> list:
        if not self._ordered:
            raise ValueError("empty dense solution")
        idx = bisect.bisect_right(self._starts, t) - 1
        idx = min(max(idx, 0), len(self._ordered) - 1)
        seg = self._ordered[idx]
        if t > seg.t_hi and idx + 1 < len(self._ordered):
            seg = self._ordered[idx + 1]
        return seg.state_vector(t)


# ---------------------------------------------------------------------------
# Trajectory

@dataclass
class Trajectory:
    """Dense numerical solution with conserved-quantity residuals and events.

    t is the strictly monotone grid of accepted steps; y holds the flat
    states at those times.  h_resid and j_resid are relative drifts of the
    energy and angular momentum magnitude against their values h0 and j0 at
    node 0, computed at each node by core's formulas on first read.
    complete is False when a step or time budget cut the run short.
    """

    mp: MassParams
    t: np.ndarray
    y: np.ndarray
    dense: Optional[DenseSolution]
    events: List[Event]
    complete: bool
    status: str
    n_steps: int
    h0: float
    j0: float

    @cached_property
    def h_resid(self) -> np.ndarray:
        energy = flat_energy(self.mp)
        scale = max(abs(self.h0), 1e-300)
        return np.array([(energy(y)[0] - self.h0) / scale for y in self.y.tolist()])

    @cached_property
    def j_resid(self) -> np.ndarray:
        angmom = flat_angular_momentum(self.mp)
        j = np.array([math.hypot(*angmom(y)[0]) for y in self.y.tolist()])
        # absolute drift when the momentum level is zero, relative otherwise
        return (j - self.j0) / self.j0 if self.j0 > 0.0 else (j - self.j0)

    @property
    def t0(self) -> float:
        return float(self.t[0])

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def state_at(self, t: float) -> JacobiState:
        if self.dense is None:
            raise ValueError("trajectory stored without dense output")
        return JacobiState.from_vector(self.dense(t))

    def inertia_at(self, t: float) -> float:
        return moment_of_inertia(self.state_at(t), self.mp)

    def inertia_nodes(self) -> np.ndarray:
        return flat_inertia(self.mp)(self.y.T)

    def rho_nodes(self) -> np.ndarray:
        return np.sqrt(np.sum(self.y[:, 3:6] ** 2, axis=1))

    def r_nodes(self) -> np.ndarray:
        return np.sqrt(np.sum(self.y[:, 0:3] ** 2, axis=1))

    def min_inertia(self) -> float:
        return float(self.inertia_nodes().min())

    def to_csv(self, path) -> None:
        """Columns: t, xi1x..z, dxi1x..z, xi2x..z, dxi2x..z, r, rho, I,
        H_resid, J_resid.  Versioned header comment."""
        cols = (
            "t,xi1x,xi1y,xi1z,dxi1x,dxi1y,dxi1z,"
            "xi2x,xi2y,xi2z,dxi2x,dxi2y,dxi2z,r,rho,I,H_resid,J_resid"
        )
        I = self.inertia_nodes()
        r = self.r_nodes()
        rho = self.rho_nodes()
        with open(path, "w") as fh:
            fh.write("# lunar-bound/1 trajectory\n")
            fh.write(cols + "\n")
            for i, ti in enumerate(self.t):
                row = [ti]
                row += list(self.y[i, 0:3]) + list(self.y[i, 6:9])
                row += list(self.y[i, 3:6]) + list(self.y[i, 9:12])
                row += [r[i], rho[i], I[i], self.h_resid[i], self.j_resid[i]]
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")

    def events_to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("# lunar-bound/1 events\n")
            fh.write("t,kind,payload\n")
            for ev in self.events:
                payload = ";".join(f"{k}={v!r}" for k, v in sorted(ev.payload.items()))
                fh.write(f"{format(ev.t, '.17g')},{ev.kind},{payload}\n")


# ---------------------------------------------------------------------------
# Events at step ends, localized on the step's dense segment

def _sign_changes(specs, ev_vals, t_now, y_now) -> List[int]:
    """Indices of the events whose value at the step end (flat state y_now)
    has changed sign, in their direction, since the previous step end;
    updates ev_vals."""
    crossed = []
    for k, spec in enumerate(specs):
        g_prev = ev_vals[k]
        g_now = spec.func(t_now, y_now)
        ev_vals[k] = g_now
        if g_prev == g_now or not ((g_prev < 0.0 <= g_now) or (g_prev > 0.0 >= g_now)):
            continue
        rising = g_prev < g_now
        if (spec.direction > 0 and not rising) or (spec.direction < 0 and rising):
            continue
        crossed.append(k)
    return crossed


def _locate_events(specs, crossed, s_prev, s_now, seg, t_now, y_now, events_out) -> Optional[Event]:
    """Polish each crossed event's root in the solver's variable s over the
    step [s_prev, s_now], on the step's dense segment, whose point(s) gives
    the clock's (t, flat state).  Append to events_out, in travel order, the
    events up to the earliest terminal one and return that one, or None.
    (t_now, y_now) is the clock's step end."""
    found = []
    stop, stop_key = None, math.inf
    sgn = 1.0 if s_now >= s_prev else -1.0
    lo, hi = (s_prev, s_now) if s_prev <= s_now else (s_now, s_prev)
    for k in crossed:
        spec = specs[k]

        def gfun(s):
            return spec.func(*seg.point(s))

        g_lo, g_hi = gfun(lo), gfun(hi)
        if g_lo == 0.0:
            root = lo
        elif g_hi == 0.0:
            root = hi
        elif g_lo * g_hi > 0.0:
            # the step-end values bracket a root that the interpolant's
            # endpoint values miss by rounding: the step end satisfies it
            root = None
        else:
            root = brentq(gfun, lo, hi, xtol=1e-14, rtol=8.881784197001252e-16, maxiter=200)
        if root is None:
            root, ev = s_now, Event(t=t_now, kind=spec.name, payload=dict(spec.payload), y=y_now)
        else:
            t, y = seg.point(root)
            ev = Event(t=t, kind=spec.name, payload=dict(spec.payload), y=y)
        key = sgn * root  # travel order
        found.append((key, ev))
        if spec.terminal and key < stop_key:
            stop, stop_key = ev, key
    found.sort(key=lambda kv: kv[0])
    events_out.extend(ev for key, ev in found if key <= stop_key)
    return stop


# ---------------------------------------------------------------------------
# Integration: one step loop, in physical time and in KS stints

def integrate(
    initial: JacobiState,
    mp: MassParams,
    span: Tuple[float, float],
    tol: float = DEFAULT_TOL,
    events: Sequence[EventSpec] = (),
    max_steps: int = DEFAULT_MAX_STEPS,
    kepler_only: bool = False,
    dense: bool = True,
    regularize: bool = False,
) -> Trajectory:
    """Adaptive integration of the full field over span = (t0, t1).

    t1 < t0 integrates backward.  ``tol`` is the stepper's relative and
    absolute tolerance both.  ``kepler_only`` switches off the coupling
    (test hook).  ``dense=False`` keeps no interpolants: a step builds one
    only to localize an event that changes sign over it, and state_at()
    becomes unavailable.  The node arrays t and y are kept either way.

    ``regularize`` passes through inner-binary collisions.  While r is above
    the switch radius r_switch = KS_SWITCH_FRACTION * beta1/|H| the run is
    the same step loop with a passive terminal guard at r = r_switch, so
    non-collisional runs produce bitwise identical trajectories.  Below it
    the inner vector evolves in KS variables with dt = r ds, on the same
    step loop with the KS clock: events, the bound t1 and the radial minima
    are bracketed and polished in s, and the run ends exactly on t1.  Each
    radial minimum whose r is at most KS_COLLISION_FRACTION * r_switch is
    logged as a collision_regularized event carrying the duration of the
    stint, unless it lies past the run's end.  The stint hands back to
    physical time at a step end where r >= KS_EXIT_FACTOR * r_switch.
    Outer collisions (rho -> 0) are not regularized and still raise.

    A phase that fails on a step size underflow raises
    IntegrationSingularityError.
    """
    t0, t1 = float(span[0]), float(span[1])
    if t0 == t1:
        raise ValueError("empty time span")
    h0, _, _, _ = energy_split(initial, mp)
    J0, _, _ = angular_momentum(initial, mp)
    j0 = math.hypot(*J0)
    specs = list(events)
    cart_specs = specs
    if regularize:
        r_switch = KS_SWITCH_FRACTION * mp.beta1 / abs(h0)
        sgn = 1.0 if t1 > t0 else -1.0
        # terminal guard that hands the run to a KS stint at r = r_switch
        guard = EventSpec(name="_switch",
                          func=lambda t, y: math.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2]) - r_switch,
                          direction=-1, terminal=True)
        cart_specs = specs + [guard]
        # in a stint: radial minima, where dr along the travel turns from -
        # to + (those at r ~ 0 are kept below as collisions), and the bound t1
        minimum = EventSpec(name="collision_regularized",
                            func=lambda t, y: sgn * (y[0] * y[6] + y[1] * y[7] + y[2] * y[8]),
                            direction=1)
        bound = EventSpec(name="_completed", func=lambda t, y: t - t1, direction=sgn, terminal=True)
        ks_specs = specs + [minimum, bound]
        ks_rhs = _make_ks_rhs(mp, kepler_only, sgn)
        clock = _KSClock(KS_EXIT_FACTOR * r_switch)

    rhs = make_rhs(mp, kepler_only=kepler_only)
    y_now = initial.as_vector().tolist()
    ts = array("d", [t0])
    ys = array("d", y_now)
    segments: list = []
    out_events: List[Event] = []
    n_steps = 0
    t_now = t0
    mode = "ks" if regularize and initial.r < r_switch else "cart"

    while True:
        if n_steps >= max_steps:
            status = "step_budget_exhausted"
            break
        if mode == "cart":
            res = run_steps(rhs, y_now, t_now, t1, tol, cart_specs, max_steps - n_steps, dense)
        else:
            res = run_steps(ks_rhs, _ks_from_cart(y_now, mp, t_now), 0.0, math.inf, tol,
                            ks_specs, max_steps - n_steps, dense, clock)
        if res.status == "failed":
            raise IntegrationSingularityError(res.message, t=res.exit_t,
                                              state=JacobiState.from_vector(res.exit_y),
                                              n_steps=n_steps + res.n_steps)
        if mode == "ks":
            if res.status == "completed":
                res.ts[-1] = t1  # the stint stopped at its root of t = t1, good to rounding
            # keep the radial minima at r ~ 0, with the stint's duration
            duration = abs(res.ts[-1] - t_now)
            kept = []
            for ev in res.events:
                if ev.kind != minimum.name:
                    kept.append(ev)
                elif math.hypot(*ev.y[0:3]) <= KS_COLLISION_FRACTION * r_switch:
                    kept.append(replace(ev, payload={"duration": duration}))
            res.events = kept
        ts.extend(res.ts)
        ys.extend(res.ys)
        segments.extend(res.segments)
        out_events.extend(res.events)
        n_steps += res.n_steps
        if res.status != "switch":
            status = res.status
            break
        t_now, y_now = res.exit_t, res.exit_y
        mode = "ks" if mode == "cart" else "cart"

    return Trajectory(
        mp=mp,
        t=np.frombuffer(ts),
        y=np.frombuffer(ys).reshape(len(ts), -1),
        dense=DenseSolution(segments) if dense else None,
        events=out_events,
        complete=status in ("completed", "event"),
        status=status,
        n_steps=n_steps,
        h0=h0,
        j0=j0,
    )


@dataclass
class _PhaseResult:
    ts: array            # node times
    ys: array            # node states, flat, row after row
    segments: list
    events: list
    n_steps: int
    status: str          # "completed" | "event" | "step_budget_exhausted" | "switch" | "failed"
    # where a "switch", "event" or "failed" phase ended (on "failed", at the
    # last accepted step), and why it failed
    exit_t: Optional[float] = None
    exit_y: Optional[list] = None
    message: str = ""


def run_steps(fun, y_start, t_start, t1, tol, specs, budget, dense, clock=None) -> _PhaseResult:
    """DOP853 steps of y' = fun(s, y) from (t_start, y_start) toward t1 in
    the solver's own variable s, with fun and states on lists of floats.

    ``clock`` maps the solver's (s, z) to the physical (t, flat y): None is
    the identity (physical time, and any small ODE), a _KSClock runs a KS
    stint in fictitious time.  Events are tested on the clock's (t, y) at
    each step end.  A step's lazy interpolant is made only when ``dense`` is
    set or some event changes sign over the step, and kept only when
    ``dense`` is set; a crossed event is bracketed and Brent-polished in s
    on it.  A terminal event ends the run at its root with status "event";
    an internal one, whose name starts with "_", is not reported and ends
    the run with the status its name spells ("_switch", "_completed").  A
    clock may also end the run with "switch" at a step end.  At most
    ``budget`` steps are taken; a step size underflow ends the run with
    status "failed".
    """
    solver = DOP853(fun, t_start, y_start, t1, rtol=tol, atol=tol)
    t_prev, y_prev = (t_start, solver.y) if clock is None else clock(t_start, solver.y)
    ev_vals = [sp.func(t_prev, y_prev) for sp in specs]
    ts, ys, segments, events = array("d"), array("d"), [], []
    n_steps = 0
    while solver.status == "running":
        if n_steps >= budget:
            return _PhaseResult(ts, ys, segments, events, n_steps, "step_budget_exhausted")
        msg = solver.step()
        if solver.status == "failed":
            return _PhaseResult(ts, ys, segments, events, n_steps, "failed", t_prev, y_prev,
                                f"integrator failed: {msg}")
        n_steps += 1
        if clock is None:
            t_now, y_now = solver.t, solver.y
        else:
            t_now, y_now = clock(solver.t, solver.y)
        crossed = _sign_changes(specs, ev_vals, t_now, y_now)
        seg = None
        if dense or crossed:
            seg = solver.dense_output()
            if clock is not None:
                seg = clock.segment(seg, t_prev, t_now)
        if dense:
            segments.append(seg)
        if crossed:
            found: List[Event] = []
            stop = _locate_events(specs, crossed, solver.t_old, solver.t, seg, t_now, y_now, found)
            events.extend(ev for ev in found if not ev.kind.startswith("_"))
            if stop is not None:
                ts.append(stop.t)
                ys.extend(stop.y)
                status = stop.kind[1:] if stop.kind.startswith("_") else "event"
                return _PhaseResult(ts, ys, segments, events, n_steps, status, stop.t, stop.y)
        ts.append(t_now)
        ys.extend(y_now)
        if clock is not None and clock.exits(solver.y):
            return _PhaseResult(ts, ys, segments, events, n_steps, "switch", t_now, y_now)
        t_prev, y_prev = t_now, y_now
    return _PhaseResult(ts, ys, segments, events, n_steps, "completed")


# ---------------------------------------------------------------------------
# Kustaanheimo-Stiefel regularized integration

# KS state layout: [u(4), u'(4), h1, t, xi2(3), v2(3)] -> 16 components
_KS_T = 9


def _ks_from_cart(y, mp: MassParams, t: float) -> list:
    """The 16-dim KS state [u, u', h1, t, xi2, dxi2] of the flat Jacobi
    state y at physical time t, on Python floats."""
    x, y1, z, x2, y2, z2, vx, vy, vz, vx2, vy2, vz2 = y
    r = math.sqrt(x * x + y1 * y1 + z * z)
    if x >= 0.0:
        u1 = math.sqrt(0.5 * (r + x))
        u2, u3, u4 = 0.5 * y1 / u1, 0.5 * z / u1, 0.0
    else:
        u2 = math.sqrt(0.5 * (r - x))
        u1, u3, u4 = 0.5 * y1 / u2, 0.0, 0.5 * z / u2
    # u' = L(u)^T dxi1 / 2, with L(u) the 3x4 KS matrix
    up = [0.5 * (u1 * vx + u2 * vy + u3 * vz),
          0.5 * (-u2 * vx + u1 * vy + u4 * vz),
          0.5 * (-u3 * vx - u4 * vy + u1 * vz),
          0.5 * (u4 * vx - u3 * vy + u2 * vz)]
    h1 = 0.5 * (vx * vx + vy * vy + vz * vz) - mp.mu / r
    return [u1, u2, u3, u4] + up + [h1, t, x2, y2, z2, vx2, vy2, vz2]


def _ks_to_cart(z) -> list:
    """Map the 16-dim KS state to the flat 12-dim Jacobi state, on Python
    floats: xi1 = L(u) u and dxi1 = (2 / r) L(u) u'."""
    u1, u2, u3, u4, p1, p2, p3, p4, _, _, x2, y2, z2, vx2, vy2, vz2 = z
    r = u1 * u1 + u2 * u2 + u3 * u3 + u4 * u4
    c = 2.0 / r if r > 0.0 else 0.0
    return [
        u1 * u1 - u2 * u2 - u3 * u3 + u4 * u4, 2.0 * (u1 * u2 - u3 * u4), 2.0 * (u1 * u3 + u2 * u4),
        x2, y2, z2,
        c * (u1 * p1 - u2 * p2 - u3 * p3 + u4 * p4),
        c * (u2 * p1 + u1 * p2 - u4 * p3 - u3 * p4),
        c * (u3 * p1 + u4 * p2 + u1 * p3 + u2 * p4),
        vx2, vy2, vz2,
    ]


class _KSClock:
    """The clock of a KS stint on run_steps: maps the solver's (s, z) to the
    physical (t, flat y), with t the state component _KS_T; makes a step's
    segment indexed by physical time; and ends the stint at a step end where
    r = |u|^2 has climbed to r_exit (a step-end test: the 2x hysteresis
    band makes the exact crossing irrelevant)."""

    __slots__ = ("r_exit",)
    segment = _KSSegment

    def __init__(self, r_exit: float):
        self.r_exit = r_exit

    def __call__(self, s, z):
        return z[_KS_T], _ks_to_cart(z)

    def exits(self, z) -> bool:
        return z[0] * z[0] + z[1] * z[1] + z[2] * z[2] + z[3] * z[3] >= self.r_exit


def _make_ks_rhs(mp: MassParams, kepler_only: bool, direction: float):
    """Fictitious-time field: d/ds = direction * r * d/dt plus the oscillator
    form of the inner equation.  Regular at r = 0.  Takes and returns lists
    of Python floats, like core.make_rhs, with the coupling from core's
    kernel."""
    M = mp.M
    a1, a2 = mp.alpha1, mp.alpha2
    coupling = _coupling_kernel(mp, kepler_only)
    d = direction

    def field(z):
        u1, u2, u3, u4, p1, p2, p3, p4, h1, _, x2, y2, z2, vx, vy, vz = z
        r = u1 * u1 + u2 * u2 + u3 * u3 + u4 * u4
        # xi1 = L(u) u, with L(u) the 3x4 KS matrix
        x1 = u1 * u1 - u2 * u2 - u3 * u3 + u4 * u4
        y1 = 2.0 * (u1 * u2 - u3 * u4)
        z1 = 2.0 * (u1 * u3 + u2 * u4)
        rho2 = x2 * x2 + y2 * y2 + z2 * z2
        rho3 = rho2 * math.sqrt(rho2)
        g1x, g1y, g1z, g2x, g2y, g2z = coupling(x1, y1, z1, x2, y2, z2, rho3)
        Px, Py, Pz = -g1x / a1, -g1y / a1, -g1z / a1
        c2 = -M / rho3
        hh, hr, dr = 0.5 * h1, 0.5 * r, d * r
        # (L(u) u') . P, where L(u) u' = (r / 2) dxi1/dt
        lp = ((u1 * p1 - u2 * p2 - u3 * p3 + u4 * p4) * Px
              + (u2 * p1 + u1 * p2 - u4 * p3 - u3 * p4) * Py
              + (u3 * p1 + u4 * p2 + u1 * p3 + u2 * p4) * Pz)
        return [
            d * p1, d * p2, d * p3, d * p4,
            # 0.5 h1 u + 0.5 r L(u)^T P
            d * (hh * u1 + hr * (u1 * Px + u2 * Py + u3 * Pz)),
            d * (hh * u2 + hr * (-u2 * Px + u1 * Py + u4 * Pz)),
            d * (hh * u3 + hr * (-u3 * Px - u4 * Py + u1 * Pz)),
            d * (hh * u4 + hr * (u4 * Px - u3 * Py + u2 * Pz)),
            d * 2.0 * lp,
            dr, dr * vx, dr * vy, dr * vz,
            dr * (c2 * x2 - g2x / a2), dr * (c2 * y2 - g2y / a2), dr * (c2 * z2 - g2z / a2),
        ]

    return _float_rhs(field)
