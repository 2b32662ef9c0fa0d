"""High-accuracy integration of the coupled system with events.

The stepper is DOP853 (8th order with embedded error control and a
7th-order dense interpolant), an in-repo driver on scipy's own tableau that
reproduces scipy.integrate.DOP853's arithmetic without its per-call
wrappers.  It is driven manually so that we control the step budget, event
localization and the coordinate switches of the regularized path.
Backward time is first class: pass t1 < t0.

Event functions are evaluated on the state at the end of each accepted
step.  Only a step over which one of them changes sign pays for the
dense interpolant (three extra RHS stages); the root is polished on it with
Brent's method, so event times are good to ~1e-12 relative.

Collisions of the inner binary can be crossed by switching the short Jacobi
vector to Kustaanheimo-Stiefel variables with the time rescaling dt = r ds
while r is below a switch radius (integrate_regularized); the outer vector
stays in physical coordinates, evolved in the fictitious time alongside.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.optimize import brentq

from .core import (
    JacobiState, MassParams, _coupling_kernel, _float_rhs, angular_momentum, energy_split, make_rhs,
    moment_of_inertia,
)

__all__ = [
    "IntegrationSingularityError",
    "EventSpec",
    "Event",
    "Trajectory",
    "integrate",
    "integrate_regularized",
    "detect_I_crossing",
    "detect_syzygy",
    "outer_pericenter_event",
]

DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-12
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

    Carries the last valid time and state.
    """

    def __init__(self, message: str, t: float, state: JacobiState):
        super().__init__(message)
        self.t = t
        self.state = state


@dataclass(frozen=True)
class EventSpec:
    """Scalar event g(t, state) with a sign-change direction.

    direction +1 fires on -> +, -1 on + -> -, 0 on both.  Terminal events
    stop the integration at the root.
    """

    name: str
    func: Callable[[float, JacobiState], float]
    direction: int = 0
    terminal: bool = False
    payload: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Event:
    t: float
    kind: str
    payload: dict
    state: JacobiState


def outer_pericenter_event() -> EventSpec:
    """d(rho)/dt changes sign - to +, i.e. xi2 . dxi2 crosses zero upward."""
    return EventSpec(
        name="outer_pericenter",
        func=lambda t, st: float(st.xi2 @ st.dxi2),
        direction=+1,
    )


# ---------------------------------------------------------------------------
# The stepper

class DOP853:
    """scipy.integrate.DOP853 without OdeSolver's per-call wrappers.

    Scipy's tableau (Hairer, Norsett and Wanner) with scipy's operations in
    scipy's order: the same np.dot operand layouts, error norm, step-size
    control and initial step, so t, y, status and dense output are bitwise
    equal to scipy's.  Scalars are Python floats; tolerances are scalars
    with scipy's checks.  A step below ten float spacings of t sets status
    "failed" and returns scipy's message.
    """

    TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
    _N = _dop.N_STAGES
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
        self.fun, self.rtol, self.atol = fun, rtol, atol
        self.t, self.y, self.t_bound = t0, y0, t_bound
        self.t_old = self.y_old = self.h_previous = None
        self.direction = 1.0 if t_bound >= t0 else -1.0
        self.status = "running"
        self.n = n = y0.size
        K = self._K = np.empty((_dop.N_STAGES_EXTENDED, n))
        A, C, N = _dop.A, _dop.C.tolist(), self._N
        # per-stage views K[:s].T, as scipy's rk_step slices them each call
        self._stages = [(s, K[:s].T, A[s, :s], C[s]) for s in range(1, N)]
        self._extra = [(s, K[:s].T, A[s, :s], C[s]) for s in range(N + 1, len(C))]
        self._KT_b = K[:N].T
        self._KT_e = K[:N + 1].T
        self.f = fun(t0, y0)
        self.h_abs = self._initial_step()

    def _norm(self, x) -> float:
        return math.sqrt(x.dot(x)) / self.n ** 0.5

    def _initial_step(self) -> float:
        t0, y0, f0, direction = self.t, self.y, self.f, self.direction
        interval_length = abs(self.t_bound - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = self._norm(y0 / scale)
        d1 = self._norm(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = self.fun(t0 + h0 * direction, y0 + h0 * direction * f0)
        d2 = self._norm((f1 - f0) / scale) / h0
        h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
              else (0.01 / max(d1, d2)) ** (1 / 8))
        return min(100 * h0, h1, interval_length)

    def step(self):
        """Advance one accepted step; returns None, or the failure message."""
        fun, K = self.fun, self._K
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
            K[0] = f
            for s, KT, a, c in self._stages:
                K[s] = fun(t + c * h, y + np.dot(KT, a) * h)
            y_new = y + h * np.dot(self._KT_b, _dop.B)
            f_new = fun(t + h, y_new)
            K[self._N] = f_new
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            err5 = np.dot(self._KT_e, _dop.E5) / scale
            err3 = np.dot(self._KT_e, _dop.E3) / scale
            e5 = math.sqrt(err5.dot(err5)) ** 2
            e3 = math.sqrt(err3.dot(err3)) ** 2
            error_norm = (0.0 if e5 == 0 and e3 == 0
                          else abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * self.n))
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** self._EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** self._EXPONENT)
            rejected = True
        self.h_previous, self.t_old, self.y_old = h, t, y
        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs
        if direction * (t_new - t_bound) >= 0:
            self.status = "finished"
        return None

    def dense_output(self) -> Dop853DenseOutput:
        """The 7th-order interpolant over the last step (3 extra stages)."""
        K, h, t_old, y_old = self._K, self.h_previous, self.t_old, self.y_old
        for s, KT, a, c in self._extra:
            K[s] = self.fun(t_old + c * h, y_old + np.dot(KT, a) * h)
        F = np.empty((_dop.INTERPOLATOR_POWER, self.n))
        f_old = K[0]
        delta_y = self.y - y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (self.f + f_old)
        F[3:] = h * np.dot(_dop.D, K)
        return Dop853DenseOutput(t_old, self.t, y_old, F)


# ---------------------------------------------------------------------------
# Dense output across segments (physical and regularized)

class _CartSegment:
    """One accepted step of the physical-coordinate solver."""

    __slots__ = ("t_lo", "t_hi", "interp")

    def __init__(self, interp):
        self.interp = interp
        self.t_lo = min(interp.t_min, interp.t_max)
        self.t_hi = max(interp.t_min, interp.t_max)

    def state_vector(self, t: float) -> np.ndarray:
        return self.interp(t)


class _KSSegment:
    """One accepted step of the regularized solver, indexed by physical time.

    The fictitious-time interpolant is inverted through the monotone t(s)
    component when queried at a physical time.
    """

    __slots__ = ("t_lo", "t_hi", "s_lo", "s_hi", "interp")

    def __init__(self, interp, t_lo, t_hi):
        self.interp = interp
        self.s_lo = min(interp.t_min, interp.t_max)
        self.s_hi = max(interp.t_min, interp.t_max)
        self.t_lo = min(t_lo, t_hi)
        self.t_hi = max(t_lo, t_hi)

    def state_vector(self, t: float) -> np.ndarray:
        z = self.interp(self._s_of_t(t))
        return _ks_to_cart_vector(z)

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
        self.segments = list(segments)
        # lookup table sorted ascending in time regardless of travel direction
        self._ordered = sorted(self.segments, key=lambda s: s.t_lo)
        self._starts = [seg.t_lo for seg in self._ordered]

    def __call__(self, t: float) -> np.ndarray:
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
    energy and angular momentum magnitude against their initial values,
    computed from the node arrays on first read.  complete is False when a
    step or time budget cut the run short.
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
        mp = self.mp
        xi1, xi2, dxi1, dxi2 = self.y[:, 0:3], self.y[:, 3:6], self.y[:, 6:9], self.y[:, 9:12]
        rho = _norms(xi2)
        H1 = 0.5 * mp.alpha1 * _sq_norms(dxi1) - mp.beta1 / _norms(xi1)
        H2 = 0.5 * mp.alpha2 * _sq_norms(dxi2) - mp.beta2 / rho
        g = (mp.beta2 / rho - mp.m1 * mp.m3 / _norms(xi2 + mp.mu2 * xi1)
             - mp.m2 * mp.m3 / _norms(xi2 - mp.mu1 * xi1))
        return (H1 + H2 + g - self.h0) / max(abs(self.h0), 1e-300)

    @cached_property
    def j_resid(self) -> np.ndarray:
        mp = self.mp
        y = self.y
        J = mp.alpha1 * np.cross(y[:, 0:3], y[:, 6:9]) + mp.alpha2 * np.cross(y[:, 3:6], y[:, 9:12])
        j = _norms(J)
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
        a1, a2 = self.mp.alpha1, self.mp.alpha2
        r2 = np.sum(self.y[:, 0:3] ** 2, axis=1)
        p2 = np.sum(self.y[:, 3:6] ** 2, axis=1)
        return a1 * r2 + a2 * p2

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


def _sq_norms(a: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, a)


def _norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_sq_norms(a))


# ---------------------------------------------------------------------------
# Events at step ends, localized on the step's dense segment

def _state_on(seg, t: float) -> JacobiState:
    return JacobiState.from_vector(seg.state_vector(t))


def _sign_changes(specs, ev_vals, t_now, state_now) -> List[int]:
    """Indices of the events whose value at the step end has changed sign,
    in their direction, since the previous step end; updates ev_vals."""
    crossed = []
    for k, spec in enumerate(specs):
        g_prev = ev_vals[k]
        g_now = spec.func(t_now, state_now)
        ev_vals[k] = g_now
        if g_prev == g_now or not ((g_prev < 0.0 <= g_now) or (g_prev > 0.0 >= g_now)):
            continue
        rising = g_prev < g_now
        if (spec.direction > 0 and not rising) or (spec.direction < 0 and rising):
            continue
        crossed.append(k)
    return crossed


def _locate_events(specs, crossed, t_prev, t_now, seg, state_now, events_out) -> Optional[Event]:
    """Polish each crossed event's root on the step's dense segment and
    append it to events_out; return the earliest terminal event (in travel
    order) or None."""
    stop = None
    sgn = 1.0 if t_now >= t_prev else -1.0
    lo, hi = (t_prev, t_now) if t_prev <= t_now else (t_now, t_prev)
    for k in crossed:
        spec = specs[k]

        def gfun(t):
            return spec.func(t, _state_on(seg, t))

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
            ev = Event(t=t_now, kind=spec.name, payload=dict(spec.payload), state=state_now)
        else:
            ev = Event(t=root, kind=spec.name, payload=dict(spec.payload), state=_state_on(seg, root))
        events_out.append(ev)
        if spec.terminal and (stop is None or sgn * ev.t < sgn * stop.t):
            stop = ev
    return stop


# ---------------------------------------------------------------------------
# Integration: one step loop for physical coordinates

def integrate(
    initial: JacobiState,
    mp: MassParams,
    span: Tuple[float, float],
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    events: Sequence[EventSpec] = (),
    max_steps: int = DEFAULT_MAX_STEPS,
    kepler_only: bool = False,
    dense: bool = True,
) -> Trajectory:
    """Adaptive integration of the full field over span = (t0, t1).

    t1 < t0 integrates backward.  ``kepler_only`` switches off the coupling
    (test hook).  ``dense=False`` keeps no interpolants: a step builds one
    only to localize an event that changes sign over it, and state_at()
    becomes unavailable.  The node arrays t and y are kept either way.
    """
    return _integrate(initial, mp, span, rtol, atol, events, max_steps, kepler_only, dense,
                      regularize=False, r_switch=None)


def _integrate(initial, mp, span, rtol, atol, events, max_steps, kepler_only, dense,
               regularize, r_switch) -> Trajectory:
    """Run shared by integrate() and integrate_regularized(): physical
    phases, and with ``regularize`` KS phases below r_switch (by default
    KS_SWITCH_FRACTION of the binary's natural length)."""
    t0, t1 = float(span[0]), float(span[1])
    if t0 == t1:
        raise ValueError("empty time span")
    h0, _, _, _ = energy_split(initial, mp)
    J0, _, _ = angular_momentum(initial, mp)
    j0 = float(np.linalg.norm(J0))
    if regularize and r_switch is None:
        r_switch = KS_SWITCH_FRACTION * mp.beta1 / abs(h0)

    rhs = make_rhs(mp, kepler_only=kepler_only)
    specs = list(events)
    ts = [t0]
    ys = [initial.as_vector()]
    segments: list = []
    out_events: List[Event] = []
    n_steps = 0
    state = initial
    t_now = t0
    mode = "ks" if r_switch is not None and state.r < r_switch else "cart"

    while True:
        if n_steps >= max_steps:
            status = "step_budget_exhausted"
            break
        if mode == "cart":
            res = _run_cart_phase(
                rhs, state, t_now, t1, rtol, atol, specs, max_steps - n_steps, dense, r_switch,
            )
        else:
            res = _run_ks_phase(
                mp, state, t_now, t1, rtol, atol, specs, max_steps - n_steps, dense,
                KS_EXIT_FACTOR * r_switch, r_switch, kepler_only, 1.0 if t1 > t0 else -1.0,
            )
        ts.extend(res.ts)
        ys.extend(res.ys)
        segments.extend(res.segments)
        out_events.extend(res.events)
        n_steps += res.n_steps
        if res.status != "switch":
            status = res.status
            break
        state = res.exit_state
        t_now = res.exit_t
        mode = res.next_mode

    return Trajectory(
        mp=mp,
        t=np.array(ts),
        y=np.array(ys),
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
    ts: list
    ys: list
    segments: list
    events: list
    n_steps: int
    status: str          # "completed" | "event" | "step_budget_exhausted" | "switch"
    next_mode: str       # "cart" | "ks" (meaningful when status == "switch")
    exit_state: Optional[JacobiState] = None
    exit_t: Optional[float] = None


_KS_ENTER = "_ks_enter"


def _run_cart_phase(rhs, state, t_start, t1, rtol, atol, specs, budget, dense,
                    r_switch) -> _PhaseResult:
    """Physical-coordinate steps from (t_start, state) toward t1.

    Events are tested on each step-end state; the step's interpolant is
    built only when ``dense`` is set or some event changes sign over the
    step, and kept only when ``dense`` is set.  With r_switch, a terminal
    guard at r = r_switch ends the phase with status "switch".
    """
    solver = DOP853(rhs, t_start, state.as_vector(), t1, rtol=rtol, atol=atol)
    if r_switch is not None:
        guard = EventSpec(name=_KS_ENTER, func=lambda t, st: st.r - r_switch,
                          direction=-1, terminal=True)
        specs = specs + [guard]
    ev_vals = [sp.func(t_start, state) for sp in specs]
    ts, ys, segments, events = [], [], [], []
    sgn = 1.0 if t1 > t_start else -1.0
    t_prev = t_start
    n_steps = 0
    while solver.status == "running":
        if n_steps >= budget:
            return _PhaseResult(ts, ys, segments, events, n_steps, "step_budget_exhausted", "cart")
        msg = solver.step()
        if solver.status == "failed":
            last = JacobiState.from_vector(ys[-1] if ys else state.as_vector())
            raise IntegrationSingularityError(f"integrator failed: {msg}", t=t_prev, state=last)
        n_steps += 1
        t_now = solver.t
        y_now = solver.y
        state_now = JacobiState.from_vector(y_now) if specs else None
        crossed = _sign_changes(specs, ev_vals, t_now, state_now)
        seg = _CartSegment(solver.dense_output()) if dense or crossed else None
        if dense:
            segments.append(seg)
        if crossed:
            found: List[Event] = []
            stop = _locate_events(specs, crossed, t_prev, t_now, seg, state_now, found)
            if stop is not None:
                events.extend(ev for ev in found
                              if ev.kind != _KS_ENTER and sgn * ev.t <= sgn * stop.t)
                ts.append(stop.t)
                ys.append(stop.state.as_vector())
                if stop.kind == _KS_ENTER:
                    return _PhaseResult(ts, ys, segments, events, n_steps, "switch", "ks",
                                        stop.state, stop.t)
                return _PhaseResult(ts, ys, segments, events, n_steps, "event", "cart")
            events.extend(found)
        ts.append(t_now)
        ys.append(y_now)
        t_prev = t_now
    return _PhaseResult(ts, ys, segments, events, n_steps, "completed", "cart")


# ---------------------------------------------------------------------------
# Post-hoc event scans

def detect_I_crossing(traj: Trajectory, level: float) -> List[Event]:
    """All crossings of I(t) = level on the stored trajectory, polished on
    the dense output.  Payload carries the level and crossing direction
    (-1 entering I <= level, +1 leaving)."""
    mp = traj.mp
    vals = traj.inertia_nodes() - level
    out: List[Event] = []
    if traj.dense is None:
        raise ValueError("dense output required for crossing detection")

    def g(t):
        return traj.inertia_at(t) - level

    for i in range(len(traj.t) - 1):
        a, b = vals[i], vals[i + 1]
        if (a < 0.0 <= b) or (a > 0.0 >= b):
            lo, hi = sorted((float(traj.t[i]), float(traj.t[i + 1])))
            root = brentq(g, lo, hi, xtol=1e-14, rtol=8.881784197001252e-16)
            direction = -1 if a > 0.0 else +1
            out.append(
                Event(
                    t=root,
                    kind="i_crossing",
                    payload={"level": level, "direction": direction},
                    state=traj.state_at(root),
                )
            )
    return out


def detect_syzygy(traj: Trajectory, plane_tol: float = 1e-10) -> Optional[List[Event]]:
    """Collinearity events of a planar trajectory, typed by the middle mass.

    Returns None (not applicable) when the motion is not planar to
    plane_tol: collinear instants have codimension two in space, so scanning
    for them only makes sense in the plane.
    """
    mp = traj.mp
    y = traj.y
    # common plane normal: least-singular direction of all position and
    # velocity vectors (robust even for collinear or 1-D motion)
    take = np.linspace(0, len(y) - 1, min(len(y), 64)).astype(int)
    rows = np.concatenate([y[take, 0:3], y[take, 3:6], y[take, 6:9], y[take, 9:12]])
    norms = np.linalg.norm(rows, axis=1)
    rows_n = rows[norms > 0] / norms[norms > 0, None]
    if rows_n.shape[0] == 0:
        return None
    _, _, vt = np.linalg.svd(rows_n, full_matrices=True)
    n_hat = vt[-1]
    scale = max(np.abs(y[:, 0:6]).max(), 1e-300)
    for i in range(len(y)):
        for block in (0, 3, 6, 9):
            if abs(float(y[i, block:block + 3] @ n_hat)) > plane_tol * scale:
                return None

    def syz(t, st: JacobiState) -> float:
        # collinear iff the two relative position vectors are parallel
        return float(np.cross(st.xi1, st.xi2) @ n_hat)

    def middle_mass(st: JacobiState) -> int:
        from .core import from_jacobi

        cart = from_jacobi(st, mp)
        qs = [cart.q1, cart.q2, cart.q3]
        d = st.xi1 / max(np.linalg.norm(st.xi1), 1e-300)
        params = sorted(range(3), key=lambda i: float(qs[i] @ d))
        return params[1] + 1

    out: List[Event] = []
    vals = [syz(float(traj.t[i]), JacobiState.from_vector(y[i])) for i in range(len(y))]
    if abs(vals[0]) == 0.0:
        st0 = JacobiState.from_vector(y[0])
        out.append(
            Event(
                t=float(traj.t[0]),
                kind="syzygy",
                payload={"middle_mass": middle_mass(st0)},
                state=st0,
            )
        )

    def g(t):
        return syz(t, traj.state_at(t))

    for i in range(len(y) - 1):
        a, b = vals[i], vals[i + 1]
        if (a < 0.0 <= b) or (a > 0.0 >= b):
            lo, hi = sorted((float(traj.t[i]), float(traj.t[i + 1])))
            root = brentq(g, lo, hi, xtol=1e-14, rtol=8.881784197001252e-16)
            st = traj.state_at(root)
            out.append(
                Event(
                    t=root,
                    kind="syzygy",
                    payload={"middle_mass": middle_mass(st)},
                    state=st,
                )
            )
    return out


# ---------------------------------------------------------------------------
# Kustaanheimo-Stiefel regularized integration

# KS state layout: [u(4), u'(4), h1, t, xi2(3), v2(3)] -> 16 components
_KS_T = 9


def _ks_matrix(u: np.ndarray) -> np.ndarray:
    u1, u2, u3, u4 = u
    return np.array(
        [
            [u1, -u2, -u3, u4],
            [u2, u1, -u4, -u3],
            [u3, u4, u1, u2],
        ]
    )


def _ks_from_cart(xi1: np.ndarray, dxi1: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    x, y, z = xi1
    r = float(np.linalg.norm(xi1))
    u = np.empty(4)
    if x >= 0.0:
        u[0] = math.sqrt(0.5 * (r + x))
        u[3] = 0.0
        u[1] = 0.5 * y / u[0]
        u[2] = 0.5 * z / u[0]
    else:
        u[1] = math.sqrt(0.5 * (r - x))
        u[2] = 0.0
        u[0] = 0.5 * y / u[1]
        u[3] = 0.5 * z / u[1]
    up = 0.5 * (_ks_matrix(u).T @ dxi1)
    return u, up


def _ks_to_cart_vector(z: np.ndarray) -> np.ndarray:
    """Map the 16-dim KS state to the flat 12-dim Jacobi vector."""
    u = z[0:4]
    up = z[4:8]
    r = float(u @ u)
    L = _ks_matrix(u)
    xi1 = L @ u
    dxi1 = (2.0 / r) * (L @ up) if r > 0.0 else np.zeros(3)
    return np.concatenate([xi1, z[10:13], dxi1, z[13:16]])


def _make_ks_rhs(mp: MassParams, kepler_only: bool, direction: float):
    """Fictitious-time field: d/ds = direction * r * d/dt plus the oscillator
    form of the inner equation.  Regular at r = 0.  Python floats, with the
    coupling from core's kernel."""
    M = mp.M
    a1, a2 = mp.alpha1, mp.alpha2
    coupling = _coupling_kernel(mp, kepler_only)
    d = direction

    def field(z):
        u1, u2, u3, u4, p1, p2, p3, p4, h1, _, x2, y2, z2, vx, vy, vz = z
        r = u1 * u1 + u2 * u2 + u3 * u3 + u4 * u4
        # xi1 = L(u) u, with L the KS matrix (_ks_matrix)
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
        return np.array([
            d * p1, d * p2, d * p3, d * p4,
            # 0.5 h1 u + 0.5 r L(u)^T P
            d * (hh * u1 + hr * (u1 * Px + u2 * Py + u3 * Pz)),
            d * (hh * u2 + hr * (-u2 * Px + u1 * Py + u4 * Pz)),
            d * (hh * u3 + hr * (-u3 * Px - u4 * Py + u1 * Pz)),
            d * (hh * u4 + hr * (u4 * Px - u3 * Py + u2 * Pz)),
            d * 2.0 * lp,
            dr, dr * vx, dr * vy, dr * vz,
            dr * (c2 * x2 - g2x / a2), dr * (c2 * y2 - g2y / a2), dr * (c2 * z2 - g2z / a2),
        ])

    return _float_rhs(field)


def integrate_regularized(
    initial: JacobiState,
    mp: MassParams,
    span: Tuple[float, float],
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    events: Sequence[EventSpec] = (),
    max_steps: int = DEFAULT_MAX_STEPS,
    kepler_only: bool = False,
    dense: bool = True,
    r_switch: Optional[float] = None,
) -> Trajectory:
    """Like integrate(), but passes through inner-binary collisions.

    While r > r_switch this runs the step loop of integrate() with a passive
    terminal guard at r = r_switch, so non-collisional runs produce bitwise
    identical trajectories.  Below the switch radius the inner vector
    evolves in KS variables with dt = r ds; each passage whose radial
    minimum is consistent with r = 0 is logged as a collision_regularized
    event carrying the duration of the regularized stint.  Outer collisions
    (rho -> 0) are not regularized and still raise.
    """
    return _integrate(initial, mp, span, rtol, atol, events, max_steps, kepler_only, dense,
                      regularize=True, r_switch=r_switch)


def _run_ks_phase(mp, state, t_start, t1, rtol, atol, specs, budget, dense,
                  r_exit, r_switch, kepler_only, direction):
    """Regularized phase: integrate in fictitious time until r climbs back
    through r_exit, the physical time bound is hit, or budgets run out."""
    u, up = _ks_from_cart(state.xi1, state.dxi1)
    h1 = 0.5 * float(state.dxi1 @ state.dxi1) - mp.mu / state.r
    z0 = np.concatenate([u, up, [h1, t_start], state.xi2, state.dxi2])
    rhs = _make_ks_rhs(mp, kepler_only, direction)
    # fictitious-time horizon: ds ~ dt/r, be generous and let events stop us
    s_max = abs(t1 - t_start) / max(r_switch * 1e-6, 1e-12) + 10.0
    solver = DOP853(rhs, 0.0, z0, s_max, rtol=rtol, atol=atol)

    ts, ys, segments, events = [], [], [], []
    ev_vals = [sp.func(t_start, state) for sp in specs]
    sgn = direction
    stint_t0 = t_start
    collision_roots = []  # physical times of radial minima at ~zero radius
    n_steps = 0
    prev_z = z0
    prev_s = 0.0
    while solver.status == "running":
        if n_steps >= budget:
            _log_collisions(events, collision_roots, stint_t0, prev_z[_KS_T])
            return _PhaseResult(ts, ys, segments, events, n_steps,
                                "step_budget_exhausted", "ks")
        msg = solver.step()
        if solver.status == "failed":
            last = JacobiState.from_vector(_ks_to_cart_vector(prev_z))
            raise IntegrationSingularityError(
                f"regularized integrator failed: {msg}", t=prev_z[_KS_T], state=last
            )
        n_steps += 1
        interp = solver.dense_output()
        t_prev = prev_z[_KS_T]
        t_now = solver.y[_KS_T]
        seg = _KSSegment(interp, t_prev, t_now)
        if dense:
            segments.append(seg)

        # radial minima: dr/d(travel) crossing - -> +, i.e. direction * u.u'
        # changing sign upward; collision when r at the minimum is ~ 0
        f_prev = direction * float(prev_z[0:4] @ prev_z[4:8])
        f_now = direction * float(solver.y[0:4] @ solver.y[4:8])
        if f_prev < 0.0 <= f_now:
            sfun = lambda s: direction * float(interp(s)[0:4] @ interp(s)[4:8])
            s_root = brentq(sfun, prev_s, solver.t, xtol=1e-15, maxiter=200)
            z_root = interp(s_root)
            r_here = float(z_root[0:4] @ z_root[0:4])
            if r_here <= KS_COLLISION_FRACTION * r_switch:
                st_col = JacobiState.from_vector(_ks_to_cart_vector(z_root))
                collision_roots.append((float(z_root[_KS_T]), st_col))

        y_now = _ks_to_cart_vector(solver.y)
        state_now = JacobiState.from_vector(y_now)
        local_events: List[Event] = []
        crossed = _sign_changes(specs, ev_vals, t_now, state_now)
        stop = _locate_events(specs, crossed, t_prev, t_now, seg, state_now, local_events)

        # physical time bound
        passed_bound = (direction > 0 and t_now >= t1) or (direction < 0 and t_now <= t1)
        exit_r = float(solver.y[0:4] @ solver.y[0:4])
        if stop is not None:
            events.extend(ev for ev in local_events if sgn * ev.t <= sgn * stop.t)
            ts.append(stop.t)
            ys.append(stop.state.as_vector())
            _log_collisions(events, collision_roots, stint_t0, stop.t)
            return _PhaseResult(ts, ys, segments, events, n_steps, "event", "ks")
        if passed_bound:
            events.extend(ev for ev in local_events if sgn * ev.t <= sgn * t1)
            ts.append(t1)
            ys.append(seg.state_vector(t1))
            _log_collisions(events, collision_roots, stint_t0, t1)
            return _PhaseResult(ts, ys, segments, events, n_steps, "completed", "ks")
        events.extend(local_events)
        ts.append(t_now)
        ys.append(y_now)
        if exit_r >= r_exit:
            _log_collisions(events, collision_roots, stint_t0, t_now)
            return _PhaseResult(ts, ys, segments, events, n_steps, "switch", "cart",
                                state_now, t_now)
        prev_z = solver.y
        prev_s = solver.t
    return _PhaseResult(ts, ys, segments, events, n_steps, "completed", "ks")


def _log_collisions(events, roots, t_enter, t_exit):
    duration = abs(t_exit - t_enter)
    for t_col, st_col in roots:
        events.append(
            Event(
                t=t_col,
                kind="collision_regularized",
                payload={"duration": duration},
                state=st_col,
            )
        )
    roots.clear()
