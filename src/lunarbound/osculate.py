"""Osculating orbits and the comparison machinery around them.

The osculating orbit at time t is the exact Kepler solution sharing position
and velocity with the true motion at t.  This module freezes them out of
trajectories, measures how far the true outer radius drifts from the
osculating one, and integrates the one-dimensional comparison equations that
sandwich both radii between a minorant and a majorant solution.  The same
deviation estimate, applied to one state's osculating orbit, certifies entry
into a low-inertia level without integrating (certify_entry).

All bound checks here are qualified the same way the estimates are: they
apply while the motion stays at or above the reference inertia level, for
times up to the stated horizon, and (for the sandwich pair) while the
comparison field stays monotone.  Outside those windows the checks are
truncated, not failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import kepler
from .bounds import BoundSet, _dot3
from .core import JacobiState, MassParams, _float_rhs
from .integrate import DEFAULT_TOL, DenseSolution, EventSpec, Trajectory, run_steps
from .roots import brentq

__all__ = [
    "osculating_orbit",
    "SandwichParams",
    "sandwich_params",
    "SandwichSolution",
    "sandwich_ode",
    "eta_bound",
    "verify_deviation",
    "certify_entry",
]


def osculating_orbit(
    traj: Trajectory, t: float
) -> Tuple[kepler.KeplerElements, kepler.TwoBodyState]:
    """Freeze the outer Jacobi vector at time t into a two-body problem with
    kappa = M."""
    if traj.dense is None:
        raise ValueError("trajectory stored without dense output")
    y = traj.dense(t)
    tb = kepler.TwoBodyState(xi=y[3:6], dxi=y[9:12], kappa=traj.mp.M)
    if tb.r == 0.0:
        raise ValueError(f"degenerate radius at t = {t}")
    return kepler.elements_from_state(tb), tb


@dataclass(frozen=True)
class SandwichParams:
    """Inputs of the radial comparison equations at a reference level I_bar.

    omega = k eps^3 is the Lipschitz constant of the osculating radial field
    above rho_bar, with k = min(2M + 3 c0^2, 2M + 3 c_J2^2), which lies in
    [2M, 2M + 3 c_J2^2]; eta_bound(t) = (2 a eps^4/omega)(cosh(sqrt(omega) t)
    - 1) dominates the gap between the comparison solutions and stays below
    A1 eps through the horizon.
    """

    epsilon: float
    a: float
    k: float
    omega: float
    c0: float
    time_horizon: float


def sandwich_params(bs: BoundSet, I_bar: float, c0: float, M: float) -> SandwichParams:
    eps = bs.epsilon(I_bar)
    if eps > 1.0 + 1e-12:
        raise ValueError("epsilon > 1: level below the validity threshold")
    k = min(2.0 * M + 3.0 * c0 * c0, 2.0 * M + 3.0 * bs.c_j2**2)
    omega = k * eps**3
    return SandwichParams(
        epsilon=eps,
        a=bs.a,
        k=k,
        omega=omega,
        c0=c0,
        time_horizon=bs.horizon(I_bar),
    )


def eta_bound(sp: SandwichParams, t: float) -> float:
    """(2 a eps^4 / omega)(cosh(sqrt(omega) |t|) - 1)."""
    x = math.sqrt(sp.omega) * abs(t)
    return (2.0 * sp.a * sp.epsilon**4 / sp.omega) * (math.cosh(x) - 1.0)


@dataclass(frozen=True)
class SandwichSolution:
    """Dense minorant/majorant radial solutions and their validity window.

    monotone_ok is False when the window ends before the horizon: either
    solution fell to the level below which a hypothesis fails (see
    sandwich_ode), or a step failed; t_valid is the (absolute) time up to
    which the comparison hypotheses held.
    """

    t_valid: float
    monotone_ok: bool
    sol_minus: DenseSolution
    sol_plus: DenseSolution

    def rho_minus(self, t):
        return self.sol_minus(t)[0]

    def rho_plus(self, t):
        return self.sol_plus(t)[0]


def sandwich_ode(
    rho0: float,
    drho0: float,
    sp: SandwichParams,
    M: float,
    direction: int = +1,
) -> SandwichSolution:
    """Integrate rho''_± = c0^2 rho^-3 - M rho^-2 ± a eps^4 from the true
    initial radius and radial speed, densely, out to the horizon.

    The hypotheses hold while rho_± stays above max(3 c0^2/(2M), rho_bar):
    the first is the monotonicity floor, and omega = k eps^3 is a Lipschitz
    constant of the radial field only above rho_bar = 1/eps.  One terminal
    event watches that level; crossing it truncates the validity window and
    flags the solution, and so does a step size failure, at the last
    accepted time.  A pair that starts at or below the level has t_valid 0.
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    f = sp.a * sp.epsilon**4
    c0sq = sp.c0**2
    floor = max(1.5 * c0sq / M, 1.0 / sp.epsilon)

    hit_floor = EventSpec(name="hypotheses_floor", func=lambda t, y: y[0] - floor,
                          direction=-1, terminal=True)
    monotone_ok = rho0 > floor
    t_valid = sp.time_horizon if monotone_ok else 0.0
    runs = []
    for sgn in (-1.0, +1.0):
        field = lambda y, g=sgn * f: [y[1], c0sq / y[0]**3 - M / y[0]**2 + g]
        res = run_steps(_float_rhs(field), [rho0, drho0], 0.0, direction * sp.time_horizon,
                        DEFAULT_TOL, [hit_floor], budget=math.inf, dense=True)
        if res.status != "completed":
            monotone_ok = False
            t_valid = min(t_valid, abs(res.exit_t))
        runs.append(DenseSolution(res.segments))
    return SandwichSolution(
        t_valid=t_valid,
        monotone_ok=monotone_ok,
        sol_minus=runs[0],
        sol_plus=runs[1],
    )


def _osc_exit_time(tb0: kepler.TwoBodyState, rho_bar: float, horizon: float) -> Optional[float]:
    """Signed t, |t| <= horizon, where the osculating outer radius falls to
    rho_bar on the pericenter side (forward when inbound, backward when
    outbound): the Kepler clock read at rho_bar on the state's own branch,
    less its reading at the state.  A pericenter below rho_bar is what makes
    the crossing certain; 0 when the state already lies at or below rho_bar."""
    r0 = tb0.r
    if r0 <= rho_bar:
        return 0.0
    el = kepler.elements_from_state(tb0)
    q = el.q_peri
    if q >= rho_bar:
        return None
    h, kappa, e = el.h, el.kappa, el.e
    rv0 = _dot3(tb0.xi, tb0.dxi)
    rv_bar = math.copysign(math.sqrt(max(2.0 * rho_bar * (h * rho_bar + kappa) - el.c**2, 0.0)), rv0)
    t = (kepler._time_since_pericenter(rho_bar, rv_bar, h, kappa, e, q)
         - kepler._time_since_pericenter(r0, rv0, h, kappa, e, q))
    return None if abs(t) > horizon else t


# Relative slack taken off the certificate's target radius: it covers the
# rounding of the closed-form Kepler clock that reads the exit time
_CERT_SLACK = 1e-9


def certify_entry(
    state: JacobiState,
    mp: MassParams,
    bs: BoundSet,
    level: float,
    sign: float,
    t_max: float,
) -> Optional[float]:
    """Signed time t* by which the motion from ``state`` enters I <= level
    in the direction ``sign``, proven by the deviation estimate; None where
    the estimate does not settle it.

    The state is taken to lie at the chain's (H, J) levels, where the
    region bounds (r <= c_r, |J2| <= alpha2 c_J2) hold above I*_eff.  With
    eps = eps(level), t* is where the exact outer osculating orbit of
    ``state`` falls to rho_bar(level) - A1 eps, read off the Kepler clock in
    closed form (no propagation, so states at ~1e22 are read as accurately
    as any other).  Hypotheses, each checked:

      * level >= R_bar, so eps <= 1 and the deviation constants apply;
      * the bound set describes the state's own Jacobi splitting (mp is
        its masses relabeled with its far body last);
      * A1, eps, the horizon B1 eps^(-3/2) and t* are finite, and
        |t*| <= min(horizon, t_max).

    The estimate's last hypothesis, motion at or above the level, needs no
    check: if it fails before t*, I has already dropped below the level,
    which is an entry.  If it holds up to t*, |rho - rho_osc| < A1 eps gives
    rho(t*) < rho_bar, and r <= c_r gives I(t*) < alpha1 c_r^2 +
    alpha2 rho_bar^2 = level.  Either way the entry comes no later than t*.
    The strip ceiling I_bar^+ plays no part: in the ladder argument it keeps
    the fall time inside the horizon, which is checked here directly.
    """
    if not (math.isfinite(level) and level >= bs.R_bar):
        return None
    if mp != bs.far_mp:
        return None
    eps = bs.epsilon(level)
    gap = bs.A1 * eps
    horizon = bs.horizon(level)
    if not (math.isfinite(gap) and math.isfinite(horizon)):
        return None
    target = (bs.rho_bar(level) - gap) * (1.0 - _CERT_SLACK)
    if not target > 0.0:
        return None
    tb0 = kepler.TwoBodyState(xi=state.xi2, dxi=state.dxi2, kappa=mp.M)
    t_star = _osc_exit_time(tb0, target, min(horizon, t_max))
    if t_star is None or not math.isfinite(t_star) or t_star * sign <= 0.0:
        return None
    return t_star


def verify_deviation(
    traj_fwd: Trajectory,
    traj_bwd: Trajectory,
    bs: BoundSet,
    I_bar: float,
    n_samples: int = 400,
) -> dict:
    """Check the deviation estimate along the forward and backward
    trajectories started from the same state at t = 0.

    One pass per side finds its window w = min(horizon, |t_end|, |t_exit|),
    where t_exit is the first time I(t) < I_bar (the claim holds at or above
    I_bar, closed at the exit instant); then, over that window, it measures
    |rho - rho_osc| at n_samples // 2 evenly spaced times against A1 eps,
    the drift max |c^2 - c^2(0)| of the squared outer angular momentum over
    the nodes against b eps^(3/2), and the sandwich pair's ordering
    rho_- <= rho, rho_osc <= rho_+ and gap bound on [0, min(t_valid, w)],
    where the comparison hypotheses hold.  A side with w = 0 checks nothing.
    All failures land in the report; the function itself does not raise on
    a violated bound.

    The report is a plain dict.  ``violations`` counts samples with
    |rho - rho_osc| >= ``bound`` = A1 eps, ``first_violation_t`` is the
    violating time of least |t| (the negative one on a tie);
    ``true_exit_t`` is the t_exit of least |t| (the forward one on a tie),
    ``osc_exit_t`` the first t where rho_osc = rho_bar, and
    ``I_at_osc_exit`` the true I there, against ``strip_bound`` = I_bar +
    2 alpha2 A1 + lambda and ``strip_ceiling`` = I_bar^+.
    ``sandwich_t_valid`` is the shorter side's sandwich window.
    ``ct_drift`` (the larger of the two sides' drifts) and ``ct_bound``
    are present when a side has w > 0.  ``ok`` holds when no
    check failed.
    """
    if traj_bwd.dense is None:
        raise ValueError("trajectory stored without dense output")
    mp = traj_fwd.mp
    eps = bs.epsilon(I_bar)
    horizon = bs.horizon(I_bar)
    bound = bs.A1 * eps
    ct_bound = bs.b * eps**1.5

    el0, tb0 = osculating_orbit(traj_fwd, traj_fwd.t0)
    sp = sandwich_params(bs, I_bar, el0.c, mp.M)
    rho0 = tb0.r
    drho0 = _dot3(tb0.xi, tb0.dxi) / rho0
    slack = 1e-10 * max(rho0, 1.0)

    max_deviation, violations = 0.0, 0
    first_violation = exit_t = ct_drift = None
    ordering_ok = eta_ok = ct_ok = True
    t_valid_min = horizon
    for traj, sgn in ((traj_fwd, +1), (traj_bwd, -1)):
        below = np.where(traj.inertia_nodes() < I_bar)[0]
        w = min(horizon, abs(traj.t_end))
        if below.size > 0:
            i = below[0]
            if i > 0:
                lo, hi = sorted((float(traj.t[i - 1]), float(traj.t[i])))
                t_exit = brentq(lambda t: traj.inertia_at(t) - I_bar, lo, hi, xtol=1e-13)
            else:
                t_exit = traj.t0
            w = min(w, abs(t_exit))
            if exit_t is None or abs(t_exit) < abs(exit_t):
                exit_t = t_exit
        if w <= 0.0:
            continue

        ts = np.linspace(0.0, sgn * w, max(n_samples // 2, 8)).tolist()
        dev = [abs(kepler._norm(traj.dense(t)[3:6]) - kepler.propagate(tb0, t).r) for t in ts]
        max_deviation = max(max_deviation, *dev)
        bad = [t for t, d in zip(ts, dev) if d >= bound]
        violations += len(bad)
        # ts runs away from t = 0, so bad[0] is this side's violation of least |t|
        if bad and (first_violation is None or abs(bad[0]) <= abs(first_violation)):
            first_violation = bad[0]

        y = traj.y[np.abs(traj.t) <= w]
        c2 = np.sum(np.cross(y[:, 3:6], y[:, 9:12]) ** 2, axis=1)
        drift = float(np.max(np.abs(c2 - c2[0])))
        ct_ok = ct_ok and drift <= ct_bound
        if ct_drift is None or drift > ct_drift:
            ct_drift = drift

        sw = sandwich_ode(rho0, drho0, sp, mp.M, direction=sgn)
        t_valid = min(sw.t_valid, w)
        t_valid_min = min(t_valid_min, t_valid)
        if t_valid <= 0.0:
            continue
        for t in np.linspace(0.0, sgn * t_valid, 64).tolist():
            rm, rp = sw.rho_minus(t), sw.rho_plus(t)
            r_lo, r_hi = sorted((kepler._norm(traj.dense(t)[3:6]), kepler.propagate(tb0, t).r))
            ordering_ok = ordering_ok and rm <= r_lo + slack and r_hi <= rp + slack
            eta_ok = eta_ok and rp - rm <= eta_bound(sp, t) + slack

    osc_exit = _osc_exit_time(tb0, bs.rho_bar(I_bar), horizon)
    I_at_exit = None
    if osc_exit is not None:
        side = traj_fwd if osc_exit >= 0 else traj_bwd
        if min(side.t0, side.t_end) <= osc_exit <= max(side.t0, side.t_end):
            I_at_exit = side.inertia_at(osc_exit)

    report = {
        "I_bar": I_bar,
        "epsilon": eps,
        "bound": bound,
        "max_deviation": max_deviation,
        "violations": violations,
        "first_violation_t": first_violation,
        "true_exit_t": exit_t,
        "osc_exit_t": osc_exit,
        "I_at_osc_exit": I_at_exit,
        "strip_bound": I_bar + 2.0 * mp.alpha2 * bs.A1 + bs.lam,
        "strip_ceiling": bs.i_plus(I_bar),
        "sandwich_t_valid": t_valid_min,
        "sandwich_ordering_ok": ordering_ok,
        "eta_bound_ok": eta_ok,
        "ct_ok": ct_ok,
        "ok": violations == 0 and ordering_ok and eta_ok and ct_ok,
    }
    if ct_drift is not None:
        report["ct_drift"] = ct_drift
        report["ct_bound"] = ct_bound
    return report
