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
from .bounds import BoundSet
from .core import JacobiState, MassParams, _float_rhs
from .integrate import DenseSolution, EventSpec, Trajectory, run_steps
from .roots import brentq

__all__ = [
    "osculating_orbit",
    "CtDriftReport",
    "ct_drift",
    "SandwichParams",
    "sandwich_params",
    "SandwichSolution",
    "sandwich_ode",
    "eta_bound",
    "verify_deviation",
    "certify_entry",
]


def osculating_orbit(
    traj: Trajectory, t: float, which: str = "outer"
) -> Tuple[kepler.KeplerElements, kepler.TwoBodyState]:
    """Freeze the chosen Jacobi vector at time t into a two-body problem.

    which = "inner" uses kappa = mu, "outer" kappa = M.
    """
    st = traj.state_at(t)
    mp = traj.mp
    if which == "outer":
        tb = kepler.TwoBodyState(xi=st.xi2, dxi=st.dxi2, kappa=mp.M)
    elif which == "inner":
        tb = kepler.TwoBodyState(xi=st.xi1, dxi=st.dxi1, kappa=mp.mu)
    else:
        raise ValueError("which must be 'inner' or 'outer'")
    if tb.r == 0.0:
        raise ValueError(f"degenerate radius at t = {t}")
    return kepler.elements_from_state(tb), tb


@dataclass(frozen=True)
class CtDriftReport:
    applicable: bool
    reason: str
    c0: float
    max_drift: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.applicable and self.max_drift <= self.bound


def ct_drift(
    traj: Trajectory,
    span: Tuple[float, float],
    I_bar: float,
    bs: BoundSet,
) -> CtDriftReport:
    """Measured drift of the squared outer angular momentum against b eps^(3/2).

    Conditional estimate: the trajectory must stay in I >= I_bar over the
    span and |span| must fit in the horizon B1 eps^(-3/2); otherwise the
    report is flagged not applicable rather than failed.
    """
    eps = bs.epsilon(I_bar)
    horizon = bs.horizon(I_bar)
    lo, hi = min(span), max(span)
    mask = (traj.t >= lo) & (traj.t <= hi)
    if not mask.any():
        return CtDriftReport(False, "span outside trajectory", 0.0, 0.0, 0.0)
    if max(abs(lo), abs(hi)) > horizon * (1 + 1e-12):
        return CtDriftReport(False, "span exceeds horizon", 0.0, 0.0, 0.0)
    I_nodes = traj.inertia_nodes()[mask]
    if I_nodes.min() < I_bar * (1 - 1e-12):
        return CtDriftReport(False, "trajectory leaves I >= I_bar", 0.0, 0.0, 0.0)
    y = traj.y[mask]
    c_vec = np.cross(y[:, 3:6], y[:, 9:12])
    c2 = np.sum(c_vec**2, axis=1)
    idx0 = int(np.argmin(np.abs(traj.t[mask])))
    c0_sq = float(c2[idx0])
    drift = float(np.max(np.abs(c2 - c0_sq)))
    bound = bs.b * eps**1.5
    return CtDriftReport(True, "", math.sqrt(c0_sq), drift, bound)


@dataclass(frozen=True)
class SandwichParams:
    """Inputs of the radial comparison equations at a reference level I_bar.

    omega = k eps^3 is the Lipschitz constant of the osculating radial field
    above rho_bar, with k = 2M + 3 c0^2 clamped into [2M, 2M + 3 c_J2^2];
    eta_bound(t) = (2 a eps^4/omega)(cosh(sqrt(omega) t) - 1) dominates the
    gap between the comparison solutions and stays below A1 eps through the
    horizon.
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
    k = min(max(2.0 * M + 3.0 * c0 * c0, 2.0 * M), 2.0 * M + 3.0 * bs.c_j2**2)
    omega = k * eps**3
    return SandwichParams(
        epsilon=eps,
        a=bs.a,
        k=k,
        omega=omega,
        c0=c0,
        time_horizon=bs.horizon(I_bar),
    )


def eta_bound(sp: SandwichParams, t) -> np.ndarray:
    """(2 a eps^4 / omega)(cosh(sqrt(omega) |t|) - 1)."""
    t = np.asarray(t, dtype=float)
    x = np.sqrt(sp.omega) * np.abs(t)
    return (2.0 * sp.a * sp.epsilon**4 / sp.omega) * (np.cosh(x) - 1.0)


@dataclass(frozen=True)
class SandwichSolution:
    """Dense minorant/majorant radial solutions and their validity window.

    monotone_ok is False when either solution dipped below the monotonicity
    floor 3 c0^2/(2M) before the horizon; t_valid is the (absolute) time up
    to which the comparison hypotheses held.
    """

    direction: int
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
    forcing: Optional[float] = None,
    rtol: float = 1e-12,
    atol: float = 1e-12,
) -> SandwichSolution:
    """Integrate rho''_± = c0^2 rho^-3 - M rho^-2 ± a eps^4 from the true
    initial radius and radial speed, densely, out to the horizon.

    The monotonicity hypothesis (rho_± above 3 c0^2/(2M)) is watched with a
    terminal event; crossing it truncates the validity window and flags the
    solution, and so does a step size failure, at the last accepted time.
    ``forcing`` overrides a eps^4 (zero reproduces the osculating radial
    equation for both solutions).
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    f = sp.a * sp.epsilon**4 if forcing is None else float(forcing)
    c0sq = sp.c0**2
    floor = 1.5 * c0sq / M

    hit_floor = EventSpec(name="monotone_floor", func=lambda t, y: y[0] - floor,
                          direction=-1, terminal=True)
    t_valid = sp.time_horizon
    monotone_ok = True
    runs = []
    for sgn in (-1.0, +1.0):
        field = lambda y, g=sgn * f: [y[1], c0sq / y[0]**3 - M / y[0]**2 + g]
        res = run_steps(_float_rhs(field), [rho0, drho0], 0.0, direction * sp.time_horizon,
                        rtol, atol, [hit_floor], budget=math.inf, dense=True)
        if res.status != "completed":
            monotone_ok = False
            t_valid = min(t_valid, abs(res.exit_t))
        runs.append(DenseSolution(res.segments))
    return SandwichSolution(
        direction=direction,
        t_valid=t_valid,
        monotone_ok=monotone_ok,
        sol_minus=runs[0],
        sol_plus=runs[1],
    )


def _osc_exit_time(tb0: kepler.TwoBodyState, rho_bar: float, horizon: float) -> Optional[float]:
    """First signed t, |t| <= horizon, where the osculating outer radius
    crosses rho_bar going down, searched in the direction that reaches
    pericenter: a pericenter below rho_bar is what makes the crossing
    certain."""
    t_pc, direction = kepler.time_to_pericenter(tb0)
    t_hi = min(t_pc, horizon)
    if t_hi <= 0.0:
        return None

    def radius_gap(t):
        try:
            return kepler.propagate(tb0, direction * t).r - rho_bar
        except kepler.CollisionAtTimeError:
            return -rho_bar

    if radius_gap(0.0) <= 0.0:
        return 0.0
    if radius_gap(t_hi) > 0.0:
        return None
    return direction * brentq(radius_gap, 0.0, t_hi, xtol=1e-13, maxiter=200)


# Relative slack taken off the certificate's target radius: it covers the
# residual the universal Kepler solve may accept (1e-9 of its scale) and the
# root tolerance of the crossing search
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
    ``state`` falls to rho_bar(level) - A1 eps.  Hypotheses, each checked:

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
    traj_bwd: Optional[Trajectory],
    bs: BoundSet,
    I_bar: float,
    n_samples: int = 400,
) -> dict:
    """Measure |rho - rho_osc| along forward/backward trajectories started
    from the same state, against A1 eps, inside the qualified window.

    Also runs the sandwich pair from the same initial radius/speed and
    checks rho_- <= rho, rho_osc <= rho_+ and the gap bound on the window
    where the comparison field is monotone, and the angular momentum drift
    bound on the qualified window.  All failures land in the report; the
    function itself does not raise on a violated bound.

    The report is a plain dict.  Samples cover the window where the claim
    applies: |t| <= horizon and I >= I_bar (closed at the exit instant).
    ``violations`` counts samples with |rho - rho_osc| >= ``bound`` = A1 eps
    inside it; ``true_exit_t`` is the first |t| where I(t) < I_bar,
    ``osc_exit_t`` the first where rho_osc = rho_bar, and ``I_at_osc_exit``
    the true I there, against ``strip_bound`` = I_bar + 2 alpha2 A1 + lambda
    and ``strip_ceiling`` = I_bar^+.  The sandwich fields cover the ordering
    and gap checks on the (shorter) window where the comparison hypotheses
    hold.  ``ct_drift`` and ``ct_bound`` are present when a side's drift
    check applies (the side with the larger drift).  ``ok`` holds when no
    check failed.
    """
    mp = traj_fwd.mp
    eps = bs.epsilon(I_bar)
    rho_bar = bs.rho_bar(I_bar)
    horizon = bs.horizon(I_bar)
    bound = bs.A1 * eps

    el0, tb0 = osculating_orbit(traj_fwd, traj_fwd.t0, which="outer")
    c0 = el0.c
    sp = sandwich_params(bs, I_bar, c0, mp.M)

    def qualified_window(traj: Trajectory) -> float:
        """Largest |t| within horizon and I >= I_bar (closed at the exit)."""
        I = traj.inertia_nodes()
        below = np.where(I < I_bar)[0]
        t_exit = None
        if below.size > 0 and below[0] > 0:
            i = below[0]
            lo, hi = sorted((float(traj.t[i - 1]), float(traj.t[i])))
            t_exit = brentq(
                lambda t: traj.inertia_at(t) - I_bar, lo, hi, xtol=1e-13
            )
        elif below.size > 0:
            t_exit = traj.t0
        t_last = abs(traj.t_end - 0.0)
        w = min(horizon, t_last)
        if t_exit is not None:
            w = min(w, abs(t_exit))
        return w, t_exit

    w_fwd, exit_fwd = qualified_window(traj_fwd)
    trajs = [(traj_fwd, +1.0, w_fwd)]
    exits = [exit_fwd]
    if traj_bwd is not None:
        w_bwd, exit_bwd = qualified_window(traj_bwd)
        trajs.append((traj_bwd, -1.0, w_bwd))
        exits.append(exit_bwd)
    exits = [t for t in exits if t is not None]
    exit_t = min(exits, key=abs) if exits else None

    times, rho_t, rho_o = [], [], []
    for traj, sgn, w in trajs:
        if w <= 0.0:
            continue
        ts = np.linspace(0.0, sgn * w, max(n_samples // len(trajs), 8))
        for t in ts:
            st = traj.state_at(t)
            times.append(t)
            rho_t.append(st.rho)
            rho_o.append(kepler.propagate(tb0, t).r)
    times = np.array(times)
    order = np.argsort(times)
    times = times[order]
    rho_t = np.array(rho_t)[order]
    rho_o = np.array(rho_o)[order]
    dev = np.abs(rho_t - rho_o)
    bad = np.where(dev >= bound)[0]
    violations = int(bad.size)
    first_violation = float(times[bad[np.argmin(np.abs(times[bad]))]]) if violations else None

    # sandwich checks from the same initial conditions
    st0 = traj_fwd.state_at(traj_fwd.t0)
    rho0 = st0.rho
    drho0 = float(st0.xi2 @ st0.dxi2) / rho0
    ordering_ok = True
    eta_ok = True
    t_valid_min = horizon
    slack = 1e-10 * max(rho0, 1.0)
    for traj, sgn, w in trajs:
        if w <= 0.0:
            continue
        sw = sandwich_ode(rho0, drho0, sp, mp.M, direction=int(sgn))
        t_valid = min(sw.t_valid, w)
        t_valid_min = min(t_valid_min, t_valid)
        if t_valid <= 0.0:
            continue
        ts = np.linspace(0.0, sgn * t_valid, 64)
        rm = np.array([sw.rho_minus(t) for t in ts])
        rp = np.array([sw.rho_plus(t) for t in ts])
        rt = np.array([traj.state_at(t).rho for t in ts])
        ro = np.array([kepler.propagate(tb0, t).r for t in ts])
        if np.any(rm > rt + slack) or np.any(rt > rp + slack) \
           or np.any(rm > ro + slack) or np.any(ro > rp + slack):
            ordering_ok = False
        eta = rp - rm
        if np.any(eta > eta_bound(sp, ts) + slack):
            eta_ok = False

    ct_rep_sides = []
    for traj, sgn, w in trajs:
        if w > 0.0:
            ct_rep_sides.append(ct_drift(traj, (0.0, sgn * w), I_bar, bs))
    ct_rep = None
    ct_ok = True
    for rep in ct_rep_sides:
        if rep.applicable:
            if ct_rep is None or rep.max_drift > ct_rep.max_drift:
                ct_rep = rep
            ct_ok = ct_ok and rep.ok

    osc_exit = _osc_exit_time(tb0, rho_bar, horizon)
    I_at_exit = None
    if osc_exit is not None:
        side = traj_fwd if osc_exit >= 0 else (traj_bwd or traj_fwd)
        t_query = osc_exit
        lo = min(side.t0, side.t_end)
        hi = max(side.t0, side.t_end)
        if lo <= t_query <= hi:
            I_at_exit = side.inertia_at(t_query)

    report = {
        "I_bar": I_bar,
        "epsilon": eps,
        "bound": bound,
        "max_deviation": float(dev.max()) if dev.size else 0.0,
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
    if ct_rep is not None:
        report["ct_drift"] = ct_rep.max_drift
        report["ct_bound"] = ct_rep.bound
    return report
