"""Experiment harness: level-exact sampling, batch verification, reports.

Initial conditions are built hierarchically and hit the requested energy and
angular momentum levels exactly (to rounding): the inner binary is drawn
from seeded element ranges, the outer angular momentum vector is forced to
J_target - J1, and the outer speed is solved from the energy balance.  The
PRNG is counter-based per sample index, so batches are reproducible at any
parallelism.

Both batches run on one runner (serial at jobs == 1, a process pool
otherwise) and return plain dicts in one report envelope.  Reports serialize
to canonical JSON (sorted keys, 17 significant digits), identical bytes for
identical (config, seed) at any --jobs setting, so they carry no wall-clock
time.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import bounds as bounds_mod
from .bounds import BoundSet, compute_chain, i0
from .config import SCHEMA, ScenarioConfig, canonical_json
from .core import (
    JacobiState, MassParams, angular_momentum, energy_split, flat_inertia, moment_of_inertia,
)
from .integrate import EventSpec, IntegrationSingularityError, integrate
from .osculate import certify_entry, verify_deviation

__all__ = [
    "SCHEMA",
    "ScenarioConfig",
    "SampleError",
    "sample_initial_conditions",
    "run_theorem_experiment",
    "run_sandwich_experiment",
    "run_appendix_scenario",
    "canonical_json",
]


class SampleError(ValueError):
    """Sampling failed after the retry budget; names the binding constraint."""


# ---------------------------------------------------------------------------
# Sampling

def _rng_for(seed: int, index: int) -> np.random.Generator:
    # counter-based generator: reproducible per (seed, index) at any order
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, index]))


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _inner_state(rng, mp: MassParams, cfg: ScenarioConfig, c_r: float):
    """Binary position/velocity from drawn elements, kappa = mu."""
    a_lo, a_hi = cfg.a1_frac
    e_lo, e_hi = cfg.e1
    a1 = c_r * rng.uniform(a_lo, a_hi)
    e1 = rng.uniform(e_lo, e_hi)
    Mmean = rng.uniform(0.0, 2.0 * math.pi)
    E = Mmean
    for _ in range(60):
        dE = (E - e1 * math.sin(E) - Mmean) / (1.0 - e1 * math.cos(E))
        E -= dE
        if abs(dE) < 1e-14:
            break
    kap = mp.mu
    r = a1 * (1.0 - e1 * math.cos(E))
    xi = np.array([a1 * (math.cos(E) - e1), a1 * math.sqrt(1 - e1 * e1) * math.sin(E), 0.0])
    dxi = (math.sqrt(kap * a1) / r) * np.array(
        [-math.sin(E), math.sqrt(1 - e1 * e1) * math.cos(E), 0.0]
    )
    if cfg.planar:
        ang = rng.uniform(0.0, 2.0 * math.pi)
        ca, sa = math.cos(ang), math.sin(ang)
        rot = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    else:
        rot = _random_rotation(rng)
    return rot @ xi, rot @ dxi


def _sample_one(cfg: ScenarioConfig, bs: BoundSet, I_lo: float, I_hi: float, index: int) -> JacobiState:
    """One level-exact state in the far-body labeling (cfg.far_mp); retries
    feasibility-violating draws."""
    mp = cfg.far_mp
    rng = _rng_for(cfg.seed, index)
    J_vec = np.array(cfg.J)
    last_reason = "no draw attempted"
    for _ in range(64):
        xi1, dxi1 = _inner_state(rng, mp, cfg, bs.c_r)
        r = float(np.linalg.norm(xi1))
        zero = np.zeros(3)
        _, J1, _ = angular_momentum(JacobiState(xi1=xi1, dxi1=dxi1, xi2=zero, dxi2=zero), mp)
        J2_req = J_vec - J1
        J2_mag = float(np.linalg.norm(J2_req))

        I_target = rng.uniform(I_lo, I_hi)
        rho_sq = (I_target - mp.alpha1 * r * r) / mp.alpha2
        if rho_sq <= 0.0:
            last_reason = f"target inertia in [{I_lo!r}, {I_hi!r}] below the binary's own contribution"
            continue
        rho0 = math.sqrt(rho_sq)

        if cfg.planar:
            n_hat = np.array([0.0, 0.0, 1.0])
            v_t_signed = (J_vec[2] - J1[2]) / (mp.alpha2 * rho0)
        else:
            if J2_mag > 0.0:
                n_hat = J2_req / J2_mag
            else:
                n_hat = np.array([0.0, 0.0, 1.0])
            v_t_signed = J2_mag / (mp.alpha2 * rho0)
        # in-plane basis perpendicular to n_hat
        seed_vec = np.array([1.0, 0.0, 0.0])
        if abs(float(seed_vec @ n_hat)) > 0.9:
            seed_vec = np.array([0.0, 1.0, 0.0])
        e1h = np.cross(n_hat, seed_vec)
        e1h /= np.linalg.norm(e1h)
        e2h = np.cross(n_hat, e1h)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        rho_hat = math.cos(phi) * e1h + math.sin(phi) * e2h
        t_hat = np.cross(n_hat, rho_hat)
        xi2 = rho0 * rho_hat

        probe = JacobiState(xi1=xi1, dxi1=dxi1, xi2=xi2, dxi2=zero)
        _, H1, _, g = energy_split(probe, mp)
        H2_req = cfg.H - H1 - g
        v2_sq = 2.0 * (H2_req + mp.beta2 / rho0) / mp.alpha2
        v_t = v_t_signed
        if v2_sq < v_t * v_t:
            last_reason = "outer kinetic energy insufficient for the required angular momentum"
            continue
        v_r = math.sqrt(v2_sq - v_t * v_t)
        if cfg.inbound_only:
            v_r = -v_r
        elif rng.uniform() < 0.5:
            v_r = -v_r
        dxi2 = v_r * rho_hat + v_t * t_hat
        return JacobiState(xi1=xi1, dxi1=dxi1, xi2=xi2, dxi2=dxi2)
    raise SampleError(f"sampling failed after 64 retries: {last_reason}")


def _chain(cfg: ScenarioConfig, bs: Optional[BoundSet] = None) -> Tuple[BoundSet, float]:
    """The bound set of cfg's far body (bs if given) and the experiment
    level, which defaults to the chain's I0."""
    if bs is None:
        bs = compute_chain(cfg.mp, cfg.H, cfg.J_mag, far_body=cfg.far_body,
                           lam=cfg.lam, B1=cfg.B1)
    return bs, (cfg.level if cfg.level is not None else bs.i0)


def _sampling_window(cfg: ScenarioConfig, level: float):
    if cfg.i_range is not None:
        return cfg.i_range
    return level * cfg.i_lo_factor, level * cfg.i_hi_factor


def sample_initial_conditions(cfg: ScenarioConfig, bs: Optional[BoundSet] = None,
                              indices: Optional[Sequence[int]] = None) -> List[JacobiState]:
    """Draw cfg.count states at the exact (H, J) levels, written in the
    far-body labeling (cfg.far_mp); with indices, only the states at those
    positions.  Each index draws from its own RNG stream, so a state does not
    depend on which others are drawn.

    Residuals |H(state) - H| and |J(state) - J| land at rounding level; the
    test suite pins them below 1e-12 relative.
    """
    bs, level = _chain(cfg, bs)
    I_lo, I_hi = _sampling_window(cfg, level)
    if indices is None:
        indices = range(cfg.count)
    return [_sample_one(cfg, bs, I_lo, I_hi, i) for i in indices]


# ---------------------------------------------------------------------------
# The batch path: one runner, one report envelope

def _map_samples(run_sample, cfg: ScenarioConfig) -> list:
    """run_sample(index) for every sample index, in index order: serial at
    jobs == 1, over a process pool otherwise (and serial where no pool can
    be started).  Each sample draws from its own RNG stream, so the results
    do not depend on jobs."""
    indices = range(cfg.count)
    if cfg.jobs > 1:
        try:
            with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
                return list(pool.map(run_sample, indices))
        except OSError:
            pass
    return [run_sample(i) for i in indices]


def _report(cfg: ScenarioConfig, bs: BoundSet, samples: list, aggregate: dict, **extra) -> dict:
    """The envelope both batch reports share, plus the batch's own fields."""
    return {
        "schema": SCHEMA,
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "bound_set": bs.to_dict(),
        "samples": samples,
        "aggregate": {"count": len(samples), "seed": cfg.seed, **aggregate},
        **extra,
    }


# ---------------------------------------------------------------------------
# Theorem experiment

def _budget_rho(bs: BoundSet, level: float) -> float:
    """rho_bar at the level, clamped to >= 1 so sub-threshold levels (the
    negative control) still get a finite, meaningful time budget."""
    mp = bs.far_mp
    val = (level - mp.alpha1 * bs.c_r**2) / mp.alpha2
    return math.sqrt(max(val, 1.0))


def _direction(entered: bool, t_entry: Optional[float], min_I: float, status: str,
               n_steps: int) -> dict:
    return {"entered": entered, "t_entry": t_entry, "min_I": min_I, "status": status,
            "n_steps": n_steps}


def _first_entry(state: JacobiState, mp: MassParams, bs: BoundSet, level: float,
                 t_budget: float, cfg: ScenarioConfig, sign: float) -> dict:
    if moment_of_inertia(state, mp) <= level:
        return _direction(True, 0.0, moment_of_inertia(state, mp), "already_inside", 0)
    t_cert = certify_entry(state, mp, bs, level, sign, t_budget)
    if t_cert is not None:
        return _direction(True, t_cert, level, "certified_entry", 0)
    inertia = flat_inertia(mp)
    ev = EventSpec(
        name="entry",
        func=lambda t, y: inertia(y) - level,
        direction=-1,
        terminal=True,
        payload={"level": level},
    )
    try:
        traj = integrate(
            state, mp, (0.0, sign * t_budget), tol=cfg.tol,
            events=[ev], max_steps=cfg.max_steps, dense=False, regularize=cfg.regularize,
        )
    except IntegrationSingularityError as exc:
        return _direction(False, None, moment_of_inertia(exc.state, mp), "failed", exc.n_steps)
    entries = [e for e in traj.events if e.kind == "entry"]
    if entries:
        return _direction(True, entries[0].t, level, "entered", traj.n_steps)
    return _direction(False, None, traj.min_inertia(), traj.status, traj.n_steps)


def _theorem_sample(cfg: ScenarioConfig, bs: BoundSet, level: float, t_budget: float,
                    I_lo: float, I_hi: float, index: int) -> dict:
    mp = cfg.far_mp
    state = _sample_one(cfg, bs, I_lo, I_hi, index)
    H, _, _, _ = energy_split(state, mp)
    J, _, _ = angular_momentum(state, mp)
    dH = abs(H - cfg.H) / abs(cfg.H)
    jm = cfg.J_mag
    dJ = float(np.linalg.norm(J - np.array(cfg.J))) / (jm if jm > 0 else 1.0)
    # try the inbound direction first: that is where entry happens, and with
    # lazy_directions it saves integrating a full budget that proves nothing
    rv = float(state.xi2 @ state.dxi2)
    first_sign = +1.0 if rv <= 0.0 else -1.0
    res_first = _first_entry(state, mp, bs, level, t_budget, cfg, first_sign)
    if cfg.lazy_directions and res_first["entered"]:
        res_other = _direction(False, None, moment_of_inertia(state, mp), "not_run", 0)
    else:
        res_other = _first_entry(state, mp, bs, level, t_budget, cfg, -first_sign)
    fwd, bwd = (res_first, res_other) if first_sign > 0 else (res_other, res_first)
    return {
        "index": index,
        "I0": moment_of_inertia(state, mp),
        "dH": dH,
        "dJ": dJ,
        "forward": fwd,
        "backward": bwd,
        "passed": fwd["entered"] or bwd["entered"],
    }


def run_theorem_experiment(cfg: ScenarioConfig, bs: Optional[BoundSet] = None) -> dict:
    """Decide for each sample, forward and backward, whether it enters
    I <= level, and say per direction how it was decided.

    level defaults to the chain's I0.  The per-direction time budget is
    budget_factor * B1 * rho_bar(level)^(3/2).  Each direction first tries
    the closed-form certificate of the deviation estimate
    (osculate.certify_entry), which applies only at levels >= R_bar where
    A1 eps is small against rho_bar; otherwise it integrates until the
    entry event, under a step budget as well.  Statuses:

      already_inside         I(0) <= level, nothing run
      certified_entry        proven by the deviation estimate; t_entry is
                             the time by which entry has happened, n_steps 0
      entered                integrated to the entry event at t_entry
      completed              integrated through the whole time budget
                             without entry
      step_budget_exhausted  integration stopped at max_steps
      failed                 the step size underflowed at a singularity;
                             min_I is the inertia at the last accepted step
      not_run                skipped (lazy_directions) after the other
                             direction entered

    Exhausting a budget or failing at a singularity is reported per sample,
    never as an abort.
    """
    bs, level = _chain(cfg, bs)
    t_budget = cfg.budget_factor * bs.B1 * _budget_rho(bs, level) ** 1.5
    I_lo, I_hi = _sampling_window(cfg, level)
    samples = _map_samples(partial(_theorem_sample, cfg, bs, level, t_budget, I_lo, I_hi), cfg)

    n_passed = sum(1 for s in samples if s["passed"])
    budget_exhausted = sum(
        1
        for s in samples
        if not s["passed"]
        and "exhausted" in (s["forward"]["status"] + s["backward"]["status"])
    )
    worst_margin = None
    entries = [
        d["t_entry"]
        for s in samples
        for d in (s["forward"], s["backward"])
        if d["entered"] and d["t_entry"] is not None
    ]
    if entries:
        worst_margin = max(abs(t) for t in entries) / t_budget
    aggregate = {
        "passed": n_passed,
        "failed": len(samples) - n_passed,
        "budget_exhausted": budget_exhausted,
        "worst_entry_fraction_of_budget": worst_margin,
    }
    return _report(cfg, bs, samples, aggregate, level=level, time_budget=t_budget)


# ---------------------------------------------------------------------------
# Deviation/sandwich experiment

def _sandwich_sample(cfg: ScenarioConfig, bs: BoundSet, I_bar: float, I_hi: float,
                     horizon: float, index: int) -> dict:
    mp = cfg.far_mp
    inertia = flat_inertia(mp)
    state = _sample_one(cfg, bs, I_bar, I_hi, index)
    # stop a little below the reference level: the deviation window ends at
    # the I = I_bar exit, but the osculating exit instant t* sits just past
    # it and its strip check needs the true state there
    stop_ev = EventSpec(
        name="stop",
        func=lambda t, y: inertia(y) - 0.9 * I_bar,
        direction=-1,
        terminal=True,
    )
    I_initial = moment_of_inertia(state, mp)
    trajs = []
    for side, t1 in (("forward", horizon), ("backward", -horizon)):
        try:
            trajs.append(integrate(state, mp, (0.0, t1), tol=cfg.tol, events=[stop_ev],
                                   max_steps=cfg.max_steps, regularize=cfg.regularize))
        except IntegrationSingularityError as exc:
            return {"index": index, "I_initial": I_initial, "ok": False, "violations": 0,
                    "status": "failed", "side": side, "n_steps": exc.n_steps}
    return {**verify_deviation(*trajs, bs, I_bar), "index": index, "I_initial": I_initial}


def run_sandwich_experiment(cfg: ScenarioConfig, bs: Optional[BoundSet] = None) -> dict:
    """Deviation suite: sample in the strip [R_bar, R_bar^+], integrate both
    directions to the qualified horizon, and verify every measured bound.

    Returns a canonical-JSON-able dict with one entry per sample.  A side
    whose step size underflows at a singularity ends its sample with
    status "failed", that side and its n_steps: the sample is not ok and
    is left out of worst_deviation_fraction, and the batch goes on.
    """
    bs, _ = _chain(cfg, bs)
    I_bar = bs.R_bar
    horizon = bs.horizon(I_bar)
    samples = _map_samples(
        partial(_sandwich_sample, cfg, bs, I_bar, bs.i_plus(I_bar), horizon), cfg)
    aggregate = {
        "ok": sum(1 for r in samples if r["ok"]),
        "violations": sum(r["violations"] for r in samples),
        "worst_deviation_fraction": max(
            (r["max_deviation"] / r["bound"] for r in samples if r.get("status") != "failed"),
            default=0.0,
        ),
    }
    return _report(cfg, bs, samples, aggregate, I_bar=I_bar, epsilon=bs.epsilon(I_bar),
                   time_horizon=horizon)


# ---------------------------------------------------------------------------
# Equal-mass reference scenario

APPENDIX_MASSES = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
APPENDIX_H = -1.0 / 6.0
APPENDIX_J = math.sqrt(8.0) / 9.0


def run_appendix_scenario(count: int = 20, seed: int = 7) -> dict:
    """The equal-mass reference case m_i = 1/3, H = -1/6, |J| = sqrt(8)/9.

    Computes the full chain, asserts I* = 32/27 (to 1e-9) and I** < I_M,
    reports the literature reference values as annotations, then runs a
    theorem experiment at the chain's R: the minimized I0 itself sits at
    ~1e44, where a fall spans ~1e33 binary periods, far beyond any direct
    integration; R is the lowest level the strip machinery certifies per
    strip, and is reachable at desk scale.
    """
    mp = MassParams(*APPENDIX_MASSES)
    I0_value, bs = i0(mp, APPENDIX_H, APPENDIX_J)
    checks = {}
    checks["I_star"] = bs.i_star
    checks["I_star_expected"] = 32.0 / 27.0
    checks["I_star_ok"] = abs(bs.i_star - 32.0 / 27.0) <= 1e-9
    checks["I_star2"] = bs.i_star2
    checks["I_M"] = bs.marchal.I_M
    checks["ordering_I_star2_lt_I_M"] = bs.i_star2 < bs.marchal.I_M
    checks["ordering_chain"] = bs.i_star < bs.i_star2 < bs.marchal.I_M < I0_value
    annotations = {
        "marchal_equal_mass_I_M": bounds_mod.MARCHAL_EQUAL_MASS_I_M,
        "henon_broucke_min_I": bounds_mod.HENON_BROUCKE_MIN_I,
        "note": "reference values from sharper analyses; reported, not asserted",
    }
    cfg = ScenarioConfig(
        masses=APPENDIX_MASSES,
        H=APPENDIX_H,
        J=(0.0, 0.0, APPENDIX_J),
        count=count,
        seed=seed,
        level=bs.R,
        i_lo_factor=1.0,
        i_hi_factor=4.0,
    )
    return {
        "schema": SCHEMA,
        "I0": I0_value,
        "bound_set": bs.to_dict(),
        "checks": checks,
        "annotations": annotations,
        "experiment_level": bs.R,
        "experiment": run_theorem_experiment(cfg, bs=bs),
    }
