"""Command-line front end.

Subcommands: bounds, sample, simulate, verify-sandwich, verify-theorem,
appendix.  Exit codes: 0 success, 1 verification assertion failed, 2 usage
or configuration error, including levels at which the constant chain
overflows the double range.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from .bounds import ChainOverflowError, i0
from .core import angular_momentum, energy_split, moment_of_inertia
from .harness import (
    SCHEMA,
    ScenarioConfig,
    canonical_json,
    run_appendix_scenario,
    run_sandwich_experiment,
    run_theorem_experiment,
    sample_initial_conditions,
)
from .integrate import integrate, integrate_regularized


class UsageError(ValueError):
    pass


def _load_config(args) -> ScenarioConfig:
    if args.config:
        try:
            cfg = ScenarioConfig.from_json(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            raise UsageError(f"bad config {args.config}: {exc}") from exc
    else:
        if args.masses is None or args.H is None:
            raise UsageError("either --config or --masses/--H/--J is required")
        cfg = ScenarioConfig(
            masses=tuple(args.masses),
            H=args.H,
            J=(0.0, 0.0, args.J if args.J is not None else 0.0),
        )
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.regularize is not None:
        overrides["regularize"] = args.regularize == "on"
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.count is not None:
        overrides["count"] = args.count
    if args.level is not None:
        overrides["level"] = args.level
    return replace(cfg, **overrides) if overrides else cfg


def _write(text: str, args, name: str) -> None:
    """text into the file name under --out, or to stdout without --out."""
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(text)
    else:
        print(text, end="")


def _emit(obj, args, name: str) -> None:
    _write(canonical_json(obj) + "\n", args, name)


def _cmd_bounds(args) -> int:
    cfg = _load_config(args)
    I0_val, bs = i0(cfg.mp, cfg.H, cfg.J_mag, lam=cfg.lam, B1=cfg.B1)
    out = bs.to_dict()
    out["I0_max_over_far_bodies"] = I0_val
    out["schema"] = SCHEMA
    _emit(out, args, "bounds.json")
    return 0


def _cmd_sample(args) -> int:
    cfg = _load_config(args)
    states = sample_initial_conditions(cfg)
    mp = cfg.far_mp
    if args.format == "csv":
        lines = ["# lunar-bound/1 samples",
                 "index,xi1x,xi1y,xi1z,dxi1x,dxi1y,dxi1z,"
                 "xi2x,xi2y,xi2z,dxi2x,dxi2y,dxi2z,I,H"]
        for i, st in enumerate(states):
            H, _, _, _ = energy_split(st, mp)
            vals = list(st.xi1) + list(st.dxi1) + list(st.xi2) + list(st.dxi2)
            vals += [moment_of_inertia(st, mp), H]
            lines.append(str(i) + "," + ",".join(format(v, ".17g") for v in vals))
        _write("\n".join(lines) + "\n", args, "samples.csv")
        return 0
    rows = []
    for i, st in enumerate(states):
        H, _, _, _ = energy_split(st, mp)
        J, _, _ = angular_momentum(st, mp)
        rows.append(
            {
                "index": i,
                "xi1": st.xi1.tolist(),
                "dxi1": st.dxi1.tolist(),
                "xi2": st.xi2.tolist(),
                "dxi2": st.dxi2.tolist(),
                "I": moment_of_inertia(st, mp),
                "H": H,
                "J": list(J),
            }
        )
    _emit({"schema": "lunar-bound/1", "config": cfg.to_dict(), "samples": rows}, args, "samples.json")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    if not 0 <= args.index < cfg.count:
        raise UsageError(f"--index must lie in [0, {cfg.count}), got {args.index}")
    (st,) = sample_initial_conditions(cfg, indices=[args.index])
    run = integrate_regularized if cfg.regularize else integrate
    traj = run(st, cfg.far_mp, (0.0, args.t1), rtol=cfg.tol, atol=cfg.tol)
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    traj.to_csv(out_dir / "trajectory.csv")
    traj.events_to_csv(out_dir / "events.csv")
    print(f"wrote {out_dir/'trajectory.csv'} ({len(traj.t)} nodes, status {traj.status})")
    return 0


def _cmd_verify_sandwich(args) -> int:
    cfg = _load_config(args)
    report = run_sandwich_experiment(cfg)
    _emit(report, args, "sandwich_report.json")
    ok = report["aggregate"]["ok"] == report["aggregate"]["count"]
    return 0 if ok else 1


def _cmd_verify_theorem(args) -> int:
    cfg = _load_config(args)
    t_start = time.perf_counter()
    report = run_theorem_experiment(cfg)
    wall_clock_s = time.perf_counter() - t_start
    _emit(report, args, "theorem_report.json")
    agg = report["aggregate"]
    print(
        f"# {agg['passed']}/{agg['count']} entered "
        f"I <= {report['level']:.6g} (wall {wall_clock_s:.1f}s)",
        file=sys.stderr,
    )
    return 0 if agg["passed"] == agg["count"] else 1


# global flags the appendix scenario cannot honour: it fixes its own config
_APPENDIX_REJECTS = ("config", "masses", "H", "J", "tol", "regularize", "jobs")


def _cmd_appendix(args) -> int:
    given = [f"--{name}" for name in _APPENDIX_REJECTS if getattr(args, name) is not None]
    if given:
        raise UsageError(f"appendix reads only --seed, --out and --count, not {', '.join(given)}")
    count = args.count if args.count is not None else 20
    seed = args.seed if args.seed is not None else 7
    report = run_appendix_scenario(count=count, seed=seed)
    bs = report["bound_set"]
    checks = report["checks"]
    print("equal-mass reference case: m_i = 1/3, H = -1/6, |J| = sqrt(8)/9")
    print(f"  I*        = {checks['I_star']:.12f}   (expected 32/27 = {32/27:.12f})")
    print(f"  I**       = {checks['I_star2']:.12f}")
    print(f"  delta     = {bs['marchal']['delta']:.12f}")
    print(f"  rho_M     = {bs['marchal']['rho_M']:.12f}")
    print(f"  I_M       = {checks['I_M']:.12f}")
    print(f"  R_bar     = {bs['R_bar']:.12f}")
    print(f"  R         = {bs['R']:.12f}")
    print(f"  I0        = {report['I0']:.6e}")
    ann = report["annotations"]
    print(f"  annotations: Marchal equal-mass I_M ~= {ann['marchal_equal_mass_I_M']:.6f}, "
          f"Henon-Broucke ~= {ann['henon_broucke_min_I']:.6f} (not asserted)")
    print(f"  I* check: {'ok' if checks['I_star_ok'] else 'FAIL'}")
    print(f"  I** < I_M: {'ok' if checks['ordering_I_star2_lt_I_M'] else 'FAIL'}")
    agg = report["experiment"]["aggregate"]
    print(
        f"  experiment at level {report['experiment_level']:.6f}: "
        f"{agg['passed']}/{agg['count']} entered"
    )
    if args.out:
        _emit(report, args, "appendix_report.json")
    if not (checks["I_star_ok"] and checks["ordering_I_star2_lt_I_M"]):
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lunarbound",
        description="three-body inertia-bound toolkit: bound chain, simulation, verification",
    )
    p.add_argument("--config", help="scenario config JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output directory")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--regularize", choices=["on", "off"], default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--masses", type=float, nargs=3, default=None, metavar=("M1", "M2", "M3"))
    p.add_argument("--H", type=float, default=None)
    p.add_argument("--J", type=float, default=None)

    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("bounds", help="emit the full bound set as JSON")
    sub.add_parser("sample", help="emit level-exact initial conditions")
    sp = sub.add_parser("simulate", help="integrate one sample, write CSVs")
    sp.add_argument("--t1", type=float, default=100.0)
    sp.add_argument("--index", type=int, default=0)
    vs = sub.add_parser("verify-sandwich", help="deviation/sandwich verification batch")
    vs.add_argument("--count", type=int, default=None)
    vt = sub.add_parser("verify-theorem", help="entry-into-low-inertia verification batch")
    vt.add_argument("--count", type=int, default=None)
    vt.add_argument("--level", type=float, default=None)
    ap = sub.add_parser("appendix", help="equal-mass reference scenario")
    ap.add_argument("--count", type=int, default=None)
    return p


_COMMANDS = {
    "bounds": _cmd_bounds,
    "sample": _cmd_sample,
    "simulate": _cmd_simulate,
    "verify-sandwich": _cmd_verify_sandwich,
    "verify-theorem": _cmd_verify_theorem,
    "appendix": _cmd_appendix,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # fill optional attributes not defined for every subcommand
    for name in ("count", "level"):
        if not hasattr(args, name):
            setattr(args, name, None)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ChainOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
