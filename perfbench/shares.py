#!/usr/bin/env python3
"""Layer-share table from the records of traced runs.

Each traced run stores per-span totals in
``.perfbench/results/<workload>-seed<n>-trace1.json``.  Self times partition
the traced op time (the ``cli`` span is the root of every op), so each
layer's share is the most that making it free could save on that workload.

    python3 perfbench/shares.py --seed 1
"""

from __future__ import annotations

import argparse
import json

from run import WORK, WORKLOADS

# span name -> row label, in module order
ROWS = {
    "core.rhs": "core: RHS (`make_rhs` callable)",
    "core.conserved": "core: energy/angular momentum in `integrate` (residuals)",
    "integrate.step": "integrate: DOP853 step, minus RHS",
    "integrate.dense": "integrate: dense interpolants, minus RHS",
    "integrate": "integrate: self (step loop, events, residual loop)",
    "kepler.propagate": "kepler: `propagate`",
    "osculate.sandwich_ode": "osculate: `sandwich_ode`",
    "osculate.verify": "osculate: `verify_deviation` self",
    "bounds.marchal": "bounds: `marchal_comparison`",
    "bounds.chain": "bounds: rest of `compute_chain`",
    "harness": "harness: self (sampling, report assembly)",
    "cli": "cli: self (argparse, config, `canonical_json`, write)",
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    cols, shares = [], {}
    for wl in WORKLOADS:
        path = WORK / "results" / f"{wl}-seed{args.seed}-trace1.json"
        if not path.exists():
            continue
        layers = json.loads(path.read_text())["layers"]
        total = layers["cli"]["busy"]
        cols.append(f"{wl} ({total:.1f} s)")
        for name in ROWS:
            shares.setdefault(name, []).append(
                100.0 * layers.get(name, {"self_s": 0.0})["self_s"] / total)
    print("| layer (self time) | " + " | ".join(cols) + " |")
    print("|---" * (len(cols) + 1) + "|")
    for name, label in ROWS.items():
        print(f"| {label} | " + " | ".join(f"{v:.1f}%" for v in shares[name]) + " |")


if __name__ == "__main__":
    main()
