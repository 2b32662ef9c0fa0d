#!/usr/bin/env python3
"""Determinism self-test of the benchmark's traced runs.

Runs ``run.py --trace 1`` twice per workload with the same seed and checks
that the deterministic counters repeat exactly: integrate.steps,
core.rhs_calls and bounds.chain_failed, and with them every other metric
counted in ``count`` units.  Each traced run also checks on its own that
tracing left the report bytes unchanged (``correct`` is false otherwise).

    python3 perfbench/selftest.py --seed 3 --seconds 4
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
REQUIRED = ("integrate.steps", "core.rhs_calls", "bounds.chain_failed")


def traced(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("--workload", choices=list(WORKLOADS), action="append")
    args = ap.parse_args()

    ok = True
    for wl in args.workload or WORKLOADS:
        a, b = (traced(wl, args.seed, args.seconds) for _ in range(2))
        counts = [k for k, v in a["metrics"].items() if v["unit"] == "count"]
        diff = [k for k in counts if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        missing = [k for k in REQUIRED if k not in counts]
        good = a["correct"] and b["correct"] and not diff and not missing
        ok &= good
        print(f"{wl:16s} {'ok' if good else 'FAIL'}  counters equal: {len(counts) - len(diff)}"
              f"/{len(counts)}  " + "  ".join(f"{k}={a['metrics'][k]['value']}" for k in REQUIRED)
              + (f"  differ: {diff}" if diff else "") + (f"  missing: {missing}" if missing else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
