#!/usr/bin/env python3
"""lunarbound benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload theorem-strip --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Every op goes through ``lunarbound.cli.main(argv)`` in this process, one
batch at a time with ``--jobs 1`` (a closed loop with one client).  The seed
only shapes the generated scenario configs; the program sees nothing else.
With ``--trace 0`` the run measures the end-to-end metrics for
``--seconds``; its times are CPU seconds, which on a shared virtual machine
leave out the time the host gives to other guests.  With ``--trace 1`` it
runs each batch of a fixed, seed-determined list twice, untraced and with
the per-layer wrappers of ``tracing.py`` installed, checks that both runs
wrote identical report bytes, and prints the per-layer metrics.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

clock = time.perf_counter


def cpu_clock() -> float:
    """CPU seconds of this process, all its threads and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# The equal-mass reference case: I* = 32/27 exactly.
EQUAL = {"masses": [1.0 / 3.0] * 3, "H": -1.0 / 6.0, "J": math.sqrt(8.0) / 9.0}
I_STAR_EQUAL = 32.0 / 27.0
LEVEL_TOL = 1e-12        # sampling must hit the H and J levels to this
SETUP_PROBES = 3         # fresh processes timed per run for setup_s
TRACE_SHARE = 0.4        # share of --seconds the untraced half of a traced run targets


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """One seeded stream of CLI batches and the check of their reports."""

    name = ""
    nominal_batch_s = 1.0   # only sizes the fixed batch list of a traced run

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.out = work / "out"

    def setup(self, main) -> None:
        """Everything a user pays before the first op, beyond the import."""
        raise NotImplementedError

    def batch(self, k: int):
        """argv for batch k, the ops it holds, and the report it writes."""
        raise NotImplementedError

    def check(self, rc, report: dict | None, n_ops: int) -> int:
        """Ops of one batch whose output is verified correct."""
        raise NotImplementedError

    def _sub_seed(self, k: int) -> int:
        return self.seed * 1_000_003 + k

    def _write_config(self, cfg: dict) -> str:
        path = self.work / "scenario.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def _chain(self, main) -> dict:
        """The bound set of the equal-mass case, through ``bounds``."""
        argv = ["--config", self._write_config(EQUAL), "--out", str(self.out), "bounds"]
        rc, _, report = call_cli(main, argv, self.out / "bounds.json")
        if rc != 0 or report is None:
            raise SetupError(f"bounds on the equal-mass case exited {rc}")
        return json.loads(report)


def halton(k: int, base: int) -> float:
    """k-th point of the van der Corput sequence in the given base."""
    x, f = 0.0, 1.0 / base
    while k:
        k, digit = divmod(k, base)
        x += digit * f
        f /= base
    return x


def shifted_halton(k: int, bases, shift) -> list:
    """Randomly shifted Halton point k (a Cranley-Patterson rotation): each
    coordinate is uniform on [0, 1), and any prefix of the sequence covers
    the cube evenly, so runs of different seeds see nearly the same mix."""
    return [(halton(k + 1, b) + s) % 1.0 for b, s in zip(bases, shift)]


# theorem-strip splits its inertia window into 16 strata, visited
# in bit-reversed order so that any prefix of a run covers the window
# evenly; the sampler draws uniformly inside each batch's stratum.
STRATA_BITS = 4


def stratum(k: int) -> int:
    return int(format(k % (1 << STRATA_BITS), f"0{STRATA_BITS}b")[::-1], 2)


class TheoremStrip(Workload):
    """verify-theorem at equal masses, level R, window [R, 10R]."""

    name = "theorem-strip"
    # Each batch recomputes the bound chain, as every CLI call does; eight
    # samples keep that share of the batch below 1%.
    count = 8
    nominal_batch_s = 3.0

    def setup(self, main) -> None:
        self.R = self._chain(main)["R"]

    def config(self, k: int) -> dict:
        # The initial inertia explains about 80% of a sample's cost (steps
        # grow like I^1.5), so each batch draws it from one stratum of the
        # window [R, 10R]; everything else comes from the batch's seed.
        width = 9.0 * self.R / (1 << STRATA_BITS)
        lo = self.R + width * stratum(k)
        return dict(EQUAL, level=self.R, i_range=[lo, lo + width],
                    sampler={"count": self.count, "seed": self._sub_seed(k)})

    def batch(self, k: int):
        argv = ["--config", self._write_config(self.config(k)), "--jobs", "1",
                "--out", str(self.out), "verify-theorem"]
        return argv, self.count, self.out / "theorem_report.json"

    def check(self, rc, report, n_ops) -> int:
        if rc not in (0, 1) or report is None:
            return 0
        samples = report["samples"]
        ok = sum(1 for s in samples
                 if s["passed"] and s["dH"] <= LEVEL_TOL and s["dJ"] <= LEVEL_TOL)
        all_passed = all(s["passed"] for s in samples)
        if len(samples) != n_ops or (rc == 0) != all_passed:
            return 0
        return ok


class SandwichStrip(Workload):
    """verify-sandwich at the R_bar strip, both directions to the horizon."""

    name = "sandwich-strip"
    nominal_batch_s = 3.5
    # The inner binary's elements explain most of a sample's step count.
    # At this strip the sampler's default a1 range, [0.20, 0.35] c_r, is
    # feasible only up to ~0.28 c_r: it redraws the rest, and a band pinned
    # above ~0.28 fails after 64 redraws.  The cost falls off a cliff near
    # that edge, so the bands stay below 0.27 c_r.
    a1_frac = (0.20, 0.27)
    e1 = (0.0, 0.4)

    def setup(self, main) -> None:
        import numpy as np

        self.R_bar = self._chain(main)["R_bar"]
        self.shift = np.random.default_rng(self.seed).uniform(size=2).tolist()

    def inner(self, k: int) -> dict:
        """Inner elements of batch k: a narrow band around point k of a
        shifted 2-D Halton sequence, so each batch's (a1, e1) is uniform on
        the ranges and any prefix of a run covers them evenly; the sampler
        draws inside the band."""
        bands = {}
        for key, (lo, hi), u in zip(("a1_frac", "e1"), (self.a1_frac, self.e1),
                                    shifted_halton(k, (2, 3), self.shift)):
            w = (hi - lo) / 64
            x = lo + (hi - lo - w) * u
            bands[key] = [x, x + w]
        return bands

    def batch(self, k: int):
        cfg = dict(EQUAL, sampler={"count": 1, "seed": self._sub_seed(k), "inner": self.inner(k)})
        argv = ["--config", self._write_config(cfg), "--jobs", "1",
                "--out", str(self.out), "verify-sandwich"]
        return argv, 1, self.out / "sandwich_report.json"

    def check(self, rc, report, n_ops) -> int:
        if rc != 0 or report is None or not math.isclose(report["I_bar"], self.R_bar,
                                                         rel_tol=1e-12):
            return 0
        agg = report["aggregate"]
        if agg["ok"] != agg["count"] or agg["violations"] != 0 or agg["count"] != n_ops:
            return 0
        return sum(1 for s in report["samples"] if s["ok"] and s["violations"] == 0)


class BoundsSweep(Workload):
    """Repeated ``bounds`` calls over a seeded grid of mass triples."""

    name = "bounds-sweep"
    grid = 512
    mass_range = (0.5, 2.0)
    levels = (-0.5, -1.0)
    nominal_batch_s = 0.03

    def setup(self, main) -> None:
        import numpy as np

        from lunarbound.bounds import euler_potential_saddle
        from lunarbound.core import MassParams

        # The triples are a shifted Halton grid, uniform on the mass box;
        # any prefix covers the box evenly, so runs of different seeds see
        # nearly the same mix of cheap and expensive chains.
        shift = np.random.default_rng(self.seed).uniform(size=3).tolist()
        lo, hi = self.mass_range
        self.triples = [[lo + (hi - lo) * x for x in shifted_halton(k, (2, 3, 5), shift)]
                        for k in range(self.grid)]
        self.saddle = lambda m: euler_potential_saddle(MassParams(*m))

    def inputs(self, k: int):
        """(masses, H, J) of op k; each pass over the grid opens with the
        equal-mass reference case."""
        i = k % (1 + len(self.levels) * self.grid)
        if i == 0:
            return EQUAL["masses"], EQUAL["H"], EQUAL["J"]
        m = self.triples[(i - 1) // len(self.levels)]
        H = self.levels[(i - 1) % len(self.levels)]
        # |J| at 95% of the splitting-feasibility limit
        return m, H, 0.95 * float(self.saddle(m)) / math.sqrt(2.0 * abs(H))

    def batch(self, k: int):
        m, H, J = self.inputs(k)
        argv = ["--masses", *(repr(float(x)) for x in m), "--H", repr(H), "--J", repr(float(J)),
                "--out", str(self.out), "bounds"]
        return argv, 1, self.out / "bounds.json"

    def check(self, rc, report, n_ops) -> int:
        if rc != 0 or report is None:
            return 0
        ordered = (report["I_star"] < report["I_star2"] < report["marchal"]["I_M"]
                   < report["I0_max_over_far_bodies"])
        reference = report["H"] == EQUAL["H"]
        if reference and abs(report["I_star"] - I_STAR_EQUAL) > 1e-9:
            return 0
        return 1 if ordered else 0


WORKLOADS = {w.name: w for w in (TheoremStrip, SandwichStrip, BoundsSweep)}


# ---------------------------------------------------------------------------
# Driving the CLI


def call_cli(main, argv, report_path: Path):
    """Run one CLI call in-process: (exit code or None, exception name, bytes).

    An exception escaping main() is what a user sees as a traceback; it is
    recorded by name, never re-raised.
    """
    report_path.unlink(missing_ok=True)
    sink = io.StringIO()
    rc, exc = None, None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            rc = main(argv)
        except Exception as e:  # noqa: BLE001 - every escape is a failed op
            exc = type(e).__name__
    data = report_path.read_bytes() if rc is not None and report_path.exists() else None
    return rc, exc, data


class Tally:
    def __init__(self):
        self.attempted = 0
        self.verified = 0
        self.wrong = 0          # ops whose completed output failed its check
        self.crashed = 0        # ops whose batch raised out of main()
        self.outcomes = []      # (rc, exception, report digest) per batch
        self.report_bytes = 0

    @property
    def failed(self) -> int:
        return self.attempted - self.verified


def run_batch(wl: Workload, main, k: int, tally: Tally) -> None:
    argv, n_ops, path = wl.batch(k)
    rc, exc, data = call_cli(main, argv, path)
    report = json.loads(data) if data is not None else None
    ok = wl.check(rc, report, n_ops)
    tally.attempted += n_ops
    tally.verified += ok
    if exc is not None:
        tally.crashed += n_ops
    elif rc in (0, 1):
        tally.wrong += n_ops - ok
    tally.outcomes.append((rc, exc, hashlib.sha256(data).hexdigest() if data else None))
    tally.report_bytes += len(data) if data else 0


def setup_workload(name: str, seed: int, work: Path):
    from lunarbound.cli import main

    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](seed, work)
    wl.out.mkdir(exist_ok=True)
    wl.setup(main)
    return wl, main


def probe_setup(name: str, seed: int, work: Path) -> list:
    """Set-up times of SETUP_PROBES fresh processes: the CPU seconds each
    spends from its start until the first op could start."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", name, "--seed", str(seed), "--work", str(work / f"probe{i}")]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SetupError("set-up probe did not exit") from None
        word, _, value = out.strip().partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise SetupError(f"set-up probe failed ({proc.returncode}): {err.strip()[-400:]}")
        times.append(float(value))
    return times


# ---------------------------------------------------------------------------
# Runs


def measure(wl: Workload, main, seconds: float):
    """Closed loop: batches back to back until ``seconds`` of wall time have
    passed; returns the tally, the wall time and the CPU time spent."""
    tally = Tally()
    t0, c0 = clock(), cpu_clock()
    k = 0
    while True:
        run_batch(wl, main, k, tally)
        k += 1
        wall = clock() - t0
        if wall >= seconds:
            return tally, wall, cpu_clock() - c0


def traced_run(wl: Workload, main, seconds: float):
    """Run a fixed batch list twice, untraced and traced, batch by batch.

    The two runs of a batch follow each other, in alternating order, so both
    passes see the same machine conditions and equally warm caches.
    """
    import tracing

    n = max(1, round(seconds * TRACE_SHARE / wl.nominal_batch_s))
    tr = tracing.Tracer()
    traced_main = tr.span("cli", main)
    tallies = {False: Tally(), True: Tally()}
    spent = {False: 0.0, True: 0.0}
    for k in range(n):
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            if on:
                tracing.install(tr)
            t0 = clock()
            try:
                run_batch(wl, traced_main if on else main, k, tallies[on])
            finally:
                spent[on] += clock() - t0
                tr.uninstall()

    plain, traced = tallies[False], tallies[True]
    identical = plain.outcomes == traced.outcomes
    metrics = tracing.layer_metrics(tr)
    metrics["cli.report_bytes"] = (traced.report_bytes, "bytes")
    metrics["trace.overhead_frac"] = (spent[True] / spent[False] - 1.0, "ratio")
    return traced, metrics, identical, tr


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            if out.returncode == 0:
                commit = out.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "seed": seed,
    }


def run(args) -> int:
    t_import = clock()
    import lunarbound.cli  # noqa: F401 - timed import, the users' first cost

    import_s = clock() - t_import
    if Path(lunarbound.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SetupError(f"imported lunarbound from {lunarbound.cli.__file__}, not {SRC}")
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            wl, main = setup_workload(args.workload, args.seed, work)
            tally, layer, identical, tracer = traced_run(wl, main, args.seconds)
            layer["setup.import_s"] = (import_s, "s")
            metrics = layer
            correct = identical and tally.wrong == 0
            times = {}
        else:
            setup_times = probe_setup(args.workload, args.seed, work)
            wl, main = setup_workload(args.workload, args.seed, work)
            tally, wall, cpu = measure(wl, main, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "ops_per_cpu_s": (tally.verified / cpu, "1/s"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (rss_mb, "MB"),
                "ops_ok_frac": (tally.verified / tally.attempted, "ratio"),
            }
            correct = tally.wrong == 0
            tracer = None
            times = {"wall_s": wall, "cpu_s": cpu}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    result = {
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    record = dict(result, workload=args.workload, seconds=args.seconds, env=env,
                  crashed=tally.crashed, wrong=tally.wrong, **times)
    if tracer is not None:
        record["layers"] = {name: vars(t) for name, t in sorted(tracer.totals.items())}
        (results / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}))
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name:34s} {value:14.6g} {unit}")
    print(f"{args.workload}  correct={str(correct).lower()} attempted={tally.attempted} "
          f"failed={tally.failed} (crashed {tally.crashed}, wrong {tally.wrong})"
          + "".join(f" {k}={v:.3f}" for k, v in times.items()))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of all metrics."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        res = json.loads(out.stdout.strip().splitlines()[-1])
        for metric, v in res["metrics"].items():
            rows.append((name, metric, v["value"], v["unit"], res["correct"]))
    print(f"{'workload':16s} {'metric':34s} {'value':>14s} {'unit':6s} correct")
    for name, metric, value, unit, ok in rows:
        print(f"{name:16s} {metric:34s} {value:14.6g} {unit:6s} {str(ok).lower()}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    if not (SRC / "lunarbound" / "cli.py").is_file():
        print(f"error: no lunarbound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.probe_setup:
            try:
                setup_workload(args.workload, args.seed, args.work)
                print(f"ready {time.process_time()!r}", flush=True)
            finally:
                shutil.rmtree(args.work, ignore_errors=True)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
