"""Per-layer spans recorded by wrappers around lunarbound's public names.

Every wrapper is installed where the caller looks the name up (a module
global of the calling module), so the program itself is untouched and
uninstalling restores the exact original objects.  A missing name is
skipped, so a refactor that removes one leaves the other layers measured.

Spans form a stack.  Each closed span adds its duration to the span below
it, so a layer's self time is its duration minus the part its child spans
cover.  Coarse spans (one per call of cli, harness, bounds, integrate,
osculate, kepler) are kept as records; the hot ones (RHS calls, stepper
steps, dense output, conserved quantities) only update totals, which keeps
memory flat over hundreds of thousands of calls.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

clock = time.perf_counter


@dataclass
class Totals:
    calls: int = 0
    busy: float = 0.0
    self_s: float = 0.0
    failed: int = 0


@dataclass
class Tracer:
    """Span stack, per-name totals, coarse span records and counters."""

    totals: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def total(self, name: str) -> Totals:
        t = self.totals.get(name)
        if t is None:
            t = self.totals[name] = Totals()
        return t

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- spans -------------------------------------------------------------

    # A frame on the stack is [child time, name, start, span record index].
    # A hot frame has no record and carries its parent's index instead, so
    # a coarse span opened under it is recorded under that parent.

    def open(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        start = clock()
        frame = [0.0, name, start, len(self.spans)]
        self.spans.append([name, start, 0.0, parent])
        self._stack.append(frame)
        return frame

    def close(self, frame: list, failed: bool = False) -> None:
        end = clock()
        self._stack.pop()
        child, name, start, index = frame
        dur = end - start
        self.spans[index][2] = end
        t = self.total(name)
        t.calls += 1
        t.busy += dur
        t.self_s += dur - child
        t.failed += failed
        if self._stack:
            self._stack[-1][0] += dur

    def span(self, name: str, fn, on_result=None):
        """Wrap fn in a recorded span; on_result(result) may add counters."""

        def wrapper(*args, **kwargs):
            frame = self.open(name)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                self.close(frame, failed)
            if on_result is not None:
                on_result(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def hot(self, name: str, fn):
        """Wrap a high-frequency callable: totals only, no span record."""
        t = self.total(name)
        stack = self._stack

        def wrapper(*args):
            frame = [0.0, name, 0.0, stack[-1][3] if stack else -1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - start
                stack.pop()
                t.calls += 1
                t.busy += dur
                t.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, module_name: str, attr: str, make) -> None:
        """Replace module.attr by make(original); skip a missing name."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        setattr(module, attr, make(original))
        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public names where lunarbound's callers find them.

    ``import lunarbound.integrate as m`` binds the re-exported function, not
    the module, so modules are always resolved with importlib.
    """
    tr = tracer

    def on_trajectory(traj):
        tr.count("integrate.steps", traj.n_steps)
        tr.count("integrate.nodes", len(traj.t))
        tr.count("integrate.events", len(traj.events))
        tr.count("integrate.collisions_regularized",
                 sum(1 for e in traj.events if e.kind == "collision_regularized"))
        if not traj.complete:
            tr.count("integrate.incomplete")

    # integrate layer, as harness and cli call it
    for mod in ("lunarbound.harness", "lunarbound.cli"):
        for attr in ("integrate", "integrate_regularized"):
            tr.patch(mod, attr, lambda f: tr.span("integrate", f, on_trajectory))

    # core: the RHS callable integrate builds, and the conserved quantities
    # integrate evaluates for its residuals
    tr.patch("lunarbound.integrate", "make_rhs",
             lambda f: lambda *a, **k: tr.hot("core.rhs", f(*a, **k)))
    for attr in ("energy_split", "angular_momentum"):
        tr.patch("lunarbound.integrate", attr, lambda f: tr.hot("core.conserved", f))

    # the stepper: accepted steps and dense interpolants, minus their RHS
    def traced_solver(cls):
        step = tr.hot("integrate.step", cls.step)
        dense = tr.hot("integrate.dense", cls.dense_output)
        return type(cls.__name__, (cls,), {"step": step, "dense_output": dense})

    tr.patch("lunarbound.integrate", "DOP853", traced_solver)

    # bounds: the chain as harness and i0 call it, and its Marchal part
    for mod in ("lunarbound.harness", "lunarbound.bounds"):
        tr.patch(mod, "compute_chain", lambda f: tr.span("bounds.chain", f))
    tr.patch("lunarbound.bounds", "marchal_comparison", lambda f: tr.span("bounds.marchal", f))

    # harness batches as cli calls them
    for attr in ("run_theorem_experiment", "run_sandwich_experiment"):
        tr.patch("lunarbound.cli", attr, lambda f: tr.span("harness", f))

    # osculate and kepler, as harness and osculate call them
    tr.patch("lunarbound.harness", "verify_deviation", lambda f: tr.span("osculate.verify", f))
    tr.patch("lunarbound.osculate", "sandwich_ode", lambda f: tr.span("osculate.sandwich_ode", f))
    tr.patch("lunarbound.kepler", "propagate", lambda f: tr.span("kepler.propagate", f))


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metric values (name -> (value, unit)) from one traced pass."""
    t = tr.total
    c = tr.counters.get
    steps = c("integrate.steps", 0)
    rhs = t("core.rhs")
    conserved = t("core.conserved")
    integ = t("integrate")
    step = t("integrate.step")
    chain = t("bounds.chain")
    verify = t("osculate.verify")
    harness = t("harness")
    cli = t("cli")

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    return {
        "core.rhs_calls": (rhs.calls, "count"),
        "core.rhs_busy_s": (rhs.busy, "s"),
        "core.rhs_us_per_call": (per(rhs.busy, rhs.calls, 1e6), "us"),
        "core.conserved_calls": (conserved.calls, "count"),
        "core.conserved_busy_s": (conserved.busy, "s"),
        "integrate.calls": (integ.calls, "count"),
        "integrate.busy_s": (integ.busy, "s"),
        "integrate.self_s": (integ.self_s, "s"),
        "integrate.steps": (steps, "count"),
        "integrate.us_per_step": (per(integ.busy, steps, 1e6), "us"),
        "integrate.rhs_per_step": (per(rhs.calls, steps), "count"),
        "integrate.stepper_self_s": (step.self_s, "s"),
        "integrate.dense_busy_s": (t("integrate.dense").busy, "s"),
        "integrate.nodes": (c("integrate.nodes", 0), "count"),
        "integrate.events": (c("integrate.events", 0), "count"),
        "integrate.collisions_regularized": (c("integrate.collisions_regularized", 0), "count"),
        "integrate.failed": (integ.failed + c("integrate.incomplete", 0), "count"),
        "kepler.propagate_calls": (t("kepler.propagate").calls, "count"),
        "kepler.propagate_busy_s": (t("kepler.propagate").busy, "s"),
        "osculate.verify_calls": (verify.calls, "count"),
        "osculate.verify_busy_s": (verify.busy, "s"),
        "osculate.self_s": (verify.self_s, "s"),
        "osculate.sandwich_ode_busy_s": (t("osculate.sandwich_ode").busy, "s"),
        "bounds.chain_calls": (chain.calls, "count"),
        "bounds.chain_busy_s": (chain.busy, "s"),
        "bounds.marchal_busy_s": (t("bounds.marchal").busy, "s"),
        "bounds.chain_failed": (chain.failed, "count"),
        "harness.busy_s": (harness.busy, "s"),
        "harness.self_s": (harness.self_s, "s"),
        "cli.self_s": (cli.self_s, "s"),
    }
