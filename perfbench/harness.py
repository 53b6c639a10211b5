"""Tasks, spans and the timed pass loop shared by the four workloads.

A task makes only calls into thermoflow, through `Api.call`, and returns its
outputs as a dict whose first key is the primary result. Its check runs
afterwards, outside the timed region, and returns (label, ok, detail) rows.
"""
from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

TAIL_BEYOND = 10    # samples that must lie above the reported tail percentile
REP_TARGET_S = 0.03  # a task faster than this is repeated within a pass ...
MAX_REPS = 5         # ... up to this many times, and its median time is kept


@dataclass
class Task:
    id: str
    module: str                         # layer blamed when a tolerance is missed
    run: Callable                       # (api) -> dict of outputs
    check: Callable                     # (outputs) -> list of (label, ok, detail)
    counts: Callable | None = None      # (outputs) -> {counter: value}, traced passes


def close(label, got, want, tol):
    err = abs(got - want)
    return label, bool(err <= tol), f"|{got!r} - {want!r}| = {err:.3e} (tol {tol:.0e})"


def equal(label, got, want):
    return label, bool(got == want), f"{got!r} vs {want!r}"


def at_most(label, got, bound):
    return label, bool(got <= bound), f"{got!r} <= {bound!r}"


# --------------------------------------------------------------------------
# spans
# --------------------------------------------------------------------------

def _rpf_counts(out):
    return {"transfer.words": len(out.adjoint_measure)}


def _report_counts(out):
    return {"correlations.truncation": out.truncation}


def _system_counts(out):
    return {"recursions.rows": len(out.relations), "recursions.unknowns": len(out.unknowns)}


def _verdict_counts(out):
    return {"recursions.kernel_dim": out.kernel_dim}


# Work counters read from the values the public API returns.
COUNTERS = {
    "transfer.rpf": _rpf_counts,
    "correlations.variance": _report_counts,
    "correlations.covariance": _report_counts,
    "correlations.triple_covariance": _report_counts,
    "recursions.build_relations": _system_counts,
    "recursions.build_completed_relations": _system_counts,
    "recursions.solve_vanishing": _verdict_counts,
}
COUNT_NAMES = ("transfer.words", "correlations.truncation", "recursions.rows",
               "recursions.unknowns", "recursions.kernel_dim", "cli.bytes_written")


class Tracer:
    """In-memory spans: one root span per task, one child per API call."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._stack: list = []
        self._task = None
        self.pass_no = 0

    def open(self, name: str, task: str | None = None) -> dict:
        if task is not None:
            self._task = task
        rec = {"id": len(self.spans), "pass": self.pass_no, "task": self._task,
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None, "error": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def close(self, rec: dict):
        rec["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, args, kw):
        rec = self.open(name)
        try:
            out = fn(*args, **kw)
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            self.close(rec)
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, value in counter(out).items():
                self.counts[key] += value
        return out

    def with_self_time(self) -> list:
        """Spans with self time: duration minus the time covered by children."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [dict(s, self=s["end"] - s["start"] - child[s["id"]]) for s in self.spans]


class Api:
    """Public thermoflow entry points by span name (`<module>.<entry>`)."""

    def __init__(self, entries: dict):
        self.entries = entries
        self.tracer: Tracer | None = None

    def call(self, name: str, *args, **kw):
        fn = self.entries[name]
        try:
            if self.tracer is None:
                return fn(*args, **kw)
            return self.tracer.call(name, fn, args, kw)
        except Exception as exc:
            if not hasattr(exc, "perfbench_span"):
                exc.perfbench_span = name
            raise


# --------------------------------------------------------------------------
# checks and the perturbation self-check
# --------------------------------------------------------------------------

def perturb(x):
    """A value that differs from x by more than any tolerance the checks use."""
    if isinstance(x, bool):
        return not x
    if isinstance(x, (int, float, complex, Fraction, np.number, np.ndarray)):
        return x + 1 + abs(x)
    if hasattr(x, "tocsr"):   # scipy sparse matrix
        return x * 3
    if isinstance(x, str):
        return x + "~"
    if isinstance(x, bytes):
        return x + b"~"
    if isinstance(x, tuple):
        return tuple(perturb(v) for v in x)
    if isinstance(x, list):
        return [perturb(v) for v in x]
    if isinstance(x, dict):
        return {k: perturb(v) for k, v in x.items()}
    raise TypeError(f"cannot perturb {type(x).__name__}")


def failures(task: Task, outputs: dict) -> list:
    """Failed check rows; an oracle that raises counts as a failure too."""
    try:
        rows = task.check(outputs)
    except Exception as exc:  # a broken output must not stop the run
        return [("check raised", False, f"{type(exc).__name__}: {exc}")]
    return [row for row in rows if not row[1]]


def primary_perturbed(outputs: dict) -> dict:
    key = next(iter(outputs))
    return dict(outputs, **{key: perturb(outputs[key])})


# --------------------------------------------------------------------------
# passes and metrics
# --------------------------------------------------------------------------

class Run:
    """Runs passes over a task list and keeps times, failures and spans."""

    def __init__(self, tasks: list, api: Api):
        self.tasks = tasks
        self.api = api
        self.attempted = 0
        self.failed = 0
        self.module_failed: dict = defaultdict(int)
        self.failure_log: list = []
        self.check_s = 0.0
        self.last_outputs: dict = {}
        self.tracer = Tracer()
        self.pass_times = {False: [], True: []}   # per-task seconds, keyed by traced
        self.reps: dict = {}                      # repetitions per task in timed passes

    def one_pass(self, traced: bool = False, record: bool = True) -> list:
        """Time every task once, or `reps` times keeping the median in untraced
        passes; return the per-task seconds."""
        self.api.tracer = self.tracer if traced else None
        self.tracer.pass_no = len(self.pass_times[traced])
        times = []
        for task in self.tasks:
            samples = []
            for _ in range(1 if traced else self.reps.get(task.id, 1)):
                root = self.tracer.open("task", task=task.id) if traced else None
                t0 = time.perf_counter()
                try:
                    outputs = task.run(self.api)
                    error = None
                except Exception as exc:
                    outputs, error = None, exc
                samples.append(time.perf_counter() - t0)
                if root is not None:
                    self.tracer.close(root)
                self._account(task, outputs, error, traced)
            times.append(statistics.median(samples))
        self.api.tracer = None
        if record:
            self.pass_times[traced].append(times)
        return times

    def set_repetitions(self, times: list):
        """Repeat short tasks so that each timed sample covers about REP_TARGET_S."""
        self.reps = {task.id: max(1, min(MAX_REPS, math.ceil(REP_TARGET_S / max(t, 1e-9))))
                     for task, t in zip(self.tasks, times)}

    def _account(self, task, outputs, error, traced):
        self.attempted += 1
        if error is not None:
            bad = [("raised", False, f"{type(error).__name__}: {error}")]
            module = getattr(error, "perfbench_span", task.module).split(".")[0]
        else:
            t0 = time.perf_counter()
            bad = failures(task, outputs)
            self.check_s += time.perf_counter() - t0
            module = task.module
            self.last_outputs[task.id] = outputs
            if traced and task.counts is not None:
                for key, value in task.counts(outputs).items():
                    self.tracer.counts[key] += value
        if bad:
            self.failed += 1
            self.module_failed[module] += 1
            self.failure_log.append({"task": task.id, "module": module,
                                     "failures": [f"{l}: {d}" for l, _, d in bad]})

    def self_check(self) -> dict:
        """Every task's perturbed primary result must fail its own check."""
        attempted = missed = 0
        escaped = []
        for task in self.tasks:
            outputs = self.last_outputs.get(task.id)
            if outputs is None:
                continue
            attempted += 1
            if not failures(task, primary_perturbed(outputs)):
                missed += 1
                escaped.append(task.id)
        caught_frac = (attempted - missed) / attempted if attempted else 0.0
        return {"attempted": attempted, "failed_frac": caught_frac, "escaped": escaped}


def tail(samples: list) -> tuple:
    """Highest percentile with TAIL_BEYOND samples above it: (value, percentile)."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a pass needs more than {TAIL_BEYOND} tasks, has {n}")
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def pass_metrics(passes: list) -> dict:
    """Each task's median over the timed passes, then the sum, median and tail.

    Taking each task's median first keeps a short stall of the machine in one
    pass from moving the sum, the median or the tail.
    """
    per_task = [statistics.median(times) for times in zip(*passes)]
    value, percentile = tail(per_task)
    return {"wall_s": sum(per_task),
            "task_p50_ms": statistics.median(per_task) * 1e3,
            "task_tail_ms": value * 1e3,
            "tail_percentile": percentile,
            "tasks_per_pass": len(per_task),
            "passes": len(passes)}


def layer_metrics(run: Run, entries: dict) -> dict:
    """Per-pass span seconds and calls per entry, counts, failures per module."""
    traced = len(run.pass_times[True])
    out = {}
    for name in entries:
        out[f"{name}.s"] = 0.0
        out[f"{name}.calls"] = 0.0
    for s in run.tracer.spans:
        if s["name"] != "task":
            out[f"{s['name']}.s"] += (s["end"] - s["start"]) / traced
            out[f"{s['name']}.calls"] += 1.0 / traced
    for key in COUNT_NAMES:
        out[key] = run.tracer.counts.get(key, 0.0) / traced
    for module in sorted({name.split(".")[0] for name in entries}):
        out[f"{module}.failed"] = float(run.module_failed.get(module, 0))
    untraced, traced_wall = (statistics.median(sum(p) for p in run.pass_times[k])
                             for k in (False, True))
    out["trace.overhead_frac"] = traced_wall / untraced - 1.0
    return out
