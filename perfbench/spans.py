"""Layer spans recorded from outside the program.

The benchmark's traced passes wrap the public functions of each layer of
``repro`` with timing spans: :func:`install` rebinds every module-level
reference to a wrapped function and patches wrapped methods on their
classes, so the program itself is unchanged and its own
``repro.obs.trace`` tracer stays uninstalled.

A span's name is ``<layer>.<what>``.  The recorder keeps, per name, the
inclusive time, the self time (inclusive minus the time its child spans
cover) and the call count, plus additive counters.  Spans nest per
thread.  ``Solver.add_clause`` runs once per clause, so it is timed by a
cheaper leaf accumulator (:data:`LEAF`) that enclosing spans subtract
from their self time.

Forked workers (the gateway's task pool, the solver service, portfolio
races) inherit the wrappers.  A fork hook gives each worker empty
totals; the worker appends them to ``spool_dir/<pid>.jsonl`` whenever a
root span ends (for spans outside :data:`FLUSH_ON`, at most every
:data:`FLUSH_EVERY_S`), because such workers end with ``os._exit`` and
run no exit hooks.  :meth:`Recorder.merge_spool` folds the files back in.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import defaultdict

from repro.obs.profile import extract_profile, profile_summary

#: The leaf span timed by the accumulator.
LEAF = "sat.load"
#: Root spans after which a forked worker always writes its totals.
FLUSH_ON = frozenset({
    "sat.search", "tasks.verify", "tasks.generate", "tasks.optimize",
})
FLUSH_EVERY_S = 0.5

#: Solver counters carried by task results, under their layer names.
SOLVER_COUNTS = {
    "propagations": "sat.propagations",
    "conflicts": "sat.conflicts",
    "decisions": "sat.decisions",
    "minimized_literals": "sat.minimized_literals",
    "learned_literals": "sat.learned_literals",
}


class Recorder:
    """Per-process span and counter totals (see module docstring)."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.child = False
        #: [seconds, calls] of the leaf span; mutated in place.
        self.leaf = [0.0, 0]
        self._reset()

    def _reset(self) -> None:
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.roots: list[tuple[float, float]] = []
        self.services: set[int] = set()
        self.leaf[0], self.leaf[1] = 0.0, 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._last_flush = time.perf_counter()

    def forked(self) -> None:
        """Fork hook: the parent's totals and open spans are not this
        worker's work."""
        self.child = True
        self._reset()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        # [name, start, time covered by child spans, leaf seconds at
        # entry, leaf seconds inside child spans]
        frame = [name, time.perf_counter(), 0.0, self.leaf[0], 0.0]
        self._stack().append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        name, start, covered, leaf_at_entry, leaf_in_children = frame
        duration = end - start
        leaf_here = self.leaf[0] - leaf_at_entry
        if stack and stack[-1] is frame:
            stack.pop()
        with self._lock:
            # A span nested in a span of the same name (recursion) adds
            # no inclusive time of its own.
            if not any(outer[0] == name for outer in stack):
                self.inclusive[name] += duration
            self.self_time[name] += (duration - covered
                                     - (leaf_here - leaf_in_children))
            self.calls[name] += 1
            if stack:
                stack[-1][2] += duration
                stack[-1][4] += leaf_here
            elif not self.child:
                self.roots.append((start, end))
        if self.child and not stack:
            if name in FLUSH_ON or end - self._last_flush > FLUSH_EVERY_S:
                self.flush()

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def add_solver_stats(self, stats: dict) -> None:
        """Fold a task's cumulative solver counters and phase estimates."""
        for key, name in SOLVER_COUNTS.items():
            self.add(name, stats.get(key, 0))
        phases = profile_summary(extract_profile(stats))["phases"]
        for phase in ("propagate", "analyze", "decide"):
            self.add(f"sat.{phase}_s", phases[phase]["est_time_s"])

    def snapshot(self) -> dict:
        with self._lock:
            record = {
                "inclusive": dict(self.inclusive),
                "self": dict(self.self_time),
                "calls": dict(self.calls),
                "counters": dict(self.counters),
                "roots": list(self.roots),
            }
        seconds, calls = self.leaf
        for key, value in (("inclusive", seconds), ("self", seconds),
                           ("calls", calls)):
            record[key][LEAF] = record[key].get(LEAF, 0) + value
        return record

    def flush(self) -> None:
        """Append this worker's totals to its spool file and zero them."""
        record = self.snapshot()
        path = os.path.join(self.spool_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        with self._lock:
            for table in (self.inclusive, self.self_time, self.calls,
                          self.counters):
                table.clear()
            self.leaf[0], self.leaf[1] = 0.0, 0
            self._last_flush = time.perf_counter()

    def merge_spool(self) -> None:
        """Fold every worker spool file in."""
        for entry in sorted(os.listdir(self.spool_dir)):
            with open(os.path.join(self.spool_dir, entry),
                      encoding="utf-8") as handle:
                records = [json.loads(line) for line in handle
                           if line.strip()]
            with self._lock:
                for record in records:
                    for key, table in (("inclusive", self.inclusive),
                                       ("self", self.self_time),
                                       ("calls", self.calls),
                                       ("counters", self.counters)):
                        for name, value in record[key].items():
                            table[name] += value


def covered_seconds(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _timed(recorder: Recorder, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        frame = recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                # Inside the span, so a worker flushes these counters
                # together with the span that produced them.
                after(recorder, args, kwargs, result)
        finally:
            recorder.exit(frame)
        return result

    return wrapper


def _leaf(recorder: Recorder, fn):
    perf_counter = time.perf_counter

    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            leaf = recorder.leaf
            leaf[0] += perf_counter() - start
            leaf[1] += 1

    return wrapper


def _after_task(recorder, args, kwargs, result) -> None:
    recorder.add("encoding.vars", result.actual_vars)
    recorder.add("encoding.clauses", result.clauses)
    recorder.add_solver_stats(result.solver_stats)
    if result.task != "verification":
        recorder.add("opt.probes", result.solve_calls)
    recorder.add("pool.fallbacks",
                 result.metrics.get("service.fallbacks", 0))


def _after_refine(recorder, args, kwargs, added) -> None:
    recorder.add("encoding.lazy_rounds", 1)
    recorder.add("encoding.lazy_clauses_added", added)


def _after_race(recorder, args, kwargs, result) -> None:
    clauses = kwargs.get("clauses", args[1] if len(args) > 1 else ())
    recorder.add("pool.clauses_shipped", len(clauses))


def _after_start(recorder, args, kwargs, result) -> None:
    recorder.services.add(id(args[0]))


def _after_close(recorder, args, kwargs, result) -> None:
    # close() is idempotent; count each started session once.
    if id(args[0]) not in recorder.services:
        return
    recorder.services.discard(id(args[0]))
    counters = args[0].metrics.as_dict()
    recorder.add("pool.probes", counters.get("service.probes", 0))
    recorder.add(
        "pool.clauses_shipped",
        counters.get("service.clauses_loaded", 0)
        + counters.get("service.clauses_shipped", 0),
    )
    recorder.add("pool.worker_crashes",
                 counters.get("service.worker_crashes", 0))


def _rebind(original, wrapper) -> None:
    """Point every ``repro`` module global bound to ``original`` at
    ``wrapper``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap each layer's public functions for the rest of the process."""
    # Importing the packages loads every module whose globals are rebound.
    from repro.encoding.encoder import EtcsEncoding
    from repro.encoding.lazy import LazyRefiner
    from repro.encoding.validate import validate_solution
    from repro.gateway import exact_key, family_key
    from repro.gateway.pool import TaskWorkerPool
    from repro.logic.totalizer import Totalizer
    from repro.opt.minimize import minimize_sum
    from repro.sat import SolverService, solve_portfolio
    from repro.sat.solver import Solver
    from repro.tasks import generate_layout, optimize_schedule
    from repro.tasks import verify_schedule

    os.register_at_fork(after_in_child=recorder.forked)
    Solver.add_clause = _leaf(recorder, Solver.__dict__["add_clause"])
    methods = [
        (EtcsEncoding, "build", "encoding.build", None),
        (EtcsEncoding, "decode", "encoding.decode_validate", None),
        (LazyRefiner, "refine", "encoding.lazy_refine", _after_refine),
        (Totalizer, "__init__", "logic.totalizer", None),
        (Solver, "solve", "sat.search", None),
        (SolverService, "start", "pool.start", _after_start),
        (SolverService, "probe", "pool.probe", None),
        (SolverService, "close", "pool.close", _after_close),
        (TaskWorkerPool, "run", "gateway.pool_run", None),
        # Private, but the only boundary between waiting for a free
        # worker and using it.
        (TaskWorkerPool, "_run_on", "gateway.worker", None),
    ]
    for cls, attr, name, after in methods:
        setattr(cls, attr, _timed(recorder, name, cls.__dict__[attr], after))
    functions = [
        (validate_solution, "encoding.decode_validate", None),
        (minimize_sum, "opt.descent", None),
        (solve_portfolio, "pool.race", _after_race),
        (exact_key, "gateway.fingerprint", None),
        (family_key, "gateway.fingerprint", None),
        (verify_schedule, "tasks.verify", _after_task),
        (generate_layout, "tasks.generate", _after_task),
        (optimize_schedule, "tasks.optimize", _after_task),
    ]
    for original, name, after in functions:
        _rebind(original, _timed(recorder, name, original, after))
