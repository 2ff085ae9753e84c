"""Service vs serial descent on the running example (perf trajectory).

Runs the running example's generation and optimization descents at
``parallel=1`` (one in-process incremental solver) and at
``parallel=PROCESSES`` (the solver service: member 0, the primary,
solves in process; the CNF reaches the helper workers once per descent
through ``fork``, probes send them assumptions plus clause deltas, and
they keep their learned clauses).  Both settings run the same descent
loop, and the service's primary walks the serial search, so the
benchmark asserts equal verdicts, optima, optimality proofs and
linear-descent probe counts.  It records both wall times, their ratio
and the clauses-shipped economics of the service under stable
``bench.*`` keys.

The ratio is recorded, never gated: it is a parallel speedup only on a
host with more than ``PROCESSES`` CPUs (``bench.host_cpus``); on one or
two CPUs it prices the race's fork and IPC overhead instead.

Run via ``make bench-descent`` (writes ``BENCH_descent.json`` and
appends a ``BENCH_HISTORY.jsonl`` record) or directly::

    PYTHONPATH=src python benchmarks/bench_descent.py --out out.json
"""

from __future__ import annotations

import argparse
import os
import time

from repro.casestudies.running_example import running_example
from repro.obs.metrics import MetricsRegistry
from repro.tasks import generate_layout, optimize_schedule

PROCESSES = 4
REPEAT = 3
TASKS = ("generation", "optimization")


def _run_task(task: str, parallel: int):
    study = running_example()
    net = study.discretize()
    run = generate_layout if task == "generation" else optimize_schedule
    # Pinned to linear: a core descent's probe count follows the cores,
    # which a helper's UNSAT proof can change.
    return run(net, study.schedule, study.r_t_min, strategy="linear",
               parallel=parallel)


def _best_of(fn, repeat: int = REPEAT):
    """Run ``fn`` a few times; return (last value, best wall time)."""
    best = None
    value = None
    for __ in range(repeat):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return value, best


def bench_task(reg: MetricsRegistry, task: str) -> None:
    """Benchmark one task at both settings and check they agree."""
    serial, serial_s = _best_of(lambda: _run_task(task, 1))
    service, service_s = _best_of(lambda: _run_task(task, PROCESSES))

    assert service.satisfiable == serial.satisfiable
    assert service.objective_value == serial.objective_value
    assert service.proven_optimal == serial.proven_optimal
    # Both tasks descend with the pinned linear strategy.
    assert service.solve_calls == serial.solve_calls

    prefix = f"bench.{task}."
    reg.set(f"{prefix}serial_s", round(serial_s, 4))
    reg.set(f"{prefix}service_s", round(service_s, 4))
    reg.set(f"{prefix}service_wall_ratio", round(service_s / serial_s, 3))
    reg.set(f"{prefix}probes", serial.solve_calls)
    # Delta-shipping economics of the service session (last run).
    for key in ("service.clauses_loaded", "service.clauses_shipped",
                "service.clauses_skipped", "share.broadcast",
                "share.imported"):
        value = service.metrics.get(key)
        if value is not None:
            reg.set(f"{prefix}{key}", value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_descent.json",
                        help="output JSON path (MetricsRegistry format)")
    parser.add_argument("--history", default="BENCH_HISTORY.jsonl",
                        help="bench history JSONL to append to "
                             "('' disables)")
    args = parser.parse_args(argv)

    reg = MetricsRegistry()
    reg.set("bench.processes", PROCESSES)
    reg.set("bench.host_cpus", os.cpu_count())
    for task in TASKS:
        bench_task(reg, task)
        summary = reg.as_dict()
        print(f"{task}: serial {summary[f'bench.{task}.serial_s']}s, "
              f"service {summary[f'bench.{task}.service_s']}s "
              f"(ratio {summary[f'bench.{task}.service_wall_ratio']}, "
              f"{os.cpu_count()} CPUs)")
    reg.write_json(args.out)
    print(f"wrote {args.out}")
    if args.history:
        from history import append_history

        append_history("descent", reg.as_dict(), path=args.history)
        print(f"history -> {args.history}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
