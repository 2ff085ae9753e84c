"""CDCL core throughput of the SAT kernel build.

Times the raw solver — clause loading plus one search — on the eager
verification CNFs of the running example and Nordlandsbanen, and records
propagations per second of search under stable
``bench.core.<case>.<build>.*`` keys.  ``load_s`` times one bulk
``add_clauses`` call, the path every task loads its formula through.
``<build>`` is the kernel build a plain import loads: ``interpreted``,
or ``compiled`` when the optional mypyc extension is built.  On a
compiled host the interpreted source is timed as well, and
``bench.core.<case>.compiled.speedup`` records the compiled build's
props/s over it.  Both builds run the same source, so
they search the same tree and the ratio measures interpreter overhead.

Run via ``make bench-core`` (writes ``BENCH_core.json``) or directly::

    PYTHONPATH=src python benchmarks/bench_core.py --out out.json
"""

from __future__ import annotations

import argparse
import os
import time

from repro.casestudies.base import all_case_studies
from repro.obs.metrics import MetricsRegistry
from repro.sat.kernel import kernel_build, load_interpreted
from repro.sat.solver import Solver
from repro.tasks.common import build_encoding

#: Case studies the acceptance gate names; the remaining two are close
#: cousins of Nordlandsbanen and would only slow the CI lane down.
INSTANCES = ("Running Example", "Nordlandsbanen")

REPEAT = 3


def _slug(name: str) -> str:
    return name.lower().replace(" ", "-")


def available_engines() -> dict:
    """Solver factories to time, keyed by kernel build: ``Solver`` under
    the loaded build, plus the interpreted source on a compiled host."""
    engines = {kernel_build(): Solver}
    if kernel_build() == "compiled":
        engines["interpreted"] = load_interpreted().Kernel
    return engines


def run_engine(factory, num_vars: int, clauses: list[list[int]]) -> dict:
    """Best-of-``REPEAT`` load/solve timings for one solver factory."""
    best_load = best_solve = None
    for __ in range(REPEAT):
        solver = factory()
        start = time.perf_counter()
        solver.ensure_var(max(num_vars, 1))
        solver.add_clauses(clauses)
        load_s = time.perf_counter() - start
        start = time.perf_counter()
        verdict = solver.solve()
        solve_s = time.perf_counter() - start
        best_load = load_s if best_load is None else min(best_load, load_s)
        best_solve = (
            solve_s if best_solve is None else min(best_solve, solve_s)
        )
        propagations = solver.stats.propagations
    return {
        "load_s": best_load,
        "solve_s": best_solve,
        "verdict": verdict,
        "propagations": propagations,
        "props_per_s": propagations / best_solve if best_solve else 0.0,
    }


def bench_instance(reg: MetricsRegistry, study, engines) -> None:
    encoding = build_encoding(
        study.discretize(), study.schedule, study.r_t_min, None
    )
    clauses = encoding.cnf.clauses
    num_vars = encoding.cnf.num_vars
    prefix = f"bench.core.{_slug(study.name)}."
    reg.set(f"{prefix}vars", num_vars)
    reg.set(f"{prefix}clauses", len(clauses))

    # The builds run back to back, best-of-3 each; load drift over a
    # <10 s window is below the gate's noise threshold.
    results = {
        kind: run_engine(factory, num_vars, clauses)
        for kind, factory in engines.items()
    }
    for kind, result in results.items():
        reg.set(f"{prefix}{kind}.load_s", round(result["load_s"], 4))
        reg.set(f"{prefix}{kind}.solve_s", round(result["solve_s"], 4))
        reg.set(f"{prefix}{kind}.props_per_s",
                round(result["props_per_s"], 1))
    if "compiled" in results and "interpreted" in results:
        speedup = (
            results["compiled"]["props_per_s"]
            / results["interpreted"]["props_per_s"]
        )
        reg.set(f"{prefix}compiled.speedup", round(speedup, 3))
    loaded = results[kernel_build()]
    print(f"{study.name}: {num_vars} vars, {len(clauses)} clauses, "
          f"{loaded['verdict'].value}, {loaded['propagations']} "
          f"propagations")
    for kind, result in results.items():
        print(f"  {kind:12s} load {result['load_s']:.3f}s  "
              f"solve {result['solve_s']:.3f}s  "
              f"{result['props_per_s']:>12,.0f} props/s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_core.json",
                        help="output JSON path (MetricsRegistry format)")
    parser.add_argument("--history", default="BENCH_HISTORY.jsonl",
                        help="bench history JSONL to append to "
                             "('' disables)")
    args = parser.parse_args(argv)

    engines = available_engines()
    reg = MetricsRegistry()
    reg.set("bench.host_cpus", os.cpu_count())
    reg.set(f"bench.core.build.{kernel_build()}", 1)
    for study in all_case_studies():
        if study.name in INSTANCES:
            bench_instance(reg, study, engines)
    reg.write_json(args.out)
    print(f"wrote {args.out}")
    if args.history:
        from history import append_history

        append_history("core", reg.as_dict(), path=args.history)
        print(f"history -> {args.history}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
