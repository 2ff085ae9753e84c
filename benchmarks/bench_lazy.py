"""Lazy (CEGAR) vs eager VSS encoding across the four case studies.

Runs the verification task on each case study twice — once with the
eager encoder (every cross-train clause instantiated up front) and once
with the lazy CEGAR loop (:mod:`repro.encoding.lazy`, only *violated*
separation/collision/swap instances added between solver calls) — and
records clause counts, refinement rounds, and wall time under stable
``bench.lazy.*`` keys.  The generation descent is benchmarked on the
running example the same way, and every cell of the refiner's
grouping/selection strategy matrix is timed on that descent under
``bench.lazy.strategy.*`` — the data that picked
:data:`~repro.encoding.lazy.DESCENT_LAZY_STRATEGY`.  Both descents are
pinned to the linear strategy they were first measured on, so the
``BENCH_lazy.json`` series stays one series.

The verdict/objective agreement between the modes is asserted, so the
benchmark doubles as an end-to-end differential check.

Run via ``make bench-lazy`` (writes ``BENCH_lazy.json``) or directly::

    PYTHONPATH=src python benchmarks/bench_lazy.py --out out.json
"""

from __future__ import annotations

import argparse
import os
import time

from repro.casestudies.base import all_case_studies
from repro.casestudies.running_example import running_example
from repro.encoding.lazy import DEFAULT_LAZY_STRATEGY, DESCENT_LAZY_STRATEGY
from repro.obs.metrics import MetricsRegistry
from repro.tasks import generate_layout, verify_schedule

REPEAT = 2


def _slug(name: str) -> str:
    return name.lower().replace(" ", "-")


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


def bench_verification(reg: MetricsRegistry, study) -> None:
    net = study.discretize()

    def run(lazy: bool):
        return verify_schedule(
            net, study.schedule, study.r_t_min, lazy=lazy
        )

    eager, eager_s = _best_of(lambda: run(False))
    lazy, lazy_s = _best_of(lambda: run(True))

    assert lazy.satisfiable == eager.satisfiable, study.name

    prefix = f"bench.lazy.{_slug(study.name)}."
    eager_clauses = eager.clauses
    lazy_clauses = lazy.clauses
    reg.set(f"{prefix}eager_clauses", eager_clauses)
    reg.set(f"{prefix}lazy_clauses", lazy_clauses)
    reg.set(f"{prefix}clauses_saved", eager_clauses - lazy_clauses)
    reg.set(f"{prefix}rounds", lazy.metrics.get("lazy.rounds", 0))
    reg.set(f"{prefix}constraints_added",
            lazy.metrics.get("lazy.constraints_added", 0))
    reg.set(f"{prefix}eager_s", round(eager_s, 4))
    reg.set(f"{prefix}lazy_s", round(lazy_s, 4))
    reg.set(f"{prefix}speedup", round(eager_s / lazy_s, 3))
    print(f"{study.name}: clauses {eager_clauses} -> {lazy_clauses} "
          f"(saved {eager_clauses - lazy_clauses}), "
          f"wall {eager_s:.3f}s -> {lazy_s:.3f}s")


def bench_generation(reg: MetricsRegistry) -> None:
    """Lazy vs eager generation descent on the running example."""
    study = running_example()
    net = study.discretize()

    def run(lazy: bool):
        return generate_layout(
            net, study.schedule, study.r_t_min, strategy="linear",
            lazy=lazy,
        )

    eager, eager_s = _best_of(lambda: run(False))
    lazy, lazy_s = _best_of(lambda: run(True))

    assert lazy.satisfiable == eager.satisfiable
    assert lazy.objective_value == eager.objective_value

    prefix = "bench.lazy.generation."
    reg.set(f"{prefix}eager_s", round(eager_s, 4))
    reg.set(f"{prefix}lazy_s", round(lazy_s, 4))
    reg.set(f"{prefix}speedup", round(eager_s / lazy_s, 3))
    reg.set(f"{prefix}rounds", lazy.metrics.get("lazy.rounds", 0))
    reg.set(f"{prefix}clauses_saved",
            lazy.metrics.get("lazy.clauses_saved", 0))
    print(f"generation (running example): wall {eager_s:.3f}s -> "
          f"{lazy_s:.3f}s, objective {lazy.objective_value} (agree)")


def bench_strategy_matrix(reg: MetricsRegistry, repeat: int = 3) -> None:
    """Time every strategy cell on the running-example descent.

    The eager reference and all six cells are measured *interleaved*
    (one full sweep per repeat, best-of per config) so a load drift on
    the host hits every config alike instead of skewing the ratios.
    """
    study = running_example()
    net = study.discretize()

    def run(lazy: bool, strategy: str = DEFAULT_LAZY_STRATEGY):
        return generate_layout(
            net, study.schedule, study.r_t_min, strategy="linear",
            lazy=lazy, lazy_strategy=strategy,
        )

    cells = [
        f"{grouping}/{selection}"
        for grouping in ("violation", "pair", "family")
        for selection in ("all", "first-1")
    ]
    configs: list[str | None] = [None, *cells]  # None = eager reference
    best: dict[str | None, float] = {}
    results: dict[str | None, object] = {}
    for __ in range(repeat):
        for config in configs:
            start = time.perf_counter()
            result = run(config is not None, config or DEFAULT_LAZY_STRATEGY)
            elapsed = time.perf_counter() - start
            if config not in best or elapsed < best[config]:
                best[config] = elapsed
            results[config] = result

    eager = results[None]
    eager_s = best[None]
    print("strategy matrix (generation descent, running example):")
    for cell in cells:
        result, wall = results[cell], best[cell]
        assert result.satisfiable == eager.satisfiable, cell
        assert result.objective_value == eager.objective_value, cell
        prefix = f"bench.lazy.strategy.{cell.replace('/', '-')}."
        reg.set(f"{prefix}wall_s", round(wall, 4))
        reg.set(f"{prefix}speedup", round(eager_s / wall, 3))
        reg.set(f"{prefix}rounds", result.metrics.get("lazy.rounds", 0))
        marker = " *" if cell == DESCENT_LAZY_STRATEGY else ""
        print(f"  {cell:18s} {wall:.3f}s "
              f"({eager_s / wall:.2f}x vs eager, "
              f"{result.metrics.get('lazy.rounds', 0)} rounds){marker}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_lazy.json",
                        help="output JSON path (MetricsRegistry format)")
    parser.add_argument("--history", default="BENCH_HISTORY.jsonl",
                        help="bench history JSONL to append to "
                             "('' disables)")
    args = parser.parse_args(argv)

    reg = MetricsRegistry()
    reg.set("bench.host_cpus", os.cpu_count())
    for study in all_case_studies():
        bench_verification(reg, study)
    bench_generation(reg)
    bench_strategy_matrix(reg)
    reg.write_json(args.out)
    print(f"wrote {args.out}")
    if args.history:
        from history import append_history

        append_history("lazy", reg.as_dict(), path=args.history)
        print(f"history -> {args.history}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
