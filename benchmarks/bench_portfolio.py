"""Portfolio vs serial wall-clock on Table I case studies.

Races the 2-process portfolio against the single-config serial solver on
the verification and generation tasks of the Running Example and the Simple
Layout, asserting that the verdicts and decoded metadata agree exactly and
recording the speedup ratio in ``benchmark.extra_info``.

When does parallelism help?  The portfolio keeps the serial configuration
as its primary member, so a SAT answer costs at most the serial time (plus
process overhead, paid only by a probe that outlives the primary's load:
the helper is forked then, as it could not win an earlier answer); the
win comes from UNSAT answers — infeasible
verifications and the final "prove optimality" steps of a descent — where
the *fastest* diversified member decides for everyone.  Consequently:

* on a **single-core host** (such as a 1-CPU CI container) the workers
  time-slice one core and the portfolio measures ~parity-to-slower than
  serial — the recorded ``speedup`` will be <= 1.  That is expected and
  documented, not a regression: the verdict/metadata equality assertions
  are what must hold everywhere;
* with **two or more cores** the UNSAT-heavy rows (every ``verification``
  row of Table I is UNSAT, and every descent ends in an UNSAT bound proof)
  inherit the minimum member runtime, which is where the measured speedup
  materialises.

``speedup = serial_s / portfolio_s`` (> 1 means the portfolio won) is
recorded for each case so the claim is checkable on any machine.

The numbers are funnelled through the same :class:`MetricsRegistry` as the
pipeline's ``--metrics`` output, under stable ``bench.*`` keys, so BENCH
JSON and task metrics share one vocabulary.
"""

from __future__ import annotations

import os
import time

from repro.obs.metrics import MetricsRegistry
from repro.tasks import generate_layout, verify_schedule

PROCESSES = 2


def _best_of(fn, repeat=3):
    """Run ``fn`` a few times; return (last value, best wall time)."""
    best = None
    value = None
    for __ in range(repeat):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return value, best


def _record(benchmark, serial, serial_s, portfolio, portfolio_s):
    reg = MetricsRegistry()
    reg.set("bench.processes", PROCESSES)
    reg.set("bench.host_cpus", os.cpu_count())
    reg.set("bench.serial_s", round(serial_s, 4))
    reg.set("bench.portfolio_s", round(portfolio_s, 4))
    reg.set("bench.speedup", round(serial_s / portfolio_s, 3))
    reg.merge_dict(portfolio.metrics)
    benchmark.extra_info.update(
        {
            **reg.as_dict(),
            "verdict": serial.satisfiable,
            "winner": (portfolio.portfolio or {}).get("winners"),
        }
    )
    assert portfolio.satisfiable == serial.satisfiable
    assert portfolio.num_sections == serial.num_sections


def _bench_case(benchmark, study, task_fn):
    net = study.discretize()
    serial, serial_s = _best_of(
        lambda: task_fn(net, study.schedule, study.r_t_min)
    )
    __, portfolio_s = _best_of(
        lambda: task_fn(net, study.schedule, study.r_t_min,
                        parallel=PROCESSES)
    )
    portfolio = benchmark(
        lambda: task_fn(net, study.schedule, study.r_t_min,
                        parallel=PROCESSES)
    )
    _record(benchmark, serial, serial_s, portfolio, portfolio_s)
    return serial, portfolio


def test_verify_running_example(benchmark, studies):
    serial, portfolio = _bench_case(
        benchmark, studies["Running Example"], verify_schedule
    )
    assert not portfolio.satisfiable  # paper: No


def test_generate_running_example(benchmark, studies):
    serial, portfolio = _bench_case(
        benchmark, studies["Running Example"], generate_layout
    )
    assert portfolio.satisfiable
    assert portfolio.objective_value == serial.objective_value


def test_verify_simple_layout(benchmark, studies):
    serial, portfolio = _bench_case(
        benchmark, studies["Simple Layout"], verify_schedule
    )
    assert not portfolio.satisfiable  # paper: No


def test_generate_simple_layout(benchmark, studies):
    serial, portfolio = _bench_case(
        benchmark, studies["Simple Layout"], generate_layout
    )
    assert portfolio.satisfiable
    assert portfolio.objective_value == serial.objective_value
