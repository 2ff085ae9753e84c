"""Ablation: optimisation strategy (linear vs binary vs core-guided).

All three engines must find the same optimum; they differ in the number of
SAT calls and where the work lands (SAT-side model improvement vs UNSAT-side
core extraction).
"""

from __future__ import annotations

import pytest

from repro.tasks import generate_layout, optimize_schedule


@pytest.mark.parametrize("strategy", ["linear", "binary", "core"])
def test_generation_strategy(benchmark, studies, strategy):
    study = studies["Running Example"]
    net = study.discretize()
    result = benchmark(
        lambda: generate_layout(
            net, study.schedule, study.r_t_min, strategy=strategy
        )
    )
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["solve_calls"] = result.solve_calls
    benchmark.extra_info["objective"] = result.objective_value
    assert result.satisfiable and result.proven_optimal
    assert result.objective_value == 1  # all strategies agree


@pytest.mark.parametrize("strategy", ["linear", "binary", "core"])
def test_makespan_strategy(benchmark, studies, strategy):
    study = studies["Running Example"]
    net = study.discretize()
    result = benchmark.pedantic(
        lambda: optimize_schedule(
            net, study.schedule, study.r_t_min, strategy=strategy
        ),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["solve_calls"] = result.solve_calls
    assert result.satisfiable and result.proven_optimal
    assert result.time_steps == 7  # all strategies agree with Table I


@pytest.mark.parametrize("strategy", ["linear", "binary", "core"])
def test_generation_strategy_simple_layout(benchmark, studies, strategy):
    """The larger instance separates the strategies more clearly."""
    study = studies["Simple Layout"]
    net = study.discretize()
    result = benchmark.pedantic(
        lambda: generate_layout(
            net, study.schedule, study.r_t_min, strategy=strategy
        ),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["solve_calls"] = result.solve_calls
    assert result.satisfiable and result.proven_optimal
