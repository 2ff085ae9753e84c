"""Benchmarks for this repository's extensions beyond the paper's Table I.

* objective ablation: makespan vs total-arrival (paper §III-C's two
  readings of "efficient"),
* incremental layout exploration vs fresh per-layout verification,
* proof-backed verification overhead (DRAT logging + RUP checking).
"""

from __future__ import annotations

import pytest

from repro.network.sections import VSSLayout
from repro.tasks import LayoutExplorer, optimize_schedule, verify_schedule


@pytest.mark.parametrize("objective", ["makespan", "total-arrival"])
def test_objective_ablation(benchmark, studies, objective):
    study = studies["Running Example"]
    net = study.discretize()
    result = benchmark.pedantic(
        lambda: optimize_schedule(
            net, study.schedule, study.r_t_min, objective=objective
        ),
        rounds=1, iterations=1,
    )
    assert result.satisfiable and result.proven_optimal
    arrivals = {
        t.name: t.arrival_step for t in result.solution.trajectories
    }
    benchmark.extra_info["objective"] = objective
    benchmark.extra_info["arrivals"] = arrivals
    benchmark.extra_info["makespan"] = result.solution.makespan
    benchmark.extra_info["summed_arrivals"] = sum(arrivals.values())


def test_explorer_vs_fresh_verification(benchmark, studies):
    """Check 8 single-border layouts: incremental explorer vs fresh runs."""
    study = studies["Running Example"]
    net = study.discretize()
    candidates = net.free_border_candidates()[:8]

    def incremental():
        explorer = LayoutExplorer(net, study.schedule, study.r_t_min)
        return [
            explorer.check(
                VSSLayout(net, set(net.forced_borders) | {vertex})
            )
            for vertex in candidates
        ]

    verdicts = benchmark.pedantic(incremental, rounds=1, iterations=1)
    # Cross-check against fresh verification runs.
    fresh = [
        verify_schedule(
            net, study.schedule, study.r_t_min,
            layout=VSSLayout(net, set(net.forced_borders) | {vertex}),
        ).satisfiable
        for vertex in candidates
    ]
    benchmark.extra_info["layouts_checked"] = len(candidates)
    benchmark.extra_info["feasible"] = sum(verdicts)
    assert verdicts == fresh


def test_proof_backed_verification_overhead(benchmark, studies):
    study = studies["Running Example"]
    net = study.discretize()
    result = benchmark.pedantic(
        lambda: verify_schedule(
            net, study.schedule, study.r_t_min, with_proof=True
        ),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["proof_checked"] = result.proof_checked
    assert not result.satisfiable
    assert result.proof_checked is True
