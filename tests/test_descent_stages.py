"""The tasks on the one staged descent.

``optimize_schedule``'s follow-up passes, ``generate_layout``'s
weighted strata and every ``strategy`` run as stages of one
:func:`repro.opt.minimize_sum` call on one probe session, so the
core-guided strategy gets the follow-up passes, lazy refinement,
``parallel``, solver counters and ``--profile`` the way linear and
binary have them.
"""

from __future__ import annotations

import pytest

from repro.casestudies.running_example import running_example
from repro.sat.portfolio import fork_available
from repro.scenarios import ScenarioSpec, generate_scenario, with_headroom
from repro.tasks import generate_layout, optimize_schedule

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)

#: Core-guided variants that must reach linear's optimum.
CORE_VARIANTS = [
    pytest.param({"lazy": True}, id="lazy"),
    pytest.param({"parallel": 2}, id="parallel", marks=needs_fork),
]


@pytest.fixture(scope="module")
def example():
    study = running_example()
    return study.discretize(), study.schedule, study.r_t_min


def summed_arrivals(result) -> int:
    return sum(t.arrival_step for t in result.solution.trajectories)


class TestCoreFollowUpPasses:
    def test_min_borders(self, example):
        result = optimize_schedule(
            *example, strategy="core", minimize_borders_secondary=True
        )
        assert (result.time_steps, result.num_sections) == (7, 7)
        assert result.proven_optimal and result.status == "optimal"

    def test_refine_arrivals_matches_linear(self, example):
        linear = optimize_schedule(*example, refine_arrivals=True)
        core = optimize_schedule(
            *example, strategy="core", refine_arrivals=True
        )
        assert core.time_steps == linear.time_steps == 7
        assert summed_arrivals(core) == summed_arrivals(linear)


class TestCounters:
    def test_core_generation_reports_counters_and_profile(self, example):
        result = generate_layout(*example, strategy="core", profile=True)
        assert result.objective_value == 1
        assert result.solver_stats["conflicts"] > 0
        assert any(key.startswith("profile.") for key in result.metrics)

    def test_stratified_weights_report_counters(self, example):
        net = example[0]
        candidates = net.free_border_candidates()
        # One weight above the duplication limit (16) stratifies.
        costs = {candidates[0]: 40}
        result = generate_layout(*example, border_costs=costs)
        assert result.satisfiable and result.proven_optimal
        assert result.solver_stats["conflicts"] > 0
        assert result.metrics["solver.conflicts"] > 0


@needs_fork
class TestOneSession:
    def test_every_pass_runs_on_one_session(self, example):
        result = optimize_schedule(
            *example, refine_arrivals=True,
            minimize_borders_secondary=True, parallel=2,
        )
        assert result.time_steps == 7
        assert result.metrics["service.sessions"] == 1
        # The portfolio summary covers the probes of every pass.
        assert result.portfolio["calls"] == result.solve_calls


class TestCoreMatchesLinear:
    @pytest.mark.parametrize("variant", CORE_VARIANTS)
    def test_running_example(self, example, variant):
        linear = generate_layout(*example)
        core = generate_layout(*example, strategy="core", **variant)
        assert core.objective_value == linear.objective_value
        assert core.proven_optimal
        linear = optimize_schedule(*example, minimize_borders_secondary=True)
        core = optimize_schedule(
            *example, strategy="core", minimize_borders_secondary=True,
            **variant,
        )
        assert core.time_steps == linear.time_steps
        assert core.num_sections == linear.num_sections

    @pytest.mark.parametrize("variant", CORE_VARIANTS)
    @pytest.mark.parametrize("seed", [2, 3, 5])
    @pytest.mark.usefixtures("helpers_from_first_probe")
    def test_small_scenarios(self, seed, variant):
        scenario = with_headroom(
            generate_scenario(ScenarioSpec.sampled(seed, max_trains=3)), 1
        )
        args = (scenario.discretize(), scenario.schedule, scenario.r_t_min)
        linear = generate_layout(*args)
        core = generate_layout(*args, strategy="core", **variant)
        assert core.satisfiable == linear.satisfiable
        assert core.objective_value == linear.objective_value
        linear = optimize_schedule(*args, minimize_borders_secondary=True)
        core = optimize_schedule(
            *args, strategy="core", minimize_borders_secondary=True,
            **variant,
        )
        assert core.time_steps == linear.time_steps
        assert core.num_sections == linear.num_sections
