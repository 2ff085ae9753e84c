"""Tests for the incremental layout explorer and the robustness task."""

from __future__ import annotations

import pytest

from repro.network.sections import VSSLayout
from repro.tasks import (
    LayoutExplorer,
    delay_tolerance,
    generate_layout,
    robustness_report,
    verify_schedule,
)
from repro.trains.schedule import Schedule, ScheduleError, TrainRun
from repro.trains.train import Train


@pytest.fixture
def headway_schedule():
    runs = [
        TrainRun(Train("1", 100, 60), "A", "B", 0.0, 4.0),
        TrainRun(Train("2", 100, 60), "A", "B", 0.5, 2.0),
    ]
    return Schedule(runs, duration_min=5.0)


class TestLayoutExplorer:
    def test_matches_fresh_verification(self, micro_net, headway_schedule):
        explorer = LayoutExplorer(micro_net, headway_schedule, 0.5)
        for layout in (
            VSSLayout.pure_ttd(micro_net),
            VSSLayout.finest(micro_net),
        ):
            fresh = verify_schedule(
                micro_net, headway_schedule, 0.5, layout=layout
            )
            assert explorer.check(layout) == fresh.satisfiable

    def test_last_solution_validates(self, micro_net, headway_schedule):
        explorer = LayoutExplorer(micro_net, headway_schedule, 0.5)
        assert explorer.check(VSSLayout.finest(micro_net))
        assert explorer.last_solution is not None
        assert explorer.last_solution.layout == VSSLayout.finest(micro_net)

    def test_failed_check_clears_solution(self, micro_net, headway_schedule):
        explorer = LayoutExplorer(micro_net, headway_schedule, 0.5)
        explorer.check(VSSLayout.finest(micro_net))
        assert not explorer.check(VSSLayout.pure_ttd(micro_net))
        assert explorer.last_solution is None

    def test_all_single_border_layouts(self, micro_net, headway_schedule):
        """Sweep every 1-border layout; at least one must work (the
        generation optimum is 1) and the explorer must agree with
        generate_layout's optimum."""
        explorer = LayoutExplorer(micro_net, headway_schedule, 0.5)
        feasible = []
        for vertex in micro_net.free_border_candidates():
            layout = VSSLayout(
                micro_net, set(micro_net.forced_borders) | {vertex}
            )
            if explorer.check(layout):
                feasible.append(vertex)
        generated = generate_layout(micro_net, headway_schedule, 0.5)
        assert generated.objective_value == 1
        assert feasible  # some single border suffices
        assert explorer.queries == len(micro_net.free_border_candidates())

    def test_single_border_layouts_match_verification(
        self, micro_net, headway_schedule
    ):
        explorer = LayoutExplorer(micro_net, headway_schedule, 0.5)
        for vertex in micro_net.free_border_candidates():
            layout = VSSLayout(
                micro_net, set(micro_net.forced_borders) | {vertex}
            )
            fresh = verify_schedule(
                micro_net, headway_schedule, 0.5, layout=layout
            )
            assert explorer.check(layout) == fresh.satisfiable

    def test_makespan_of(self, micro_net, headway_schedule):
        explorer = LayoutExplorer(micro_net, headway_schedule, 0.5)
        assert explorer.makespan_of(VSSLayout.pure_ttd(micro_net)) is None
        makespan = explorer.makespan_of(VSSLayout.finest(micro_net))
        assert makespan is not None and makespan <= 8

    def test_stats_accumulate(self, micro_net, headway_schedule):
        explorer = LayoutExplorer(micro_net, headway_schedule, 0.5)
        explorer.check(VSSLayout.pure_ttd(micro_net))
        explorer.check(VSSLayout.finest(micro_net))
        assert explorer.solver_stats["solve_calls"] == 2


class TestDelayTolerance:
    def test_single_train_has_slack(self, micro_net, single_train_schedule):
        # Train needs 2 steps, deadline at step 8, departs at 0: tolerance 6.
        tolerance = delay_tolerance(
            micro_net, single_train_schedule, 0.5, "T",
            layout=VSSLayout.finest(micro_net),
        )
        assert tolerance == 6

    def test_infeasible_schedule_reports_minus_one(self, micro_net):
        run = TrainRun(Train("T", 100, 60), "A", "B", 0.0, 1.0)
        tolerance = delay_tolerance(
            micro_net, Schedule([run], 5.0), 0.5, "T"
        )
        assert tolerance == -1

    def test_unknown_train_rejected(self, micro_net, single_train_schedule):
        with pytest.raises(ScheduleError):
            delay_tolerance(micro_net, single_train_schedule, 0.5, "nope")

    def test_max_steps_cap(self, micro_net, single_train_schedule):
        tolerance = delay_tolerance(
            micro_net, single_train_schedule, 0.5, "T",
            layout=VSSLayout.finest(micro_net), max_steps=2,
        )
        assert tolerance == 2

    def test_vss_improves_robustness(self, micro_net, headway_schedule):
        """More VSS should never reduce (and here strictly increases) the
        follower's delay tolerance."""
        pure = delay_tolerance(
            micro_net, headway_schedule, 0.5, "1",
            layout=VSSLayout.pure_ttd(micro_net),
        )
        fine = delay_tolerance(
            micro_net, headway_schedule, 0.5, "1",
            layout=VSSLayout.finest(micro_net),
        )
        assert fine >= pure

    def test_report_covers_all_trains(self, micro_net, headway_schedule):
        report = robustness_report(
            micro_net, headway_schedule, 0.5,
            layout=VSSLayout.finest(micro_net), max_steps=4,
        )
        assert set(report) == {"1", "2"}
        assert all(-1 <= v <= 4 for v in report.values())
