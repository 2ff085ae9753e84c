"""Tests for infeasibility diagnosis (minimal conflicting train sets)."""

from __future__ import annotations

import pytest

from repro.casestudies import case_study
from repro.network.sections import VSSLayout
from repro.sat import PortfolioMember, SolverConfig
from repro.tasks import diagnose_infeasibility, diagnosis, verify_schedule
from repro.trains.schedule import Schedule, TrainRun
from repro.trains.train import Train


@pytest.fixture
def headway_schedule():
    return Schedule(
        [
            TrainRun(Train("1", 100, 60), "A", "B", 0.0, 4.0),
            TrainRun(Train("2", 100, 60), "A", "B", 0.5, 2.0),
        ],
        duration_min=5.0,
    )


class TestFeasibleCase:
    def test_empty_diagnosis(self, micro_net, single_train_schedule):
        result = diagnose_infeasibility(
            micro_net, single_train_schedule, 0.5
        )
        assert result.feasible
        assert result.conflicting_trains == []
        assert not result.structural

    def test_feasible_on_fine_layout(self, micro_net, headway_schedule):
        result = diagnose_infeasibility(
            micro_net, headway_schedule, 0.5,
            layout=VSSLayout.finest(micro_net),
        )
        assert result.feasible


class TestDeadlineConflicts:
    def test_names_the_blocked_follower(self, micro_net, headway_schedule):
        result = diagnose_infeasibility(micro_net, headway_schedule, 0.5)
        assert not result.feasible
        assert result.conflicting_trains == ["2"]
        assert result.relaxable
        assert not result.structural

    def test_agrees_with_verification(self, micro_net, headway_schedule):
        verification = verify_schedule(micro_net, headway_schedule, 0.5)
        diagnosis = diagnose_infeasibility(micro_net, headway_schedule, 0.5)
        assert verification.satisfiable == diagnosis.feasible

    def test_minimality(self, micro_net, headway_schedule):
        """Relaxing the diagnosed trains' deadlines makes the rest work —
        and the diagnosis never includes trains whose removal changes
        nothing."""
        import dataclasses

        diagnosis = diagnose_infeasibility(micro_net, headway_schedule, 0.5)
        relaxed_runs = [
            dataclasses.replace(run, arrival_min=None)
            if run.train.name in diagnosis.conflicting_trains
            else run
            for run in headway_schedule.runs
        ]
        relaxed = Schedule(relaxed_runs, headway_schedule.duration_min)
        assert verify_schedule(micro_net, relaxed, 0.5).satisfiable


class TestStructuralConflicts:
    def test_running_example_is_structural(self):
        """The Fig. 1b pure-TTD deadlock persists with every deadline
        dropped: no single timetable commitment is to blame."""
        from repro.casestudies.running_example import running_example

        study = running_example()
        net = study.discretize()
        result = diagnose_infeasibility(net, study.schedule, study.r_t_min)
        assert not result.feasible
        assert result.structural
        assert result.conflicting_trains == []

    def test_opposing_on_plain_line_is_structural(self, micro_line):
        from repro.network.discretize import DiscreteNetwork

        coarse = DiscreteNetwork(micro_line, 1.0)
        schedule = Schedule(
            [
                TrainRun(Train("E", 100, 60), "A", "B", 0.0, 5.0),
                TrainRun(Train("W", 100, 60), "B", "A", 0.0, 5.0),
            ],
            duration_min=6.0,
        )
        result = diagnose_infeasibility(coarse, schedule, 1.0)
        assert not result.feasible
        assert result.structural


class TestOnTheProbeSession:
    """Every trial is a probe of one serial session."""

    def test_complex_layout_names_train_5(self):
        study = case_study("complex-layout")
        result = diagnose_infeasibility(
            study.discretize(), study.schedule, study.r_t_min
        )
        assert not result.feasible
        assert result.conflicting_trains == ["5"]
        assert result.relaxable and not result.structural
        metrics = result.metrics
        assert metrics["diagnosis.solve_calls"] == result.solve_calls
        assert metrics["diagnosis.solver.solve_calls"] == result.solve_calls

    def test_unknown_probe_raises(self, monkeypatch):
        """With no budget, a probe that answers UNKNOWN must not pass for
        a shrunk core."""
        real = diagnosis.open_session

        def capped(num_vars, clauses):
            member = PortfolioMember("capped", SolverConfig(conflict_limit=1))
            return real(num_vars, clauses, 1, [member])

        monkeypatch.setattr(diagnosis, "open_session", capped)
        study = case_study("complex-layout")
        with pytest.raises(RuntimeError, match="UNKNOWN"):
            diagnose_infeasibility(
                study.discretize(), study.schedule, study.r_t_min
            )
