"""Integration tests for the three design tasks (paper §II-B)."""

from __future__ import annotations

import pytest

from repro.encoding.encoder import EncodingOptions
from repro.network.sections import VSSLayout
from repro.tasks import generate_layout, optimize_schedule, verify_schedule
from repro.trains.schedule import Schedule, TrainRun
from repro.trains.train import Train


@pytest.fixture
def headway_schedule():
    """Two same-direction trains whose deadlines need close following.

    Train 2 must reach B by step 4; with full-TTD headway it can only enter
    the middle TTD once train 1 has cleared it, arriving at step 5 — so the
    pure layout fails and at least one VSS border is required.
    """
    runs = [
        TrainRun(Train("1", 100, 60), "A", "B", 0.0, 4.0),
        TrainRun(Train("2", 100, 60), "A", "B", 0.5, 2.0),
    ]
    return Schedule(runs, duration_min=5.0)


class TestVerification:
    def test_pure_ttd_default_layout(self, micro_net, headway_schedule):
        result = verify_schedule(micro_net, headway_schedule, 0.5)
        assert result.task == "verification"
        assert not result.satisfiable  # train 2 blocked a full TTD behind
        assert result.num_sections == micro_net.num_ttds
        assert result.time_steps is None
        assert result.solution is None

    def test_finest_layout_makes_it_work(self, micro_net, headway_schedule):
        result = verify_schedule(
            micro_net, headway_schedule, 0.5,
            layout=VSSLayout.finest(micro_net),
        )
        assert result.satisfiable
        assert result.solution is not None
        assert result.num_sections == micro_net.num_segments

    def test_single_train_pure_ttd_ok(self, micro_net,
                                      single_train_schedule):
        result = verify_schedule(micro_net, single_train_schedule, 0.5)
        assert result.satisfiable
        assert result.time_steps is not None

    def test_waypoints_respected(self, micro_net, single_train_schedule):
        result = verify_schedule(
            micro_net, single_train_schedule, 0.5,
            waypoints=[("T", "B", 7)],
        )
        assert result.satisfiable
        goal = set(micro_net.station_segments("B"))
        assert result.solution.trajectories[0].steps[7] & goal

    def test_impossible_waypoint(self, micro_net, single_train_schedule):
        result = verify_schedule(
            micro_net, single_train_schedule, 0.5,
            waypoints=[("T", "B", 0)],
        )
        assert not result.satisfiable

    def test_table_row_shape(self, micro_net, single_train_schedule):
        result = verify_schedule(micro_net, single_train_schedule, 0.5)
        task, variables, sat, sections, steps, runtime = result.table_row()
        assert task == "verification"
        assert sat == "Yes"
        assert isinstance(variables, int)
        assert runtime >= 0


class TestGeneration:
    @pytest.mark.parametrize("strategy", ["linear", "binary", "core"])
    def test_strategies_find_same_optimum(self, micro_net, headway_schedule,
                                          strategy):
        result = generate_layout(
            micro_net, headway_schedule, 0.5, strategy=strategy
        )
        assert result.satisfiable
        assert result.proven_optimal
        # Close following needs borders, but far fewer than the finest split.
        assert 1 <= result.objective_value < len(
            micro_net.free_border_candidates()
        )
        assert (result.num_sections
                == micro_net.num_ttds + result.objective_value)

    def test_zero_borders_when_pure_works(self, micro_net,
                                          single_train_schedule):
        result = generate_layout(micro_net, single_train_schedule, 0.5)
        assert result.satisfiable
        assert result.objective_value == 0
        assert result.num_sections == micro_net.num_ttds

    def test_infeasible_schedule(self, micro_net):
        run = TrainRun(Train("T", 100, 60), "A", "B", 0.0, 1.0)
        result = generate_layout(micro_net, Schedule([run], 5.0), 0.5)
        assert not result.satisfiable
        assert result.solution is None
        assert result.num_sections == micro_net.num_ttds

    def test_layout_satisfies_schedule(self, micro_net, headway_schedule):
        result = generate_layout(micro_net, headway_schedule, 0.5)
        verification = verify_schedule(
            micro_net, headway_schedule, 0.5, layout=result.solution.layout
        )
        assert verification.satisfiable


class TestOptimization:
    def test_deadlines_are_ignored(self, micro_net):
        # Deadline impossible, but optimization drops it.
        run = TrainRun(Train("T", 100, 60), "A", "B", 0.0, 1.0)
        result = optimize_schedule(micro_net, Schedule([run], 5.0), 0.5)
        assert result.satisfiable

    def test_makespan_is_minimal(self, micro_net, single_train_schedule):
        result = optimize_schedule(micro_net, single_train_schedule, 0.5)
        assert result.satisfiable and result.proven_optimal
        # 5 hops from the inner start segment to the goal at 2 segments/step.
        assert result.time_steps == 2

    def test_beats_or_equals_generation(self, micro_net, headway_schedule):
        generated = generate_layout(micro_net, headway_schedule, 0.5)
        optimized = optimize_schedule(micro_net, headway_schedule, 0.5)
        assert optimized.satisfiable
        assert optimized.time_steps <= generated.time_steps

    def test_secondary_border_minimisation(self, micro_net,
                                           headway_schedule):
        plain = optimize_schedule(micro_net, headway_schedule, 0.5)
        tight = optimize_schedule(
            micro_net, headway_schedule, 0.5,
            minimize_borders_secondary=True,
        )
        assert tight.time_steps == plain.time_steps
        assert tight.num_sections <= plain.num_sections

    @pytest.mark.parametrize("strategy", ["linear", "binary", "core"])
    def test_strategies_agree(self, micro_net, headway_schedule, strategy):
        result = optimize_schedule(
            micro_net, headway_schedule, 0.5, strategy=strategy
        )
        assert result.satisfiable and result.proven_optimal
        baseline = optimize_schedule(micro_net, headway_schedule, 0.5)
        assert result.time_steps == baseline.time_steps

    def test_warm_start_from_own_model_keeps_the_optimum(self):
        # Cached models list true literals only, while the makespan
        # objective is made of negative literals (¬done): the warm seed
        # must be priced as a full assignment, not as cost 0.
        from repro.casestudies import all_case_studies

        study = next(
            s for s in all_case_studies() if s.name == "Running Example"
        )
        net = study.discretize()
        cold = optimize_schedule(net, study.schedule, study.r_t_min)
        assert cold.time_steps == 7
        warm = optimize_schedule(
            net, study.schedule, study.r_t_min,
            warm_model=cold.model, warm_fingerprint=cold.fingerprint,
        )
        assert warm.warm_started
        assert warm.status == "optimal"
        assert warm.time_steps == cold.time_steps
        assert warm.objective_value == cold.objective_value


class TestOptionsPlumbing:
    def test_options_forwarded(self, micro_net, single_train_schedule):
        result = verify_schedule(
            micro_net, single_train_schedule, 0.5,
            options=EncodingOptions(amo="pairwise"),
        )
        assert result.satisfiable

    def test_solver_stats_populated(self, micro_net, single_train_schedule):
        result = verify_schedule(micro_net, single_train_schedule, 0.5)
        assert "propagations" in result.solver_stats
