"""Lazy (CEGAR) constraint generation: unit and integration tests.

Covers the deferred build, the pricing of the deferred families against
the eager families, the refinement loop itself, the task plumbing
(defaults, proof forcing eager, metrics keys), the parallel service
path's verdict agreement, and a known defect in the interior cache
(expected failures).
"""

from __future__ import annotations

import pytest

from repro.casestudies import all_case_studies
from repro.encoding.encoder import LAZY_FAMILIES, EncodingOptions
from repro.encoding.lazy import LazyRefiner
from repro.explicit import explicit_verify
from repro.network.paths import interior_segments_of_paths
from repro.network.sections import VSSLayout
from repro.opt import minimize_sum
from repro.sat.portfolio import fork_available
from repro.scenarios import ScenarioSpec, generate_scenario, with_headroom
from repro.scenarios.fuzz import fuzz_scenario
from repro.tasks import generate_layout, optimize_schedule, verify_schedule
from repro.tasks.common import build_encoding

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


def _encodings(net, schedule, r_t_min, layout=None):
    """The same scenario built eagerly and lazily, layouts pinned."""
    eager = build_encoding(net, schedule, r_t_min, None, lazy=False)
    lazy = build_encoding(net, schedule, r_t_min, None, lazy=True)
    if layout is None:
        layout = VSSLayout.pure_ttd(net)
    eager.pin_layout(layout)
    lazy.pin_layout(layout)
    return eager, lazy


class TestLazyBuild:
    def test_defers_cross_train_families(self, micro_net,
                                         crossing_schedule):
        eager, lazy = _encodings(micro_net, crossing_schedule, 0.5)
        assert lazy.deferred_families == LAZY_FAMILIES
        assert eager.deferred_families == ()
        for family in LAZY_FAMILIES:
            assert family not in lazy.family_stats
            assert family in eager.family_stats
        # Deferring families must not change the variable space: the
        # cross-train clauses only reuse occupies/border variables.
        assert lazy.cnf.num_vars == eager.cnf.num_vars
        assert lazy.cnf.num_clauses < eager.cnf.num_clauses

    def test_deferred_count_matches_eager_family_stats(
        self, micro_net, crossing_schedule
    ):
        """The pricing counts exactly what eager would emit."""
        eager, lazy = _encodings(micro_net, crossing_schedule, 0.5)
        counts = lazy.deferred_eager_count()
        assert set(counts) == set(LAZY_FAMILIES)
        for family in LAZY_FAMILIES:
            assert counts[family] == eager.family_stats[family]["clauses"]

    def test_refiner_rejects_eager_encoding(self, micro_net,
                                            crossing_schedule):
        eager, _ = _encodings(micro_net, crossing_schedule, 0.5)
        with pytest.raises(ValueError):
            LazyRefiner(eager)


def _assert_priced(net, schedule, r_t_min, options):
    """deferred_eager_count() equals the clauses eager emits per family."""
    eager = build_encoding(net, schedule, r_t_min, options, lazy=False)
    lazy = build_encoding(net, schedule, r_t_min, options, lazy=True)
    assert lazy.deferred_eager_count() == {
        family: eager.family_stats[family]["clauses"]
        for family in lazy.deferred_families
    }


class TestDeferredPricing:
    """The set-arithmetic pricing against the eager emitters' counts."""

    @pytest.mark.parametrize("guarded", [False, True])
    @pytest.mark.parametrize("index", range(4))
    def test_case_studies(self, index, guarded):
        study = all_case_studies()[index]
        _assert_priced(study.discretize(), study.schedule, study.r_t_min,
                       EncodingOptions(guarded_arrivals=guarded))

    @pytest.mark.parametrize("index", range(25))
    def test_fuzz_scenarios(self, index):
        scenario = fuzz_scenario(run_seed=8, index=index)
        net = scenario.discretize()
        for guarded in (False, True):
            _assert_priced(net, scenario.schedule, scenario.r_t_min,
                           EncodingOptions(guarded_arrivals=guarded))


def _headroom_zero_case():
    """Three trains, two corridor tracks, no slack: infeasible, yet the
    default lazy path answers SAT on it."""
    return with_headroom(generate_scenario(ScenarioSpec(
        seed=727627530, loops=1, corridor_tracks=2, spur_probability=0.0,
        trains=3,
    )), 0)


class TestInteriorCacheOrder:
    """Known defect: ``EtcsEncoding._interiors`` stores the interiors of
    ``e -> f`` under ``f -> e`` too, but the paths between two segments
    are not symmetric, so the collision clauses depend on which
    direction is queried first."""

    @pytest.mark.xfail(strict=True, reason="interior cache ignores the "
                       "direction of a move")
    def test_cache_is_order_independent(self):
        scenario = _headroom_zero_case()
        net = scenario.discretize()
        encoding = build_encoding(net, scenario.schedule, scenario.r_t_min,
                                  None, lazy=True)
        for run in encoding.runs:
            reach = encoding._reach(run.speed_segments)
            max_edges = run.speed_segments + 1
            for e in range(net.num_segments):
                for f in reach[e]:
                    if f == e:
                        continue
                    encoding._interiors(f, e, max_edges)
                    assert encoding._interiors(e, f, max_edges) == frozenset(
                        interior_segments_of_paths(net, e, f, max_edges)
                    ), (e, f)

    @pytest.mark.xfail(strict=True, reason="lazy verification misses "
                       "collision clauses the cache order drops")
    def test_lazy_verdict_matches_eager_and_explicit(self):
        scenario = _headroom_zero_case()
        net = scenario.discretize()
        args = (net, scenario.schedule, scenario.r_t_min)
        eager = verify_schedule(*args, lazy=False).satisfiable
        assert explicit_verify(*args) == eager
        assert verify_schedule(*args).satisfiable == eager

    @pytest.mark.xfail(strict=True, reason="the lazy descent misses "
                       "collision clauses the cache order drops")
    def test_lazy_optimum_matches_eager(self):
        # The gateway's scenario shape: eager proves makespan 3, the
        # lazy descent "proves" 2, and the validator accepts its plan.
        scenario = with_headroom(generate_scenario(ScenarioSpec(
            seed=1662435306, loops=1, corridor_tracks=1,
            spur_probability=0.0, trains=2,
        )), 2)
        args = (scenario.discretize(), scenario.schedule,
                scenario.r_t_min)
        options = EncodingOptions(guarded_arrivals=True)
        eager = optimize_schedule(*args, options=options)
        assert eager.proven_optimal and eager.objective_value == 3
        lazy = optimize_schedule(*args, options=options, lazy=True,
                                 lazy_strategy="violation/all")
        assert lazy.objective_value == eager.objective_value


class TestLazyVerificationLoop:
    def test_single_train_clean_without_refinement(
        self, micro_net, single_train_schedule
    ):
        """One train can never violate a cross-train constraint."""
        _, lazy = _encodings(micro_net, single_train_schedule, 0.5)
        refiner = LazyRefiner(lazy)
        result = minimize_sum(lazy.cnf, [], refine=refiner.refine)
        assert result.feasible
        assert refiner.rounds == 1
        assert refiner.clauses_added == 0
        stats = refiner.stats()
        assert stats["lazy.constraints_added"] == 0
        assert refiner.clauses_added <= sum(
            lazy.deferred_eager_count().values()
        )

    def test_unsat_verdict_matches_eager(self, micro_net,
                                         crossing_schedule):
        # Two opposing trains on a single line with pure TTDs deadlock.
        eager_result = verify_schedule(
            micro_net, crossing_schedule, 0.5, lazy=False
        )
        lazy_result = verify_schedule(
            micro_net, crossing_schedule, 0.5, lazy=True
        )
        assert not eager_result.satisfiable
        assert not lazy_result.satisfiable
        assert lazy_result.metrics["lazy.rounds"] >= 1

    def test_sat_needs_refinement_on_loop(self, loop_net,
                                          crossing_schedule):
        """On the passing loop the schedule is SAT, but the relaxation's
        first model typically violates separation — refinement adds the
        violated instances and the final model is validator-clean."""
        _, lazy = _encodings(loop_net, crossing_schedule, 0.5)
        refiner = LazyRefiner(lazy)
        result = minimize_sum(lazy.cnf, [], refine=refiner.refine)
        assert result.feasible
        assert refiner.rounds >= 1
        # Only a strict subset of the eager cross-train clauses was
        # needed — the whole point of the exercise.
        assert refiner.clauses_added < sum(
            lazy.deferred_eager_count().values()
        )


class TestTaskPlumbing:
    def test_verify_lazy_default_emits_metrics(self, loop_net,
                                               crossing_schedule):
        result = verify_schedule(loop_net, crossing_schedule, 0.5)
        assert result.satisfiable
        assert "lazy.rounds" in result.metrics
        assert "lazy.groups_added" in result.metrics
        # The avoided clauses are priced on demand, never by the task.
        assert "lazy.clauses_saved" not in result.metrics
        lazy = build_encoding(loop_net, crossing_schedule, 0.5, None,
                              lazy=True)
        assert result.metrics["lazy.constraints_added"] <= sum(
            lazy.deferred_eager_count().values()
        )

    def test_verify_no_lazy_has_no_lazy_metrics(self, loop_net,
                                                crossing_schedule):
        result = verify_schedule(
            loop_net, crossing_schedule, 0.5, lazy=False
        )
        assert result.satisfiable
        assert "lazy.rounds" not in result.metrics

    def test_with_proof_forces_eager(self, micro_net, crossing_schedule):
        """Proof logging needs the full clause set as premises, so the
        lazy default silently yields to the eager encoder."""
        result = verify_schedule(
            micro_net, crossing_schedule, 0.5, with_proof=True, lazy=True
        )
        assert not result.satisfiable
        assert result.proof_checked is True
        assert "lazy.rounds" not in result.metrics

    def test_lazy_generation_matches_eager_objective(
        self, micro_net, crossing_schedule
    ):
        eager = generate_layout(micro_net, crossing_schedule, 0.5)
        lazy = generate_layout(
            micro_net, crossing_schedule, 0.5, lazy=True
        )
        assert lazy.satisfiable == eager.satisfiable
        assert lazy.objective_value == eager.objective_value
        assert "lazy.rounds" in lazy.metrics

    def test_core_strategy_honours_lazy(self, micro_net,
                                        crossing_schedule):
        eager = generate_layout(
            micro_net, crossing_schedule, 0.5, strategy="core"
        )
        lazy = generate_layout(
            micro_net, crossing_schedule, 0.5, strategy="core", lazy=True
        )
        assert lazy.satisfiable and lazy.proven_optimal
        assert lazy.objective_value == eager.objective_value
        assert "lazy.rounds" in lazy.metrics
        assert "lazy.rounds" not in eager.metrics


@needs_fork
@pytest.mark.usefixtures("helpers_from_first_probe")
class TestLazyParallel:
    def test_parallel_verification_agrees(self, loop_net,
                                          crossing_schedule):
        serial = verify_schedule(
            loop_net, crossing_schedule, 0.5, lazy=True
        )
        parallel = verify_schedule(
            loop_net, crossing_schedule, 0.5, parallel=2, lazy=True
        )
        assert parallel.satisfiable == serial.satisfiable
        assert parallel.portfolio is not None
        assert parallel.portfolio["calls"] >= 1


class TestLazyStrategies:
    """The grouping/selection strategy matrix of the refiner."""

    def test_parse_valid_cells(self):
        from repro.encoding.lazy import parse_lazy_strategy

        assert parse_lazy_strategy("violation/all") == ("violation", None)
        assert parse_lazy_strategy("pair/first-1") == ("pair", 1)
        assert parse_lazy_strategy("family/first-32") == ("family", 32)

    @pytest.mark.parametrize("bad", [
        "nope/all", "pair/some", "pair/first-0", "pair/first-x",
        "pair", "", "violation/all/extra",
    ])
    def test_parse_rejects_malformed_cells(self, bad):
        from repro.encoding.lazy import parse_lazy_strategy

        with pytest.raises(ValueError):
            parse_lazy_strategy(bad)

    @pytest.mark.parametrize("strategy", [
        "violation/all", "violation/first-1", "pair/all",
        "pair/first-1", "family/all", "family/first-1",
    ])
    def test_all_cells_agree_on_verdict(self, loop_net,
                                        crossing_schedule, strategy):
        reference = verify_schedule(
            loop_net, crossing_schedule, 0.5, lazy=False
        )
        cell = verify_schedule(
            loop_net, crossing_schedule, 0.5, lazy=True,
            lazy_strategy=strategy,
        )
        assert cell.satisfiable == reference.satisfiable

    @pytest.mark.parametrize("strategy", [
        "violation/all", "pair/first-1", "family/all",
    ])
    def test_cells_agree_on_generation_optimum(
        self, micro_net, crossing_schedule, strategy
    ):
        eager = generate_layout(micro_net, crossing_schedule, 0.5)
        cell = generate_layout(
            micro_net, crossing_schedule, 0.5, lazy=True,
            lazy_strategy=strategy,
        )
        assert cell.satisfiable == eager.satisfiable
        assert cell.objective_value == eager.objective_value

    def test_coarser_grouping_needs_fewer_rounds(self, loop_net,
                                                 crossing_schedule):
        """Family grouping amortises a round's finding across the whole
        family — it can never need *more* rounds than per-violation."""
        fine = verify_schedule(
            loop_net, crossing_schedule, 0.5, lazy=True,
            lazy_strategy="violation/all",
        )
        coarse = verify_schedule(
            loop_net, crossing_schedule, 0.5, lazy=True,
            lazy_strategy="family/all",
        )
        assert coarse.metrics["lazy.rounds"] <= fine.metrics["lazy.rounds"]

    def test_bad_strategy_surfaces_early(self, loop_net,
                                         crossing_schedule):
        with pytest.raises(ValueError):
            verify_schedule(
                loop_net, crossing_schedule, 0.5, lazy=True,
                lazy_strategy="bogus/all",
            )
