"""Tests for the SAT-based minimisation engine and its strategies."""

from __future__ import annotations

import itertools
import random
import time

import pytest

from repro.logic import CNF, VarPool
from repro.opt import load_checkpoint, minimize_sum
from repro.opt.checkpoint import DescentCheckpoint, descent_fingerprint
from repro.sat.portfolio import fork_available
from repro.sat.solver import Solver
from repro.sat.types import SolverStats

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


def brute_force_min(num_vars, clauses, objective):
    best = None
    for bits in itertools.product([False, True], repeat=num_vars):
        def value(lit):
            phase = bits[abs(lit) - 1]
            return phase if lit > 0 else not phase

        if all(any(value(lit) for lit in c) for c in clauses):
            cost = sum(1 for lit in objective if value(lit))
            best = cost if best is None else min(best, cost)
    return best


def build(num_vars, clauses):
    cnf = CNF(VarPool())
    for v in range(1, num_vars + 1):
        cnf.pool.var(v)
    for clause in clauses:
        cnf.add(clause)
    return cnf


def random_instance(rng):
    num_vars = rng.randint(2, 7)
    clauses = [
        [rng.choice([1, -1]) * rng.randint(1, num_vars)
         for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(1, 15))
    ]
    objective = [
        rng.choice([1, -1]) * v
        for v in rng.sample(range(1, num_vars + 1),
                            rng.randint(1, num_vars))
    ]
    return num_vars, clauses, objective


STRATEGIES = ["linear", "binary", "core"]

ENGINES = [
    (name, lambda cnf, obj, name=name: minimize_sum(cnf, obj, strategy=name))
    for name in STRATEGIES
]


class TestEnginesAgainstBruteForce:
    @pytest.mark.parametrize("name,engine", ENGINES)
    def test_random_instances(self, name, engine):
        rng = random.Random(hash(name) & 0xFFFF)
        for __ in range(40):
            num_vars, clauses, objective = random_instance(rng)
            expected = brute_force_min(num_vars, clauses, objective)
            result = engine(build(num_vars, clauses), list(objective))
            if expected is None:
                assert not result.feasible
            else:
                assert result.feasible
                assert result.proven_optimal
                assert result.cost == expected

    @pytest.mark.parametrize("name,engine", ENGINES)
    def test_infeasible(self, name, engine):
        cnf = build(1, [[1], [-1]])
        result = engine(cnf, [1])
        assert not result.feasible

    @pytest.mark.parametrize("name,engine", ENGINES)
    def test_zero_cost_possible(self, name, engine):
        cnf = build(3, [[1, 2, 3]])
        result = engine(cnf, [])
        assert result.feasible and result.cost == 0 and result.proven_optimal

    @pytest.mark.parametrize("name,engine", ENGINES)
    def test_all_soft_forced(self, name, engine):
        cnf = build(3, [[1], [2], [3]])
        result = engine(cnf, [1, 2, 3])
        assert result.feasible and result.cost == 3 and result.proven_optimal

    @pytest.mark.parametrize("name,engine", ENGINES)
    def test_model_satisfies_hard_clauses(self, name, engine):
        clauses = [[1, 2], [-1, 3], [-2, -3, 4]]
        cnf = build(4, clauses)
        result = engine(cnf, [1, 2, 3, 4])
        true_set = result.true_set()

        def value(lit):
            return (abs(lit) in true_set) == (lit > 0)

        assert all(any(value(lit) for lit in clause) for clause in clauses)


class TestMinimizeSumDetails:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            minimize_sum(build(1, [[1]]), [1], strategy="quantum")

    def test_on_improvement_callback(self):
        costs = []
        cnf = build(4, [[1, 2, 3, 4]])
        minimize_sum(cnf, [1, 2, 3, 4], on_improvement=costs.append)
        assert costs  # called at least once
        assert costs[-1] == 1
        assert costs == sorted(costs, reverse=True)

    def test_solve_calls_counted(self):
        cnf = build(4, [[1, 2, 3, 4]])
        result = minimize_sum(cnf, [1, 2, 3, 4])
        assert result.solve_calls >= 2

    def test_spent_budget_counts_no_probe(self):
        result = minimize_sum(build(2, [[1, 2]]), [1, 2],
                              wall_deadline_s=0.0)
        assert result.status == "timeout"
        assert result.solve_calls == 0
        assert result.solver_stats["solve_calls"] == 0

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_warm_incumbent_at_zero_builds_no_solver(self, parallel,
                                                     monkeypatch):
        built = []
        init = Solver.__init__

        def counted(self, config=None):
            built.append(config)
            init(self, config)

        monkeypatch.setattr(Solver, "__init__", counted)
        # The warm model satisfies every clause with no objective
        # literal true: already at the lower bound, nothing to probe.
        cnf = build(3, [[1, 2], [-1, -3]])
        result = minimize_sum(cnf, [3, -2], parallel=parallel,
                              warm_model=[1, 2])
        assert built == []
        assert result.warm_started and result.proven_optimal
        assert result.cost == 0 and result.solve_calls == 0
        assert result.solver_stats == SolverStats().as_dict()
        assert set(result.solver_stats.values()) == {0}
        assert result.portfolio is None


class TestUnknownFirstProbe:
    """A first probe that answers UNKNOWN before any deadline proves
    nothing: the descent ends infeasible but never ``optimal``."""

    @pytest.mark.parametrize("with_objective", [True, False])
    def test_capped_first_probe(self, with_objective):
        from repro.casestudies import case_study
        from repro.sat import PortfolioMember, SolverConfig
        from repro.tasks.common import build_encoding

        study = case_study("running-example")
        encoding = build_encoding(
            study.discretize(), study.schedule, study.r_t_min, None
        )
        objective = encoding.border_objective() if with_objective else []
        capped = PortfolioMember("capped", SolverConfig(conflict_limit=1))
        result = minimize_sum(encoding.cnf, objective,
                              portfolio_members=[capped])
        assert not result.feasible and not result.proven_optimal
        assert result.status == "unknown"
        assert result.solve_calls == 1

    def test_verification_reports_it(self, monkeypatch):
        from repro.opt import minimize
        from repro.sat import PortfolioMember, SolverConfig
        from repro.tasks.batch import run_case_task

        real = minimize.open_session
        capped = PortfolioMember("capped", SolverConfig(conflict_limit=1))

        def capped_session(num_vars, clauses, *args):
            return real(num_vars, clauses, 1, [capped])

        monkeypatch.setattr(minimize, "open_session", capped_session)
        result = run_case_task("running-example", "verification")
        assert not result.satisfiable
        assert result.status == "unknown"


def brute_force_lexicographic(num_vars, clauses, objectives):
    """The lexicographically least cost vector, or None if infeasible."""
    best = None
    for bits in itertools.product([False, True], repeat=num_vars):
        def value(lit):
            phase = bits[abs(lit) - 1]
            return phase if lit > 0 else not phase

        if all(any(value(lit) for lit in c) for c in clauses):
            costs = [sum(1 for lit in objective if value(lit))
                     for objective in objectives]
            best = costs if best is None else min(best, costs)
    return best


def lexicographic(cnf, objectives, strategy="linear", **kwargs):
    return minimize_sum(cnf, objectives[0], strategy=strategy,
                        then=objectives[1:], **kwargs)


class TestLexicographic:
    """Later objectives as stages of one descent (``then``)."""

    def test_two_objectives(self):
        cnf = build(4, [[1, 2], [3, 4]])
        result = lexicographic(cnf, [[1, 2], [3, 4]])
        assert result.stages == [(1, True), (1, True)]
        assert result.cost == 1 and result.proven_optimal

    def test_priority_order_matters(self):
        # x1 + x2 >= 1 hard; obj1 = x1, obj2 = x2.
        # Minimising x1 first forces x1 = 0, so x2 must be 1.
        cnf = build(2, [[1, 2]])
        result = lexicographic(cnf, [[1], [2]])
        assert [cost for cost, _ in result.stages] == [0, 1]
        assert result.cost == 0
        assert {-1, 2} <= set(result.model)

    def test_infeasible_stops_early(self):
        cnf = build(1, [[1], [-1]])
        result = lexicographic(cnf, [[1], [1]])
        assert not result.feasible
        assert result.stages == []

    def test_binary_strategy(self):
        cnf = build(4, [[1, 2], [3, 4]])
        result = lexicographic(cnf, [[1, 2], [3, 4]], "binary")
        assert result.stages == [(1, True), (1, True)]

    def test_core_strategy(self):
        cnf = build(4, [[1, 2], [3, 4]])
        result = lexicographic(cnf, [[1, 2], [3, 4]], "core")
        assert result.stages == [(1, True), (1, True)]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_random_against_brute_force(self, strategy):
        """A freeze that over-constrains any stage shows up as a stage
        cost above the lexicographic optimum."""
        rng = random.Random(f"lex-{strategy}")
        for __ in range(40):
            num_vars = rng.randint(2, 7)
            clauses = [
                [rng.choice([1, -1]) * rng.randint(1, num_vars)
                 for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(1, 12))
            ]
            objectives = [
                [rng.choice([1, -1]) * v
                 for v in rng.sample(range(1, num_vars + 1),
                                     rng.randint(1, num_vars))]
                for _ in range(rng.randint(2, 3))
            ]
            expected = brute_force_lexicographic(
                num_vars, clauses, objectives
            )
            result = lexicographic(
                build(num_vars, clauses), objectives, strategy
            )
            if expected is None:
                assert not result.feasible
                continue
            assert result.proven_optimal
            assert [cost for cost, _ in result.stages] == expected
            model = set(result.model)
            assert [sum(1 for lit in objective if lit in model)
                    for objective in objectives] == expected

    def test_resumed_checkpoint_reruns_later_stages(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        clauses = [[1, 2, 3], [4, 5, 6], [-1, -4], [-2, -5]]
        objectives = [[1, 2, 3], [4, 5, 6]]
        first = lexicographic(build(6, clauses), objectives,
                              checkpoint_path=path)
        resumed = lexicographic(build(6, clauses), objectives,
                                checkpoint_path=path, resume=True)
        assert resumed.resumed
        assert resumed.stages == first.stages == [(1, True), (1, True)]
        # The first stage replays from its checkpoint without probing.
        assert resumed.solve_calls < first.solve_calls

    @needs_fork
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_stages_share_one_session(self, strategy):
        cnf = build(4, [[1, 2], [3, 4]])
        result = lexicographic(cnf, [[1, 2], [3, 4]], strategy,
                               parallel=2)
        assert result.stages == [(1, True), (1, True)]
        assert result.portfolio["service"]["counters"][
            "service.sessions"] == 1

    def test_spent_budget_skips_later_stages(self):
        # The first stage is proven at its first probe; the callback
        # then outlasts the budget, so the second stage never runs.
        cnf = build(4, [[-1], [-2], [3, 4]])
        result = lexicographic(
            cnf, [[1, 2], [3, 4]], wall_deadline_s=0.5,
            on_improvement=lambda cost: time.sleep(0.6),
        )
        assert result.stages == [(0, True)]
        assert result.status == "timeout"
        assert not result.proven_optimal


class _Interrupted(Exception):
    pass


def _interrupt(cost):
    raise _Interrupted(cost)


def model_of_cost(num_vars, clauses, objective, cost):
    """A model of the hard clauses with exactly ``cost``, or None."""
    for bits in itertools.product([False, True], repeat=num_vars):
        model = [v if bit else -v for v, bit in enumerate(bits, start=1)]
        true = set(model)
        if (all(any(lit in true for lit in c) for c in clauses)
                and sum(1 for lit in objective if lit in true) == cost):
            return model
    return None


def write_checkpoint(path, cnf, objective, cost, model, lower):
    """A checkpoint of a core descent with an incumbent and a bound."""
    ckpt = DescentCheckpoint(path)
    ckpt.open(descent_fingerprint(cnf.num_vars, cnf.num_clauses,
                                  objective, "core"), resumed=False)
    ckpt.improved(cost, model, 1)
    ckpt.lower(lower, 2)
    ckpt.close()


class TestCoreCheckpoint:
    """A core descent checkpoints soundly: resumed from wherever it was
    cut, it reaches the brute-force optimum."""

    def _resume(self, path, num_vars, clauses, objective):
        result = minimize_sum(build(num_vars, clauses), objective,
                              strategy="core", checkpoint_path=path,
                              resume=True)
        assert result.resumed
        return result

    def test_resume_after_first_improvement(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        rng = random.Random(7)
        descending = 0
        for __ in range(40):
            num_vars, clauses, objective = random_instance(rng)
            expected = brute_force_min(num_vars, clauses, objective)
            if expected is None:
                continue
            try:
                minimize_sum(build(num_vars, clauses), objective,
                             strategy="core", checkpoint_path=path,
                             on_improvement=_interrupt)
            except _Interrupted as first:
                descending += first.args[0] > expected
            resumed = self._resume(path, num_vars, clauses, objective)
            assert resumed.proven_optimal
            assert resumed.cost == expected
        assert descending >= 5

    def test_resume_from_every_cut(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        rng = random.Random(8)
        cuts = 0
        for __ in range(30):
            num_vars, clauses, objective = random_instance(rng)
            expected = brute_force_min(num_vars, clauses, objective)
            if not expected:
                continue
            minimize_sum(build(num_vars, clauses), objective,
                         strategy="core", checkpoint_path=path)
            with open(path, encoding="utf-8") as handle:
                lines = handle.readlines()
            # Every prefix without the "done" record is a kill point.
            for end in range(2, len(lines)):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.writelines(lines[:end])
                resumed = self._resume(path, num_vars, clauses, objective)
                assert resumed.proven_optimal
                assert resumed.cost == expected
                cuts += 1
        assert cuts >= 20

    def test_restored_bound_is_not_added_to_the_cores(self, tmp_path):
        # Incumbent opt+1 and restored bound opt-1: the cores must climb
        # to opt on their own.  Adding the bound to the core count would
        # "prove" the incumbent after two cores whenever opt >= 2.
        path = str(tmp_path / "ck.jsonl")
        rng = random.Random(9)
        cases = [(6, [[1, 2], [3, 4], [5, 6]], [1, 2, 3, 4, 5, 6])]
        cases += [random_instance(rng) for __ in range(60)]
        teeth = 0
        for num_vars, clauses, objective in cases:
            opt = brute_force_min(num_vars, clauses, objective)
            if not opt:
                continue
            model = model_of_cost(num_vars, clauses, objective, opt + 1)
            if model is None:
                continue
            write_checkpoint(path, build(num_vars, clauses), objective,
                             opt + 1, model, opt - 1)
            resumed = self._resume(path, num_vars, clauses, objective)
            assert resumed.proven_optimal
            assert resumed.cost == opt
            teeth += opt >= 2
        assert teeth >= 3

    def test_harvested_units_name_the_formulas_variables(self, tmp_path):
        # Retired selectors are level-0 units above num_vars; they must
        # not reach the checkpoint.
        path = str(tmp_path / "ck.jsonl")
        cases = [(6, [[1, 2], [3, 4], [5, 6]], [1, 2, 3, 4, 5, 6])]
        rng = random.Random(10)
        cases += [random_instance(rng) for __ in range(30)]
        harvested = 0
        for num_vars, clauses, objective in cases:
            minimize_sum(build(num_vars, clauses), objective,
                         strategy="core", checkpoint_path=path)
            state = load_checkpoint(path)
            own = state.fingerprint["num_vars"]
            assert all(abs(lit) <= own for lit in state.units)
            harvested += len(state.units)
        assert harvested > 0


class TestCoreStrategy:
    @needs_fork
    @pytest.mark.usefixtures("helpers_from_first_probe")
    def test_parallel_matches_linear(self):
        rng = random.Random(5)
        for __ in range(10):
            num_vars = rng.randint(3, 7)
            clauses = [
                [rng.choice([1, -1]) * rng.randint(1, num_vars)
                 for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(1, 12))
            ]
            objective = list(range(1, num_vars + 1))
            linear = minimize_sum(build(num_vars, clauses), objective)
            core = minimize_sum(build(num_vars, clauses), objective,
                                strategy="core", parallel=2)
            assert core.feasible == linear.feasible
            assert core.cost == linear.cost
            assert core.proven_optimal == linear.proven_optimal

    def test_warm_incumbent_bounds_the_search(self):
        # Every literal forced: the warm model is already optimal, so
        # the cores lift the lower bound to it and no model is needed.
        cnf = build(3, [[1], [2], [3]])
        result = minimize_sum(cnf, [1, 2, 3], strategy="core",
                              warm_model=[1, 2, 3])
        assert result.warm_started
        assert result.cost == 3 and result.proven_optimal
        assert result.solve_calls == 3

    def test_reports_solver_counters(self):
        cnf = build(4, [[1, 2, 3, 4], [-1, -2], [-3, -4]])
        result = minimize_sum(cnf, [1, 2, 3, 4], strategy="core")
        assert result.cost == 1 and result.proven_optimal
        assert result.solver_stats["solve_calls"] == result.solve_calls
