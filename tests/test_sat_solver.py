"""Unit tests for the CDCL SAT solver."""

from __future__ import annotations

import itertools

import pytest

from repro.sat import Solver, SolveResult
from repro.sat.proof import ProofLogger, check_rup_proof
from repro.sat.types import InvalidLiteralError, SolverConfig


def brute_force_sat(num_vars: int, clauses: list[list[int]]) -> bool:
    """Reference implementation: exhaustive enumeration."""
    for bits in itertools.product([False, True], repeat=num_vars):
        def value(lit: int) -> bool:
            phase = bits[abs(lit) - 1]
            return phase if lit > 0 else not phase

        if all(any(value(lit) for lit in clause) for clause in clauses):
            return True
    return False


def assert_matches_brute_force(config, num_vars, clauses):
    """The verdict under ``config`` must match enumeration, and an UNSAT
    answer must carry a DRAT proof that passes the RUP checker."""
    solver = Solver(config)
    logger = ProofLogger()
    solver.attach_proof(logger)
    for clause in clauses:
        solver.add_clause(clause)
    got = solver.solve() is SolveResult.SAT
    assert got == brute_force_sat(num_vars, clauses)
    if not got:
        assert check_rup_proof(num_vars, clauses, logger.steps)


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert Solver().solve() is SolveResult.SAT

    def test_single_unit(self):
        solver = Solver()
        solver.add_clause([3])
        assert solver.solve() is SolveResult.SAT
        assert solver.model_value(3) is True
        assert solver.model_value(-3) is False

    def test_contradicting_units(self):
        solver = Solver()
        solver.add_clause([1])
        assert solver.add_clause([-1]) is False
        assert solver.solve() is SolveResult.UNSAT

    def test_empty_clause_is_unsat(self):
        solver = Solver()
        assert solver.add_clause([]) is False
        assert solver.solve() is SolveResult.UNSAT

    def test_tautology_is_dropped(self):
        solver = Solver()
        assert solver.add_clause([1, -1]) is True
        assert solver.num_clauses == 0
        assert solver.solve() is SolveResult.SAT

    def test_duplicate_literals_are_merged(self):
        solver = Solver()
        solver.add_clause([1, 1, 2, 2, 2])
        assert solver.solve() is SolveResult.SAT

    def test_invalid_literal_zero(self):
        with pytest.raises(InvalidLiteralError):
            Solver().add_clause([1, 0, 2])

    def test_implication_chain(self):
        solver = Solver()
        for i in range(1, 50):
            solver.add_clause([-i, i + 1])  # i -> i+1
        solver.add_clause([1])
        assert solver.solve() is SolveResult.SAT
        assert all(solver.model_value(i) for i in range(1, 51))

    def test_model_lists_true_literals(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-2])
        solver.solve()
        model = solver.model()
        assert 1 in model and -2 in model

    def test_model_unavailable_before_solve(self):
        with pytest.raises(RuntimeError):
            Solver().model()

    def test_model_unavailable_after_unsat(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1])
        solver.solve()
        with pytest.raises(RuntimeError):
            solver.model()

    def test_solve_result_truthiness(self):
        assert bool(SolveResult.SAT) is True
        assert bool(SolveResult.UNSAT) is False
        assert bool(SolveResult.UNKNOWN) is False


class TestPigeonhole:
    @staticmethod
    def pigeonhole(holes: int) -> list[list[int]]:
        """holes+1 pigeons into `holes` holes — classically UNSAT."""
        def var(pigeon: int, hole: int) -> int:
            return pigeon * holes + hole + 1

        clauses = [[var(p, h) for h in range(holes)] for p in range(holes + 1)]
        for hole in range(holes):
            for p1 in range(holes + 1):
                for p2 in range(p1 + 1, holes + 1):
                    clauses.append([-var(p1, hole), -var(p2, hole)])
        return clauses

    @pytest.mark.parametrize("holes", [2, 3, 4, 5])
    def test_pigeonhole_unsat(self, holes):
        solver = Solver()
        for clause in self.pigeonhole(holes):
            solver.add_clause(clause)
        assert solver.solve() is SolveResult.UNSAT

    def test_pigeonhole_sat_when_enough_holes(self):
        # n pigeons, n holes: drop the last pigeon's clauses -> SAT.
        holes = 4
        solver = Solver()

        def var(pigeon: int, hole: int) -> int:
            return pigeon * holes + hole + 1

        for p in range(holes):
            solver.add_clause([var(p, h) for h in range(holes)])
        for hole in range(holes):
            for p1 in range(holes):
                for p2 in range(p1 + 1, holes):
                    solver.add_clause([-var(p1, hole), -var(p2, hole)])
        assert solver.solve() is SolveResult.SAT


class TestAssumptions:
    def test_sat_under_assumptions(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve([-1]) is SolveResult.SAT
        assert solver.model_value(2) is True

    def test_unsat_under_assumptions_then_sat(self):
        solver = Solver()
        solver.add_clause([-1, -2])
        assert solver.solve([1, 2]) is SolveResult.UNSAT
        assert solver.solve([1, -2]) is SolveResult.SAT
        assert solver.solve([]) is SolveResult.SAT

    def test_core_is_subset_of_assumptions(self):
        solver = Solver()
        solver.add_clause([-1, -2])
        solver.add_clause([3])
        assert solver.solve([1, 2, 4]) is SolveResult.UNSAT
        core = solver.unsat_core()
        assert set(core) <= {1, 2, 4}
        assert set(core) == {1, 2}  # 4 is irrelevant

    def test_core_formula_is_unsat(self):
        solver = Solver()
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        solver.add_clause([-3, -1])
        assert solver.solve([1]) is SolveResult.UNSAT
        core = solver.unsat_core()
        assert core == [1]

    def test_assumption_of_fresh_variable(self):
        solver = Solver()
        solver.add_clause([1])
        assert solver.solve([7]) is SolveResult.SAT
        assert solver.model_value(7) is True

    def test_contradictory_assumptions(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve([3, -3]) is SolveResult.UNSAT
        assert set(solver.unsat_core()) <= {3, -3}


class TestIncremental:
    def test_add_clauses_between_solves(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve() is SolveResult.SAT
        solver.add_clause([-1])
        assert solver.solve() is SolveResult.SAT
        assert solver.model_value(2) is True
        solver.add_clause([-2])
        assert solver.solve() is SolveResult.UNSAT

    def test_solver_stays_unsat(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve() is SolveResult.UNSAT
        solver.add_clause([2])
        assert solver.solve() is SolveResult.UNSAT

    def test_many_incremental_rounds(self):
        solver = Solver()
        n = 30
        for i in range(1, n):
            solver.add_clause([-i, i + 1])
        for i in range(1, n):
            assert solver.solve([i]) is SolveResult.SAT
            assert solver.model_value(n) is True

    def test_simplify_keeps_equivalence(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([1, 2])  # satisfied at level 0 after propagation
        solver.add_clause([-1, 2])
        assert solver.solve() is SolveResult.SAT
        assert solver.simplify() is True
        assert solver.solve() is SolveResult.SAT
        assert solver.model_value(2) is True


class TestConfigVariants:
    """The solver must stay correct with every feature toggled off."""

    CONFIGS = [
        SolverConfig(use_restarts=False),
        SolverConfig(use_vsids=False),
        SolverConfig(use_phase_saving=False),
        SolverConfig(use_clause_deletion=False),
        SolverConfig(use_minimization=False),
        SolverConfig(
            use_restarts=False,
            use_vsids=False,
            use_phase_saving=False,
            use_clause_deletion=False,
            use_minimization=False,
        ),
        SolverConfig(default_phase=True),
    ]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_random_instances_match_brute_force(self, config):
        import random

        rng = random.Random(hash(repr(config)) & 0xFFFF)
        for _ in range(60):
            num_vars = rng.randint(1, 7)
            clauses = [
                [
                    rng.choice([1, -1]) * rng.randint(1, num_vars)
                    for _ in range(rng.randint(1, 3))
                ]
                for _ in range(rng.randint(1, 25))
            ]
            assert_matches_brute_force(config, num_vars, clauses)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_pigeonhole_unsat_all_configs(self, config):
        solver = Solver(config)
        for clause in TestPigeonhole.pigeonhole(4):
            solver.add_clause(clause)
        assert solver.solve() is SolveResult.UNSAT


class TestConflictLimit:
    def test_unknown_when_budget_exhausted(self):
        config = SolverConfig(conflict_limit=1)
        solver = Solver(config)
        for clause in TestPigeonhole.pigeonhole(5):
            solver.add_clause(clause)
        assert solver.solve() is SolveResult.UNKNOWN


class TestStats:
    def test_counters_accumulate(self):
        solver = Solver()
        for clause in TestPigeonhole.pigeonhole(4):
            solver.add_clause(clause)
        solver.solve()
        assert solver.stats.conflicts > 0
        assert solver.stats.propagations > 0
        assert solver.stats.decisions > 0
        assert solver.stats.solve_calls == 1
        assert solver.stats.solve_time > 0
        as_dict = solver.stats.as_dict()
        assert as_dict["conflicts"] == solver.stats.conflicts

    def test_model_satisfies_all_clauses(self):
        import random

        rng = random.Random(99)
        clauses = []
        solver = Solver()
        for _ in range(200):
            clause = [
                rng.choice([1, -1]) * rng.randint(1, 40)
                for _ in range(3)
            ]
            clauses.append(clause)
            solver.add_clause(clause)
        if solver.solve() is SolveResult.SAT:
            for clause in clauses:
                assert any(solver.model_value(lit) for lit in clause)


class TestStressConfigs:
    """Fault-injection style: extreme configurations must stay sound."""

    def test_tiny_restart_base(self):
        config = SolverConfig(restart_base=1)
        solver = Solver(config)
        for clause in TestPigeonhole.pigeonhole(4):
            solver.add_clause(clause)
        assert solver.solve() is SolveResult.UNSAT

    def test_aggressive_clause_deletion(self):
        config = SolverConfig(
            learned_clause_min_limit=1,
            learned_clause_limit_factor=0.0,
            learned_clause_limit_growth=1.0,
        )
        solver = Solver(config)
        for clause in TestPigeonhole.pigeonhole(5):
            solver.add_clause(clause)
        assert solver.solve() is SolveResult.UNSAT

    def test_extreme_decay(self):
        import random

        config = SolverConfig(var_decay=0.5, clause_decay=0.5)
        rng = random.Random(11)
        for _ in range(20):
            num_vars = rng.randint(2, 6)
            clauses = [
                [rng.choice([1, -1]) * rng.randint(1, num_vars)
                 for _ in range(3)]
                for _ in range(rng.randint(1, 20))
            ]
            assert_matches_brute_force(config, num_vars, clauses)

    def test_many_solve_calls_same_instance(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        for _ in range(50):
            assert solver.solve() is SolveResult.SAT
            assert solver.solve([-2]) is SolveResult.UNSAT


class TestSeededRandomness:
    """All randomness flows through the per-solver seeded RNG (no module-
    level ``random`` calls), so equal seeds must replay identical searches
    and ``random_var_freq`` must stay sound."""

    @staticmethod
    def _hard_instance():
        return TestPigeonhole.pigeonhole(4)

    def _run(self, config):
        solver = Solver(config)
        for clause in self._hard_instance():
            solver.add_clause(clause)
        verdict = solver.solve()
        return verdict, solver.stats.as_dict()

    def test_equal_seeds_explore_identical_searches(self):
        config = SolverConfig(random_var_freq=0.2, random_seed=1234)
        verdict_a, stats_a = self._run(config)
        verdict_b, stats_b = self._run(
            SolverConfig(random_var_freq=0.2, random_seed=1234)
        )
        assert verdict_a == verdict_b
        # Byte-identical decision sequences leave byte-identical counters.
        for key in ("decisions", "random_decisions", "conflicts",
                    "propagations", "restarts", "learned_clauses"):
            assert stats_a[key] == stats_b[key], key

    def test_random_decisions_actually_happen(self):
        __, stats = self._run(
            SolverConfig(random_var_freq=0.5, random_seed=7)
        )
        assert stats["random_decisions"] > 0
        assert stats["random_decisions"] <= stats["decisions"]

    def test_no_random_decisions_by_default(self):
        __, stats = self._run(SolverConfig())
        assert stats["random_decisions"] == 0

    def test_random_var_freq_stays_correct(self):
        import random

        rng = random.Random(99)
        config = SolverConfig(random_var_freq=0.3, random_seed=5)
        for _ in range(40):
            num_vars = rng.randint(1, 7)
            clauses = [
                [rng.choice([1, -1]) * rng.randint(1, num_vars)
                 for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(1, 25))
            ]
            assert_matches_brute_force(config, num_vars, clauses)
