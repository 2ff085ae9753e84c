"""Tests for weighted minimisation."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.logic import CNF, VarPool
from repro.opt.weighted import minimize_weighted_sum


def brute_force_weighted(num_vars, clauses, weighted):
    best = None
    for bits in itertools.product([False, True], repeat=num_vars):
        def value(lit):
            phase = bits[abs(lit) - 1]
            return phase if lit > 0 else not phase

        if all(any(value(lit) for lit in c) for c in clauses):
            cost = sum(w for lit, w in weighted if value(lit))
            best = cost if best is None else min(best, cost)
    return best


def build(num_vars, clauses):
    cnf = CNF(VarPool())
    for v in range(1, num_vars + 1):
        cnf.pool.var(v)
    for clause in clauses:
        cnf.add(clause)
    return cnf


class TestDuplicationPath:
    def test_simple_weighted(self):
        # x1 v x2 hard; w(x1)=5, w(x2)=1: optimum sets x2.
        cnf = build(2, [[1, 2]])
        result = minimize_weighted_sum(cnf, [(1, 5), (2, 1)])
        assert result.feasible and result.proven_optimal
        assert result.cost == 1
        assert 2 in result.true_set()

    def test_random_against_brute_force(self):
        rng = random.Random(17)
        for _ in range(30):
            num_vars = rng.randint(2, 6)
            clauses = [
                [rng.choice([1, -1]) * rng.randint(1, num_vars)
                 for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(1, 12))
            ]
            weighted = [
                (v, rng.randint(1, 6))
                for v in rng.sample(
                    range(1, num_vars + 1), rng.randint(1, num_vars)
                )
            ]
            expected = brute_force_weighted(num_vars, clauses, weighted)
            result = minimize_weighted_sum(build(num_vars, clauses), weighted)
            if expected is None:
                assert not result.feasible
            else:
                assert result.feasible and result.proven_optimal
                assert result.cost == expected

    def test_rejects_bad_weights(self):
        cnf = build(1, [[1]])
        with pytest.raises(ValueError):
            minimize_weighted_sum(cnf, [(1, 0)])
        with pytest.raises(ValueError):
            minimize_weighted_sum(cnf, [(1, -3)])

    def test_empty_objective(self):
        cnf = build(1, [[1]])
        result = minimize_weighted_sum(cnf, [])
        assert result.feasible and result.cost == 0


class TestStratifiedPath:
    def test_bmo_weights_proven_optimal(self):
        # Weights 100 and 1 with few literals: BMO condition holds.
        cnf = build(3, [[1, 2], [2, 3]])
        result = minimize_weighted_sum(
            cnf, [(1, 100), (2, 100), (3, 1)]
        )
        assert result.feasible
        assert result.proven_optimal
        # Optimum: x2 true alone costs 100; x1+x3 costs 101; so 100.
        assert result.cost == 100

    def test_stratified_matches_brute_force_when_bmo(self):
        rng = random.Random(23)
        for _ in range(15):
            num_vars = rng.randint(2, 5)
            clauses = [
                [rng.choice([1, -1]) * rng.randint(1, num_vars)
                 for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(1, 10))
            ]
            # Two strata satisfying the BMO condition by construction.
            variables = rng.sample(
                range(1, num_vars + 1), rng.randint(1, num_vars)
            )
            weighted = [
                (v, 1000 if i % 2 == 0 else 1)
                for i, v in enumerate(variables)
            ]
            expected = brute_force_weighted(num_vars, clauses, weighted)
            result = minimize_weighted_sum(build(num_vars, clauses), weighted)
            if expected is None:
                assert not result.feasible
            else:
                assert result.feasible
                assert result.cost == expected

    @pytest.mark.parametrize("strategy", ["binary", "core"])
    def test_strategies_match_brute_force_when_bmo(self, strategy):
        rng = random.Random(f"strata-{strategy}")
        for _ in range(15):
            num_vars = rng.randint(2, 5)
            clauses = [
                [rng.choice([1, -1]) * rng.randint(1, num_vars)
                 for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(1, 10))
            ]
            variables = rng.sample(
                range(1, num_vars + 1), rng.randint(1, num_vars)
            )
            weighted = [
                (v, 1000 if i % 2 == 0 else 1)
                for i, v in enumerate(variables)
            ]
            expected = brute_force_weighted(num_vars, clauses, weighted)
            result = minimize_weighted_sum(
                build(num_vars, clauses), weighted, strategy=strategy
            )
            if expected is None:
                assert not result.feasible
            else:
                assert result.feasible and result.proven_optimal
                assert result.cost == expected

    def test_non_bmo_is_upper_bound(self):
        # Weights 20/17/17: stratification is heuristic; flag must say so.
        cnf = build(3, [[1, 2, 3]])
        result = minimize_weighted_sum(
            cnf, [(-1, 20), (-2, 17), (-3, 17)]
        )
        assert result.feasible
        expected = brute_force_weighted(
            3, [[1, 2, 3]], [(-1, 20), (-2, 17), (-3, 17)]
        )
        assert result.cost >= expected  # upper bound
        if result.cost != expected:
            assert not result.proven_optimal
