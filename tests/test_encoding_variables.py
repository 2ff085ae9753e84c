"""Tests for the variable registry and its census."""

from __future__ import annotations

from repro.encoding.variables import VariableRegistry
from repro.logic.cnf import VarPool


class TestRegistry:
    def test_variables_are_stable(self):
        reg = VariableRegistry()
        a = reg.occupies(0, 5, 3)
        assert reg.occupies(0, 5, 3) == a
        assert reg.lookup_occupies(0, 5, 3) == a

    def test_distinct_families_distinct_vars(self):
        reg = VariableRegistry()
        values = {
            reg.border(1),
            reg.occupies(1, 1, 1),
            reg.done(1, 1),
            reg.gone(1, 1),
            reg.chain(1, 1, 1),
            reg.done_all(1),
        }
        assert len(values) == 6

    def test_lookup_missing_returns_none(self):
        reg = VariableRegistry()
        assert reg.lookup_border(3) is None
        assert reg.lookup_done(0, 0) is None
        assert reg.lookup_gone(0, 0) is None
        assert reg.lookup_occupies(0, 0, 0) is None

    def test_census_counts(self):
        reg = VariableRegistry()
        reg.border(0)
        reg.border(1)
        reg.border(1)  # duplicate: not counted twice
        reg.occupies(0, 0, 0)
        reg.done(0, 5)
        reg.gone(0, 6)
        reg.chain(0, 0, 0)
        reg.done_all(3)
        reg.pool.new_aux()
        census = reg.census()
        assert census["border"] == 2
        assert census["occupies"] == 1
        assert census["done"] == 1
        assert census["gone"] == 1
        assert census["chain"] == 1
        assert census["done_all"] == 1
        assert census["aux"] == 1
        assert census["total"] == 8

    def test_primary_matches_paper_families(self):
        reg = VariableRegistry()
        reg.border(0)
        reg.occupies(0, 0, 0)
        reg.done(0, 1)
        reg.gone(0, 1)
        assert reg.num_primary == 3  # gone is an encoding refinement
        assert reg.num_structural == 1

    def test_census_counts_family_names_of_a_shared_pool(self):
        # The census is counted from the pool's names, so names the
        # registry did not make (any hashable) must not break or skew it.
        pool = VarPool()
        for name in ("x", 7, (), ("arrival_sel", 0)):
            pool.var(name)
        reg = VariableRegistry(pool)
        reg.border(0)
        reg.occupies(0, 1, 2)
        reg.occupies(0, 1, 2)
        census = reg.census()
        assert census["border"] == 1
        assert census["occupies"] == 1
        assert census["done"] == census["gone"] == census["chain"] == 0
        assert census["total"] == 6
        assert reg.num_primary == 2
        assert reg.num_occupies == 1
