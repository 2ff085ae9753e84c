"""Tests for small paths not covered elsewhere: error plumbing, reprs,
the checked-decode guard."""

from __future__ import annotations

import pytest

from repro.encoding.encoder import EtcsEncoding
from repro.sat import SolveResult
from repro.sat.types import InvalidLiteralError, SatError
from repro.tasks.common import SolutionInvalidError, checked_decode


class TestCheckedDecodeGuard:
    def test_invalid_solutions_raise_loudly(self, micro_net,
                                            single_train_schedule,
                                            monkeypatch):
        """If the validator ever flags a decoded SAT model, the task layer
        must raise instead of returning a bogus result."""
        encoding = EtcsEncoding(micro_net, single_train_schedule, 0.5).build()
        solver = encoding.cnf.to_solver()
        assert solver.solve() is SolveResult.SAT
        true_vars = {lit for lit in solver.model() if lit > 0}

        import repro.tasks.common as common

        monkeypatch.setattr(
            common, "validate_solution",
            lambda enc, sol: ["injected violation"],
        )
        with pytest.raises(SolutionInvalidError, match="injected violation"):
            checked_decode(encoding, true_vars)

    def test_valid_solutions_pass_through(self, micro_net,
                                          single_train_schedule):
        encoding = EtcsEncoding(micro_net, single_train_schedule, 0.5).build()
        solver = encoding.cnf.to_solver()
        solver.solve()
        solution = checked_decode(
            encoding, {lit for lit in solver.model() if lit > 0}
        )
        assert solution.trajectories[0].arrival_step is not None


class TestErrorHierarchy:
    def test_invalid_literal_is_sat_error(self):
        assert issubclass(InvalidLiteralError, SatError)

    def test_solution_invalid_is_assertion(self):
        assert issubclass(SolutionInvalidError, AssertionError)


class TestReprs:
    def test_greedy_result_defaults(self):
        from repro.baseline.greedy import GreedyResult

        result = GreedyResult(success=False, reason="x")
        assert result.deadlock_step is None
        assert result.trajectories == []

    def test_case_study_fields(self):
        from repro.casestudies import all_case_studies

        for study in all_case_studies():
            assert study.r_s_km > 0 and study.r_t_min > 0
            net = study.discretize()
            assert net.r_s_km == study.r_s_km
