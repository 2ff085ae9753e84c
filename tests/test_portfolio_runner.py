"""Unit tests for the portfolio members (repro.sat.portfolio) and the
one-shot session solve built on them (repro.sat.solve_portfolio)."""

from __future__ import annotations

import pytest

from repro.sat import (
    PortfolioMember,
    ProofLogger,
    SerialSession,
    Solver,
    SolveResult,
    SolverConfig,
    check_rup_proof,
    diversified_members,
    open_session,
    solve_portfolio,
)
from repro.sat.portfolio import fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)

SAT_CNF = (3, [[1, 2], [-1, 3], [-2, -3]])
UNSAT_CNF = (2, [[1, 2], [1, -2], [-1, 2], [-1, -2]])


# --- helpers for failure injection (module-level: fork-safe) ---------------

def crashing_factory(config):
    raise RuntimeError("injected portfolio worker crash")


def logged_member(logger):
    """A member whose solver logs DRAT to ``logger``."""
    def factory(config):
        solver = Solver(config)
        solver.attach_proof(logger)
        return solver

    return PortfolioMember("proof", SolverConfig(), solver_factory=factory)


class TestDiversifiedMembers:
    def test_member_zero_is_the_unmodified_base(self):
        base = SolverConfig(var_decay=0.9, random_seed=42)
        members = diversified_members(5, base=base)
        assert members[0].name == "base"
        assert members[0].config == base

    def test_members_are_actually_diverse(self):
        members = diversified_members(6)
        configs = [m.config for m in members]
        assert len({m.name for m in members}) == 6
        assert len({c.random_seed for c in configs}) == 6

    def test_recipe_list_cycles_for_large_n(self):
        members = diversified_members(12)
        assert len(members) == 12
        assert len({m.name for m in members}) == 12

    def test_rejects_empty_portfolio(self):
        with pytest.raises(ValueError):
            diversified_members(0)

    def test_every_member_is_sound(self):
        num_vars, clauses = UNSAT_CNF
        for member in diversified_members(8):
            solver = Solver(member.config)
            solver.ensure_var(num_vars)
            for clause in clauses:
                solver.add_clause(clause)
            assert solver.solve() is SolveResult.UNSAT, member.name


class TestSerialDegradation:
    def test_processes_one_matches_plain_solver(self):
        num_vars, clauses = SAT_CNF
        outcome, session = solve_portfolio(num_vars, clauses, parallel=1)
        solver = Solver()
        solver.ensure_var(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() is SolveResult.SAT
        assert isinstance(session, SerialSession)
        assert outcome.verdict is SolveResult.SAT
        assert outcome.model == solver.model()
        assert session.summary() is None

    def test_parallel_one_solves_with_member_zero(self):
        built = []

        def factory(config):
            built.append(config)
            return Solver(config)

        config = SolverConfig(random_seed=7, var_decay=0.9)
        members = [PortfolioMember("only", config, solver_factory=factory)]
        num_vars, clauses = SAT_CNF
        session = open_session(num_vars, clauses, 1, members=members)
        try:
            assert session.probe().verdict is SolveResult.SAT
        finally:
            session.close()
        assert isinstance(session, SerialSession)
        assert built == [config]
        assert session.solver.config.random_seed == 7
        assert session.solver.config.var_decay == 0.9


def _satisfies(model, clauses) -> bool:
    true_set = {lit for lit in model if lit > 0}
    return all(
        any(lit in true_set if lit > 0 else -lit not in true_set
            for lit in clause)
        for clause in clauses
    )


@needs_fork
@pytest.mark.usefixtures("helpers_from_first_probe")
class TestRace:
    def test_sat_with_model(self):
        num_vars, clauses = SAT_CNF
        outcome, __ = solve_portfolio(num_vars, clauses, parallel=3)
        assert outcome.verdict is SolveResult.SAT
        assert _satisfies(outcome.model, clauses)

    def test_unsat(self):
        num_vars, clauses = UNSAT_CNF
        outcome, __ = solve_portfolio(num_vars, clauses, parallel=3)
        assert outcome.verdict is SolveResult.UNSAT
        assert outcome.model is None

    def test_proof_ships_on_unsat(self):
        # A proof is logged by a solver in this process: a proof run
        # opens its session at ``parallel=1`` with one logged member,
        # so no helper is forked.
        num_vars, clauses = UNSAT_CNF
        logger = ProofLogger()
        session = open_session(num_vars, clauses, 1,
                               members=[logged_member(logger)])
        try:
            outcome = session.probe()
        finally:
            session.close()
        assert outcome.verdict is SolveResult.UNSAT
        assert isinstance(session, SerialSession)
        assert check_rup_proof(num_vars, clauses, logger.steps)

    def test_worker_reports_collected(self):
        num_vars, clauses = SAT_CNF
        outcome, session = solve_portfolio(num_vars, clauses, parallel=2)
        summary = session.summary()
        assert summary["processes"] == 2
        assert len(summary["service"]["workers"]) == 2
        assert outcome.winner == 0  # SAT answers come from the primary
        assert summary["winners"] == {"base": 1}
        assert session.solver_stats().get("solve_calls", 0) >= 1


@needs_fork
@pytest.mark.usefixtures("helpers_from_first_probe")
class TestDeterminism:
    def test_sat_model_comes_from_the_primary_member(self):
        num_vars, clauses = SAT_CNF
        serial, __ = solve_portfolio(num_vars, clauses, parallel=1)
        for _ in range(3):
            raced, __ = solve_portfolio(num_vars, clauses, parallel=3)
            assert raced.model == serial.model

    def test_repeated_races_are_byte_identical(self):
        num_vars, clauses = SAT_CNF
        first, __ = solve_portfolio(num_vars, clauses, parallel=3)
        second, __ = solve_portfolio(num_vars, clauses, parallel=3)
        assert first.verdict == second.verdict
        assert first.model == second.model
