"""Differential property tests: the portfolio must be verdict-preserving.

Verdict-preserving parallelism is only trustworthy if every configuration
provably agrees, so this suite drives Hypothesis-generated random CNFs and
small random ETCS scenarios through

* every diversified portfolio member (in-process),
* the one-shot session solve at ``parallel=2`` (an in-process primary
  raced by a forked helper),
* the plain serial solver, and
* a brute-force reference,

and requires identical SAT/UNSAT verdicts everywhere.  UNSAT answers
with proof logging must additionally carry a DRAT refutation that the
independent RUP checker accepts.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.network.builder import NetworkBuilder
from repro.network.discretize import DiscreteNetwork
from repro.sat import (
    ProofLogger,
    Solver,
    SolveResult,
    check_rup_proof,
    diversified_members,
    solve_portfolio,
)
from repro.sat.portfolio import fork_available
from repro.tasks import verify_schedule
from repro.trains.schedule import Schedule, ScheduleError, TrainRun
from repro.trains.train import Train

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)

MEMBERS = diversified_members(8)


def clauses_strategy(max_vars=5, max_clauses=18, max_len=3):
    literal = st.integers(1, max_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clause = st.lists(literal, min_size=1, max_size=max_len)
    return st.lists(clause, min_size=0, max_size=max_clauses)


def brute_force(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        def value(lit):
            phase = bits[abs(lit) - 1]
            return phase if lit > 0 else not phase

        if all(any(value(lit) for lit in c) for c in clauses):
            return True
    return False


def solve_with(member, num_vars, clauses):
    solver = Solver(member.config)
    solver.ensure_var(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve()


class TestMemberAgreement:
    """Every diversified configuration is its own sound, complete solver."""

    @given(clauses_strategy())
    @settings(max_examples=120, deadline=None)
    def test_all_members_match_brute_force(self, clauses):
        expected = brute_force(5, clauses)
        for member in MEMBERS:
            verdict = solve_with(member, 5, clauses) is SolveResult.SAT
            assert verdict == expected, member.name

    @given(clauses_strategy(max_vars=4, max_clauses=24))
    @settings(max_examples=60, deadline=None)
    def test_member_models_satisfy_the_formula(self, clauses):
        for member in MEMBERS:
            solver = Solver(member.config)
            solver.ensure_var(4)
            for clause in clauses:
                solver.add_clause(clause)
            if solver.solve() is SolveResult.SAT:
                for clause in clauses:
                    assert any(solver.model_value(lit) for lit in clause), (
                        member.name
                    )


@needs_fork
class TestPortfolioAgreement:
    """The one-shot session solve returns exactly the serial verdict."""

    @given(clauses_strategy())
    @settings(max_examples=40, deadline=None)
    def test_race_matches_serial(self, clauses):
        serial = solve_with(MEMBERS[0], 5, clauses)
        raced, __ = solve_portfolio(5, clauses, parallel=2)
        assert raced.verdict == serial
        if raced.verdict is SolveResult.SAT:
            true_set = {lit for lit in raced.model if lit > 0}
            for clause in clauses:
                assert any(
                    lit in true_set if lit > 0 else abs(lit) not in true_set
                    for lit in clause
                )

    @given(clauses_strategy(max_vars=4, max_clauses=26, max_len=2))
    @settings(max_examples=40, deadline=None)
    def test_unsat_races_ship_checkable_drat_proofs(self, clauses):
        # Short clauses over few variables skew UNSAT, which is the case
        # this test is after; SAT examples just assert the verdict.
        logger = ProofLogger()
        raced, __ = solve_portfolio(4, clauses, parallel=2, proof=logger)
        assert (raced.verdict is SolveResult.SAT) == brute_force(4, clauses)
        if raced.verdict is SolveResult.UNSAT:
            assert check_rup_proof(4, clauses, logger.steps)


def micro_scenario(length_km, speed_kmh, train_length_m, arrival_min,
                   opposing):
    """A tiny 3-TTD line with one train (or two opposing trains)."""
    network = (
        NetworkBuilder()
        .boundary("A")
        .link("m1")
        .link("m2")
        .boundary("B")
        .track("A", "m1", length_km=length_km, ttd="TTD1", name="staA")
        .track("m1", "m2", length_km=length_km, ttd="TTD2", name="mid")
        .track("m2", "B", length_km=length_km, ttd="TTD3", name="staB")
        .station("A", ["staA"])
        .station("B", ["staB"])
        .build()
    )
    runs = [
        TrainRun(
            Train("E", length_m=train_length_m, max_speed_kmh=speed_kmh),
            start="A", goal="B", departure_min=0.0,
            arrival_min=arrival_min,
        )
    ]
    if opposing:
        runs.append(
            TrainRun(
                Train("W", length_m=train_length_m,
                      max_speed_kmh=speed_kmh),
                start="B", goal="A", departure_min=0.0,
                arrival_min=None,
            )
        )
    duration = (arrival_min or 6.0) + 2.0
    schedule = Schedule(runs, duration_min=duration)
    return DiscreteNetwork(network, 0.5), schedule


@needs_fork
class TestEtcsScenarioAgreement:
    """Serial and portfolio verification agree on random ETCS scenarios,
    eager (one probe) and lazy (a probe per refinement round) alike."""

    @pytest.mark.parametrize("lazy", [True, False])
    @given(
        length_km=st.sampled_from([0.5, 1.0]),
        speed_kmh=st.sampled_from([60.0, 120.0]),
        train_length_m=st.sampled_from([200.0, 400.0]),
        arrival_min=st.one_of(st.none(), st.integers(2, 6).map(float)),
        opposing=st.booleans(),
    )
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_verification_verdict_and_metadata_agree(
        self, lazy, length_km, speed_kmh, train_length_m, arrival_min,
        opposing,
    ):
        try:
            net, schedule = micro_scenario(
                length_km, speed_kmh, train_length_m, arrival_min, opposing
            )
        except ScheduleError:
            return  # scenario does not discretise: nothing to compare
        serial = verify_schedule(net, schedule, 1.0, lazy=lazy)
        raced = verify_schedule(net, schedule, 1.0, lazy=lazy, parallel=2)
        assert raced.satisfiable == serial.satisfiable
        assert raced.num_sections == serial.num_sections
        assert raced.time_steps == serial.time_steps
        assert raced.portfolio is not None
        assert serial.portfolio is None
