"""Unit and integration tests for the hot-path phase profiler."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    PHASES,
    PhaseProfiler,
    extract_profile,
    format_top,
    merge_profiles,
    profile_summary,
)
from repro.sat.solver import Solver
from repro.sat.types import SolveResult, SolverConfig


def _php_clauses(holes: int) -> tuple[int, list[list[int]]]:
    """Pigeonhole PHP(holes+1, holes): small but conflict-rich UNSAT."""
    pigeons = holes + 1

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


class TestPhaseProfiler:
    def test_counts_every_op_times_only_sampled(self):
        prof = PhaseProfiler(sample_period=4)
        for __ in range(10):
            prof.run("propagate", lambda: None)
            prof.on_conflict()
            prof.run("analyze", lambda: None)
        counters = prof.as_counters()
        assert counters["propagate.count"] == 10
        assert counters["analyze.count"] == 10
        # 1 initial interval + 10 conflicts; every 4th is sampled, plus
        # the always-sampled first interval.
        assert counters["intervals"] == 11
        assert counters["sampled_intervals"] == counters["intervals"] // 4 + 1
        assert counters["propagate.sampled"] < counters["propagate.count"]
        assert counters["propagate.time_s"] >= 0.0

    def test_run_returns_the_callables_value(self):
        prof = PhaseProfiler()
        assert prof.run("decide", lambda: 42) == 42
        assert prof.run("decide", lambda a, b: a + b, 1, 2) == 3

    def test_every_phase_key_is_exported(self):
        prof = PhaseProfiler()
        counters = prof.as_counters()
        for phase in PHASES:
            assert f"{phase}.count" in counters
            assert f"{phase}.sampled" in counters
            assert f"{phase}.time_s" in counters

    def test_merge_profiles_sums(self):
        a = {"propagate.count": 3, "propagate.time_s": 0.5}
        b = {"propagate.count": 2, "propagate.time_s": 0.25,
             "decide.count": 7}
        merged = merge_profiles([a, b])
        assert merged["propagate.count"] == 5
        assert merged["propagate.time_s"] == 0.75
        assert merged["decide.count"] == 7

    def test_summary_shares_sum_to_one(self):
        prof = PhaseProfiler(sample_period=1)
        for __ in range(50):
            prof.run("propagate", lambda: sum(range(200)))
            prof.on_conflict()
            prof.run("analyze", lambda: sum(range(50)))
        summary = profile_summary(prof.as_counters())
        shares = sum(
            data["share"] for data in summary["phases"].values()
        )
        assert shares == pytest.approx(1.0)
        assert summary["dominant"] in PHASES


class TestSolverIntegration:
    def test_profile_off_by_default(self):
        solver = Solver()
        num_vars, clauses = _php_clauses(4)
        solver.ensure_var(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() is SolveResult.UNSAT
        assert solver.stats.profile == {}
        assert not any(
            key.startswith("profile.")
            for key in solver.stats.as_dict()
        )

    def test_profile_counters_ride_in_stats(self):
        solver = Solver(SolverConfig(profile=True))
        num_vars, clauses = _php_clauses(5)
        solver.ensure_var(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() is SolveResult.UNSAT
        stats = solver.stats.as_dict()
        assert stats["profile.propagate.count"] > 0
        assert stats["profile.intervals"] == solver.stats.conflicts + 1
        # Attribution covers the conflict phases actually exercised.
        summary = profile_summary(extract_profile(
            {f"solver.{k}": v for k, v in stats.items()}
        ))
        assert summary["phases"]["propagate"]["count"] > 0
        assert sum(
            d["share"] for d in summary["phases"].values()
        ) == pytest.approx(1.0)

    def test_verdict_identical_with_and_without_profile(self):
        num_vars, clauses = _php_clauses(4)
        outcomes = []
        for profile in (False, True):
            solver = Solver(SolverConfig(profile=profile))
            solver.ensure_var(num_vars)
            for clause in clauses:
                solver.add_clause(clause)
            verdict = solver.solve()
            outcomes.append(
                (verdict, solver.stats.conflicts, solver.stats.decisions)
            )
        # Profiling must not perturb the search trajectory at all.
        assert outcomes[0] == outcomes[1]

    def test_per_solve_delta_never_double_counts(self):
        """Satellite: ``last_stats`` deltas sum to the lifetime stats."""
        solver = Solver(SolverConfig(profile=True))
        num_vars, clauses = _php_clauses(4)
        solver.ensure_var(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        deltas = []
        for __ in range(3):
            solver.solve()
            deltas.append(solver.last_stats.as_dict())
        lifetime = solver.stats.as_dict()
        summed: dict = {}
        for delta in deltas:
            for key, value in delta.items():
                if isinstance(value, (int, float)):
                    summed[key] = summed.get(key, 0) + value
        for key, value in lifetime.items():
            if key.startswith("max_") or not isinstance(
                value, (int, float)
            ):
                continue
            if key == "solve_time":
                assert summed[key] == pytest.approx(value, rel=1e-6)
            else:
                assert summed[key] == value, key


class TestMetricsAbsorption:
    def test_profile_keys_keep_their_namespace(self):
        solver = Solver(SolverConfig(profile=True))
        num_vars, clauses = _php_clauses(5)
        solver.ensure_var(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        solver.solve()
        reg = MetricsRegistry()
        reg.absorb_solver_stats(solver.stats.as_dict())
        out = reg.as_dict()
        assert "profile.propagate.count" in out
        assert "solver.profile.propagate.count" not in out
        assert out["solver.conflicts"] == solver.stats.conflicts
        assert out["profile.props_per_s"] > 0
        assert out["profile.conflicts_per_s"] > 0

    def test_format_top_names_dominant_phase(self):
        solver = Solver(SolverConfig(profile=True))
        num_vars, clauses = _php_clauses(5)
        solver.ensure_var(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        solver.solve()
        reg = MetricsRegistry()
        reg.absorb_solver_stats(solver.stats.as_dict())
        rendered = format_top(reg.as_dict())
        assert "dominant phase:" in rendered
        assert "100.0%" in rendered

    def test_format_top_without_profile_data(self):
        assert "no profile data" in format_top({"solver.conflicts": 5})


class TestForkMerge:
    def test_portfolio_merges_member_profiles(self):
        from repro.sat import open_session
        from repro.sat.portfolio import fork_available

        if not fork_available():
            pytest.skip("no fork available on this platform")
        # PHP(7, 6) keeps the primary busy long enough for the helper to
        # search before the probe ends.
        num_vars, clauses = _php_clauses(6)
        session = open_session(num_vars, clauses, parallel=2,
                               base=SolverConfig(profile=True))
        try:
            assert session.probe().verdict is SolveResult.UNSAT
        finally:
            session.close()
        primary = session.solver.stats.as_dict()
        merged = session.solver_stats()
        # Every helper reply's profile counters are summed in.  (A
        # primary stopped by the helper's UNSAT has none of its own.)
        for key in ("profile.propagate.count", "profile.intervals"):
            assert merged[key] > primary.get(key, 0)

    def test_lazy_verification_profiles_when_asked(self, micro_net,
                                                  single_train_schedule):
        from repro.encoding.lazy import solve_lazy_verification
        from repro.tasks.common import build_encoding

        encoding = build_encoding(
            micro_net, single_train_schedule, 1.0, None, lazy=True
        )
        outcome = solve_lazy_verification(encoding, profile=True)
        assert any(
            key.startswith("profile.") for key in outcome.solver_stats
        )

    def test_verify_schedule_profile_flag(self, micro_net,
                                          single_train_schedule):
        from repro.tasks.verification import verify_schedule

        result = verify_schedule(
            micro_net, single_train_schedule, 1.0, profile=True
        )
        assert any(
            key.startswith("profile.") for key in result.metrics
        )
        plain = verify_schedule(micro_net, single_train_schedule, 1.0)
        assert not any(
            key.startswith("profile.") for key in plain.metrics
        )
        assert plain.satisfiable == result.satisfiable
