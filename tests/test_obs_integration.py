"""Integration tests: observability wired through solver, tasks, and CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import trace
from repro.sat import (
    PortfolioMember,
    Solver,
    SolverConfig,
    SolverService,
    solve_portfolio,
)
from repro.sat.portfolio import fork_available
from repro.sat.types import SolverStats
from repro.tasks.batch import BatchJob, run_batch
from repro.tasks.result import TaskResult
from repro.tasks.verification import verify_schedule
from tests.test_portfolio_runner import UNSAT_CNF, crashing_factory

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


@pytest.fixture(autouse=True)
def _clean_tracer():
    trace.reset()
    yield
    trace.reset()


# --- SolverStats snapshot/delta and per-solve stats ------------------------


class TestPerSolveStats:
    def test_snapshot_delta_arithmetic(self):
        before = SolverStats(conflicts=10, propagations=100, max_lbd=4)
        after = SolverStats(conflicts=25, propagations=180, max_lbd=6)
        delta = after.delta(before)
        assert delta.conflicts == 15
        assert delta.propagations == 80
        assert delta.max_lbd == 6  # max fields keep the current value

    def test_last_stats_does_not_accumulate_across_solves(self):
        num_vars, clauses = UNSAT_CNF
        solver = Solver()
        solver.ensure_var(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        solver.solve()
        first = solver.last_stats
        solver.solve()
        second = solver.last_stats
        assert first.solve_calls == 1
        assert second.solve_calls == 1
        assert solver.stats.solve_calls == 2
        # The cumulative counters keep growing; the per-solve ones do not.
        assert solver.stats.conflicts >= second.conflicts

    def test_progress_callback_fires_on_conflicts(self):
        num_vars, clauses = UNSAT_CNF
        solver = Solver()
        solver.ensure_var(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        snapshots = []
        solver.on_progress(snapshots.append, interval_conflicts=1)
        solver.solve()
        assert snapshots
        assert {"conflicts", "propagations", "decisions"} <= set(
            snapshots[0]
        )

    def test_progress_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            Solver().on_progress(lambda snap: None, interval_conflicts=0)


# --- deprecation alias -----------------------------------------------------


class TestStatsAlias:
    def test_task_result_stats_warns_and_aliases(self):
        result = TaskResult(
            task="verification", variables=1, satisfiable=False,
            num_sections=1, time_steps=None, runtime_s=0.0,
            solver_stats={"conflicts": 5},
        )
        with pytest.warns(DeprecationWarning, match="solver_stats"):
            assert result.stats == {"conflicts": 5}


# --- service helper crash telemetry ----------------------------------------


@needs_fork
@pytest.mark.usefixtures("helpers_from_first_probe")
class TestCrashTelemetry:
    def test_crash_report_carries_config_and_traceback(self):
        num_vars, clauses = UNSAT_CNF
        members = [
            PortfolioMember("base", SolverConfig()),
            PortfolioMember("crash", SolverConfig(random_seed=7),
                            solver_factory=crashing_factory),
        ]
        with SolverService(num_vars, clauses, members=members) as service:
            service.probe()
        crash = service.reports[1]
        assert "injected portfolio worker crash" in crash.error
        assert "RuntimeError" in crash.traceback
        assert "Traceback" in crash.traceback
        assert crash.config  # the member's SolverConfig as a dict
        assert crash.config["random_seed"] == 7
        assert service.summary()["service"]["fallback"]


# --- fork-merge of worker spans --------------------------------------------


def _traced_job(tag):
    with trace.span("work", tag=tag):
        return tag * 2


@needs_fork
class TestForkMerge:
    def test_portfolio_member_spans_merge_into_parent(
        self, helpers_from_first_probe
    ):
        tracer = trace.install(trace.Tracer())
        num_vars, clauses = UNSAT_CNF
        solve_portfolio(num_vars, clauses, parallel=2)
        member_spans = [s for s in tracer.spans if s.tid != "main"]
        assert member_spans, "helper spans were not merged"
        assert {"service.load", "service.probe"} <= {
            s.name for s in member_spans
        }

    def test_batch_worker_spans_merge_into_parent(self):
        tracer = trace.install(trace.Tracer())
        jobs = [BatchJob(f"j{i}", _traced_job, args=(i,)) for i in range(3)]
        report = run_batch(jobs, processes=2)
        assert report.ok
        assert not report.serial
        tids = {span.tid for span in tracer.spans}
        assert {"batch:j0", "batch:j1", "batch:j2"} <= tids
        worker = [s for s in tracer.spans if s.name == "work"]
        assert len(worker) == 3
        job_spans = [s for s in tracer.spans if s.name == "batch.job"]
        assert len(job_spans) == 3
        # The shared monotonic clock keeps children inside the batch span.
        batch = next(s for s in tracer.spans if s.name == "batch")
        for span in worker:
            assert batch.t0 <= span.t0 <= span.t1 <= batch.t1

    def test_batch_serial_path_traces_inline(self):
        tracer = trace.install(trace.Tracer())
        jobs = [BatchJob(f"j{i}", _traced_job, args=(i,)) for i in range(2)]
        report = run_batch(jobs, processes=1)
        assert report.ok
        assert all(not r.spans for r in report.results)
        assert {s.tid for s in tracer.spans} == {"main"}
        assert len([s for s in tracer.spans if s.name == "work"]) == 2


# --- task + CLI end-to-end -------------------------------------------------


class TestTaskInstrumentation:
    def test_verify_produces_phase_spans_and_metrics(
        self, micro_net, single_train_schedule
    ):
        tracer = trace.install(trace.Tracer())
        result = verify_schedule(micro_net, single_train_schedule, 0.5)
        names = {span.name for span in tracer.spans}
        assert {"verify", "encode", "solve", "decode"} <= names
        assert result.metrics["solver.conflicts"] >= 0
        assert result.metrics["encoder.vars"] > 0
        assert any(
            key.startswith("encoder.placement.") for key in result.metrics
        )

    def test_cli_trace_metrics_and_report(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.jsonl")
        metrics_path = str(tmp_path / "m.json")
        code = main([
            "verify", "--case", "running-example",
            "--trace", trace_path, "--metrics", metrics_path,
        ])
        assert code == 1  # the running example is UNSAT by design
        assert not trace.enabled()  # the CLI uninstalls its tracer
        records = trace.read_jsonl(trace_path)
        names = {r["name"] for r in records}
        assert {"verify", "encode", "solve", "decode"} <= names
        with open(metrics_path) as handle:
            metrics = json.load(handle)
        assert "solver.conflicts" in metrics
        capsys.readouterr()

        chrome_path = str(tmp_path / "t.json")
        code = main([
            "report", "--trace", trace_path, "--metrics", metrics_path,
            "--export-chrome", chrome_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Trace:" in out
        assert "solver.conflicts" in out
        with open(chrome_path) as handle:
            chrome = json.load(handle)
        assert chrome["traceEvents"]
