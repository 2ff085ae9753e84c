"""Deadline-governed anytime solving, checkpoint/resume, batch recovery.

The acceptance properties of the resilience layer:

* a deadline ends every path (serial, solver service) with the
  best-so-far result, near the budget, never with an exception or a
  hang;
* a SIGKILLed descent resumes from its checkpoint and reaches the same
  optimum with strictly fewer probes;
* a batch whose worker dies recovers the lost job (one retry on the
  respawned worker, then serially in the parent) and says so in its
  report.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import sys
import time

import pytest

from repro.casestudies.running_example import running_example
from repro.logic import CNF, VarPool
from repro.opt import CheckpointError, minimize_sum
from repro.opt.checkpoint import descent_fingerprint, load_checkpoint
from repro.sat.portfolio import fork_available
from repro.sat.service import SolverService
from repro.sat.solver import Solver
from repro.sat.types import SolveResult, SolverConfig
from repro.tasks.batch import BatchJob, run_batch
from repro.tasks.generation import generate_layout
from repro.tasks.optimization import optimize_schedule
from repro.tasks.result import TaskResult

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


# --- helpers (module-level: fork/pickle-safe) ------------------------------


def _staircase(n: int = 8):
    """A descent with one improvement per cost level (8 → 7 → … → 2).

    The objective counts *false* variables while the solver's default
    phase prefers false, so the initial model is maximally bad and the
    linear descent walks the whole staircase — ideal for interrupting.
    """
    cnf = CNF(VarPool())
    lits = [cnf.pool.var(("x", i)) for i in range(n)]
    # Every (n-1)-subset contains a false var => at least 2 false.
    for combo in itertools.combinations(range(n), n - 1):
        cnf.add([-lits[i] for i in combo])
    return cnf, [-lit for lit in lits]


def _pigeonhole(pigeons: int = 8):
    """PHP(n, n-1): small, UNSAT, and exponentially hard for CDCL."""
    holes = pigeons - 1
    cnf = CNF(VarPool())
    var = {
        (p, h): cnf.pool.var(("p", p, h))
        for p in range(pigeons) for h in range(holes)
    }
    for p in range(pigeons):
        cnf.add([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add([-var[p1, h], -var[p2, h]])
    return cnf


def _double(value, seed=0):
    return value * 2


def _returns_object(value):
    return object()  # not JSON-representable: manifest cannot restore it


def _task_result_job(value, seed=0):
    """A job returning a TaskResult, like every table1 row does."""
    return TaskResult(
        task="generation", variables=value, satisfiable=True,
        num_sections=5, time_steps=9, runtime_s=0.1,
        solver_stats={"conflicts": 3}, status="optimal",
    )


def _die_in_pool_worker(value):
    """SIGKILL the process when running inside a pool worker.

    ``multiprocessing.parent_process()`` is None in the batch parent, so
    the serial recovery path survives and returns the value.
    """
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return value + 1


def _session_job(value, die=False):
    """Probe a ``-j 2`` solver session; with ``die``, SIGKILL the pool
    worker while the session's helper idles between probes."""
    service = SolverService(3, [[1, 2], [-1, 3], [-2, -3]], processes=2)
    with service:
        verdict = service.probe().verdict.value
        if die and multiprocessing.parent_process() is not None:
            os.kill(os.getpid(), signal.SIGKILL)
    return value, verdict, service.summary()["service"].get("fallback", "")


def _sleep_job(seconds):
    time.sleep(seconds)
    return "slept"


_SLOW_S = 0.5


@pytest.fixture
def slow_solves(monkeypatch):
    """Make every solve cost ~0.5 s of wall clock, *charged to the
    deadline* — forked portfolio/service workers inherit the patch."""
    original = Solver.solve

    def slow(self, assumptions=()):
        time.sleep(_SLOW_S)
        if self.config.wall_deadline_s is not None:
            self.config.wall_deadline_s = max(
                self.config.wall_deadline_s - _SLOW_S, 0.0
            )
        return original(self, assumptions)

    monkeypatch.setattr(Solver, "solve", slow)


# --- solver-level wall deadline --------------------------------------------


class TestSolverDeadline:
    def test_expired_deadline_returns_unknown(self):
        solver = Solver(SolverConfig(wall_deadline_s=0.0))
        solver.add_clause([1, 2])
        assert solver.solve() is SolveResult.UNKNOWN
        assert solver.stats.deadline_hits == 1

    def test_hard_instance_stops_near_deadline(self):
        solver = _pigeonhole(8).to_solver(
            Solver(SolverConfig(wall_deadline_s=0.1))
        )
        start = time.perf_counter()
        verdict = solver.solve()
        elapsed = time.perf_counter() - start
        assert verdict is SolveResult.UNKNOWN
        assert solver.stats.deadline_hits == 1
        assert elapsed < 2.0  # stopped cooperatively, not at UNSAT

    def test_conflict_free_search_notices_deadline(self):
        # No clauses: the search is pure decisions, so the deadline must
        # be caught on the decision path (the conflict path never runs).
        solver = Solver(SolverConfig(wall_deadline_s=0.02))
        solver.ensure_var(200_000)
        assert solver.solve() is SolveResult.UNKNOWN
        assert solver.stats.deadline_hits == 1

    def test_no_deadline_is_unchanged(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.add_clause([-1])
        assert solver.solve() is SolveResult.SAT
        assert solver.stats.deadline_hits == 0


# --- descent-level deadline ------------------------------------------------


class TestDescentDeadline:
    def test_zero_budget_yields_timeout_not_infeasible(self):
        cnf, obj = _staircase()
        result = minimize_sum(cnf, obj, wall_deadline_s=0.0)
        assert result.status == "timeout"
        assert not result.feasible
        assert not result.proven_optimal

    def test_partial_descent_keeps_best_model(self, slow_solves):
        cnf, obj = _staircase()
        result = minimize_sum(cnf, obj, wall_deadline_s=2 * _SLOW_S + 0.2)
        assert result.status == "timeout"
        assert result.feasible
        # One full staircase needs 8 solves; two fit in the budget.
        assert result.solve_calls < 8
        assert result.lower_bound <= result.cost == result.upper_bound
        # The model really has the claimed cost.
        model = set(result.model)
        assert sum(1 for lit in obj if lit in model) == result.cost

    def test_descent_stats_count_deadline_hits(self, slow_solves):
        cnf, obj = _staircase()
        result = minimize_sum(cnf, obj, wall_deadline_s=2 * _SLOW_S + 0.2)
        assert result.solver_stats.get("deadline_hits", 0) >= 1


# --- task-level deadline acceptance (both execution paths) ----------------


class TestTaskDeadlineAcceptance:
    BUDGET_S = 2.0
    # The core-guided generation default proves the running example's
    # optimum in three slow solves; one second stops it after the first.
    GENERATE_BUDGET_S = 1.0

    def _run(self, parallel: int, task=optimize_schedule,
             budget_s: float = BUDGET_S):
        study = running_example()
        net = study.discretize()
        start = time.perf_counter()
        result = task(
            net, study.schedule, study.r_t_min,
            parallel=parallel, timeout_s=budget_s,
        )
        elapsed = time.perf_counter() - start
        assert result.satisfiable
        assert result.status == "timeout"
        assert result.time_steps is not None
        assert result.objective_value is not None
        assert result.lower_bound <= result.upper_bound
        # Within the budget ±25%, plus fixed encode/fork overhead.
        assert elapsed < budget_s * 1.25 + 1.0
        assert result.metrics.get("deadline.descent_timeouts", 0) >= 1
        return result

    def test_serial(self, slow_solves):
        self._run(parallel=1)

    @needs_fork
    @pytest.mark.usefixtures("helpers_from_first_probe")
    def test_persistent_service(self, slow_solves):
        self._run(parallel=2)

    @pytest.mark.parametrize("parallel", [
        1, pytest.param(2, marks=needs_fork),
    ])
    def test_generation_default(self, slow_solves, parallel):
        result = self._run(parallel, generate_layout,
                           self.GENERATE_BUDGET_S)
        assert result.fingerprint["strategy"] == "core"
        # The layout was decoded and passed the validator.
        assert result.solution is not None
        assert (result.num_sections
                == result.solution.num_sections
                == 4 + result.objective_value)


# --- checkpoint / resume ---------------------------------------------------


class TestCheckpointResume:
    def test_finished_checkpoint_replays_without_probing(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        cnf, obj = _staircase()
        first = minimize_sum(cnf, obj, checkpoint_path=path)
        assert first.proven_optimal and first.checkpoint["writes"] > 0

        cnf, obj = _staircase()
        replayed = minimize_sum(cnf, obj, checkpoint_path=path,
                                resume=True)
        assert replayed.resumed
        assert replayed.solve_calls == 0
        assert replayed.cost == first.cost
        assert replayed.proven_optimal

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        cnf, obj = _staircase()
        minimize_sum(cnf, obj, checkpoint_path=path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "improved", "cost":')  # torn by a kill
        state = load_checkpoint(path)
        assert state is not None and state.best_cost == 2

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        cnf, obj = _staircase()
        minimize_sum(cnf, obj, checkpoint_path=path)
        other_cnf, other_obj = _staircase(6)  # a different formula
        with pytest.raises(CheckpointError):
            minimize_sum(other_cnf, other_obj, checkpoint_path=path,
                         resume=True)

    def test_fingerprint_is_pre_totalizer(self):
        cnf, obj = _staircase()
        before = descent_fingerprint(
            cnf.num_vars, cnf.num_clauses, obj, "linear"
        )
        minimize_sum(cnf, obj)  # grows cnf with totalizer clauses
        after = descent_fingerprint(
            cnf.num_vars, cnf.num_clauses, obj, "linear"
        )
        assert before != after  # resume must fingerprint *before* building

    @needs_fork
    def test_resume_after_sigkill_uses_fewer_probes(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        ctx = multiprocessing.get_context("fork")

        def victim():
            cnf, obj = _staircase()
            seen = []

            def bomb(cost):
                seen.append(cost)
                if len(seen) >= 3:
                    os.kill(os.getpid(), signal.SIGKILL)

            minimize_sum(cnf, obj, checkpoint_path=path,
                         on_improvement=bomb)

        proc = ctx.Process(target=victim)
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == -signal.SIGKILL

        cnf, obj = _staircase()
        baseline = minimize_sum(cnf, obj)
        assert baseline.proven_optimal

        cnf, obj = _staircase()
        resumed = minimize_sum(cnf, obj, checkpoint_path=path, resume=True)
        assert resumed.resumed
        assert resumed.proven_optimal
        assert resumed.cost == baseline.cost
        # The checkpointed staircase prefix is not re-proven.
        assert 0 < resumed.solve_calls < baseline.solve_calls
        model = set(resumed.model)
        assert sum(1 for lit in obj if lit in model) == resumed.cost

    @needs_fork
    @pytest.mark.usefixtures("helpers_from_first_probe")
    def test_resume_after_sigkill_portfolio(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        ctx = multiprocessing.get_context("fork")

        def victim():
            cnf, obj = _staircase()
            seen = []

            def bomb(cost):
                seen.append(cost)
                if len(seen) >= 2:
                    os.kill(os.getpid(), signal.SIGKILL)

            minimize_sum(cnf, obj, checkpoint_path=path,
                         on_improvement=bomb)

        proc = ctx.Process(target=victim)
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == -signal.SIGKILL

        # Resume the serial run's checkpoint on the solver service.
        cnf, obj = _staircase()
        resumed = minimize_sum(cnf, obj, parallel=2,
                               checkpoint_path=path, resume=True)
        assert resumed.resumed
        assert resumed.cost == 2
        assert resumed.proven_optimal


# --- batch recovery --------------------------------------------------------


class TestBatchRecovery:
    @needs_fork
    def test_worker_sigkill_recovers_serially(self):
        jobs = [
            BatchJob("kill-me", _die_in_pool_worker, args=(10,)),
            BatchJob("fine", _double, args=(21,)),
        ]
        report = run_batch(jobs, processes=2)
        assert report.ok
        assert report.value_of("kill-me") == 11  # parent ran it
        assert report.value_of("fine") == 42
        assert "kill-me" in report.recovered_jobs
        assert not report.serial
        assert report.pool_error != ""
        assert report.metrics.get("batch.pool_broken", 0) >= 1
        assert report.metrics.get("batch.serial_recoveries", 0) >= 1

    @needs_fork
    @pytest.mark.parametrize("first", [_double, _die_in_pool_worker])
    def test_no_worker_outlives_the_batch(self, first):
        # A clean pooled run, and one whose worker is killed (twice:
        # the job and its retry), both leave no process behind.
        before = set(multiprocessing.active_children())
        jobs = [BatchJob("first", first, args=(1,)),
                BatchJob("second", _double, args=(2,))]
        report = run_batch(jobs, processes=2)
        assert report.ok
        assert set(multiprocessing.active_children()) <= before

    @needs_fork
    def test_concurrent_worker_deaths_cost_one_job_each(self):
        # Four workers die at once, on the job and on its retry, while
        # the other jobs finish beside them; threads switch often.  Each
        # job ends with one result and each death is counted once.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            jobs = (
                [BatchJob(f"kill-{i}", _die_in_pool_worker, args=(i,))
                 for i in range(4)]
                + [BatchJob(f"fine-{i}", _double, args=(i,))
                   for i in range(4)]
            )
            start = time.perf_counter()
            report = run_batch(jobs, processes=4)
            assert time.perf_counter() - start < 60.0
        finally:
            sys.setswitchinterval(switch)
        assert report.ok
        assert [r.name for r in report.results] == [j.name for j in jobs]
        assert report.values() == [1, 2, 3, 4, 0, 2, 4, 6]
        assert sorted(report.recovered_jobs) == [f"kill-{i}"
                                                 for i in range(4)]
        assert sorted(report.retried_jobs) == sorted(report.recovered_jobs)
        assert report.metrics["batch.pool_broken"] == 8
        assert report.metrics["retry.attempts"] == 4
        assert report.metrics["retry.worker_deaths"] == 4
        assert report.metrics["batch.serial_recoveries"] == 4

    @needs_fork
    def test_pool_worker_opens_a_parallel_session(self):
        # A job may fork the helpers of a -j 2 session in its worker.
        jobs = [BatchJob(f"j{i}", _session_job, args=(i,)) for i in (0, 1)]
        report = run_batch(jobs, processes=2)
        assert report.ok and not report.recovered_jobs
        assert report.values() == [(0, "sat", ""), (1, "sat", "")]

    @needs_fork
    @pytest.mark.usefixtures("helpers_from_first_probe")
    def test_worker_killed_beside_an_idle_helper_is_seen(self):
        # The helper inherited the worker's pipe end; it must notice its
        # own pipe close and exit, or the worker's death goes unseen.
        jobs = [BatchJob("dies", _session_job, args=(1,),
                         kwargs={"die": True}),
                BatchJob("fine", _double, args=(2,))]
        start = time.perf_counter()
        report = run_batch(jobs, processes=2)
        assert time.perf_counter() - start < 60.0
        assert report.ok
        assert report.value_of("dies") == (1, "sat", "")
        assert report.recovered_jobs == ["dies"]

    def test_job_timeout_serial(self):
        jobs = [
            BatchJob("slow", _sleep_job, args=(30.0,)),
            BatchJob("fast", _double, args=(1,)),
        ]
        start = time.perf_counter()
        report = run_batch(jobs, processes=1, job_timeout_s=0.2)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0  # nowhere near the 30 s sleep
        assert not report.ok
        [failure] = report.failures()
        assert failure.name == "slow"
        assert failure.error.startswith("BatchJobTimeout")
        assert report.value_of("fast") == 2
        assert report.metrics.get("batch.job_timeouts", 0) == 1

    @needs_fork
    def test_job_timeout_in_pool(self):
        jobs = [
            BatchJob("slow", _sleep_job, args=(30.0,)),
            BatchJob("fast", _double, args=(2,)),
        ]
        start = time.perf_counter()
        report = run_batch(jobs, processes=2, job_timeout_s=0.2)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        [failure] = report.failures()
        assert failure.name == "slow"
        assert failure.error.startswith("BatchJobTimeout")

    def test_manifest_resume_skips_finished_jobs(self, tmp_path):
        path = str(tmp_path / "manifest.jsonl")
        jobs = [
            BatchJob("a", _double, args=(1,)),
            BatchJob("b", _double, args=(2,)),
        ]
        first = run_batch(jobs, processes=1, manifest_path=path)
        assert first.ok and first.resumed_jobs == []

        second = run_batch(jobs, processes=1, manifest_path=path)
        assert second.ok
        assert second.resumed_jobs == ["a", "b"]
        assert second.values() == first.values()
        assert second.metrics.get("batch.manifest_restored", 0) == 2

    def test_manifest_reruns_non_restorable_values(self, tmp_path):
        path = str(tmp_path / "manifest.jsonl")
        jobs = [BatchJob("obj", _returns_object, args=(1,))]
        run_batch(jobs, processes=1, manifest_path=path)
        second = run_batch(jobs, processes=1, manifest_path=path)
        assert second.ok
        assert second.resumed_jobs == []  # value could not be restored
        assert second.metrics.get("batch.manifest_skipped", 0) == 1

    def test_manifest_restores_task_results(self, tmp_path):
        # TaskResult round-trips through its to_manifest/from_manifest
        # codec, so a table1 resume skips finished rows.
        path = str(tmp_path / "manifest.jsonl")
        jobs = [BatchJob("row", _task_result_job, args=(656,))]
        first = run_batch(jobs, processes=1, manifest_path=path)
        second = run_batch(jobs, processes=1, manifest_path=path)
        assert second.resumed_jobs == ["row"]
        restored = second.value_of("row")
        assert isinstance(restored, TaskResult)
        assert restored.table_row() == first.value_of("row").table_row()
        assert restored.solver_stats == {"conflicts": 3}
        assert restored.status == "optimal"
        assert restored.solution is None  # dropped by the codec

    def test_manifest_keyed_by_seed(self, tmp_path):
        path = str(tmp_path / "manifest.jsonl")
        jobs = [BatchJob("a", _double, args=(1,))]
        run_batch(jobs, processes=1, manifest_path=path, seed=0)
        second = run_batch(jobs, processes=1, manifest_path=path, seed=1)
        assert second.resumed_jobs == []  # different seed: stale entry
