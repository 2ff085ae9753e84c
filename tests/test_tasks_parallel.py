"""Determinism and robustness of the parallel task layer.

Covers the end-to-end `parallel=` plumbing (verify/generate/optimize),
the batch runner (`repro.tasks.batch`), and the graceful-degradation
behaviour of the portfolio-routed optimisation descent.
"""

from __future__ import annotations

import time

import pytest

from repro.logic import CNF, VarPool
from repro.opt import minimize_sum
from repro.sat import PortfolioMember, Solver, SolverConfig
from repro.sat.portfolio import fork_available
from repro.tasks import (
    BatchJob,
    generate_layout,
    optimize_schedule,
    run_batch,
    run_case_task,
    table1_jobs,
    verify_schedule,
)
from repro.tasks.batch import job_seed

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


def _verify_meta(result):
    return (
        result.satisfiable,
        result.num_sections,
        result.time_steps,
        result.variables,
        result.actual_vars,
        result.clauses,
    )


@needs_fork
@pytest.mark.usefixtures("helpers_from_first_probe")
class TestTaskDeterminism:
    """Same scenario + same `parallel` -> byte-identical decoded metadata."""

    def test_verify_parallel_is_reproducible(self, micro_net,
                                             crossing_schedule):
        first = verify_schedule(micro_net, crossing_schedule, 1.0, parallel=2)
        second = verify_schedule(micro_net, crossing_schedule, 1.0,
                                 parallel=2)
        assert _verify_meta(first) == _verify_meta(second)

    def test_generate_parallel_is_reproducible(self, micro_net,
                                               crossing_schedule):
        first = generate_layout(micro_net, crossing_schedule, 1.0, parallel=2)
        second = generate_layout(micro_net, crossing_schedule, 1.0,
                                 parallel=2)
        assert first.satisfiable == second.satisfiable
        assert first.objective_value == second.objective_value
        assert first.num_sections == second.num_sections
        assert first.time_steps == second.time_steps

    def test_parallel_metadata_matches_serial(self, micro_net,
                                              crossing_schedule):
        serial = verify_schedule(micro_net, crossing_schedule, 1.0)
        raced = verify_schedule(micro_net, crossing_schedule, 1.0, parallel=2)
        assert _verify_meta(raced) == _verify_meta(serial)

    def test_generate_parallel_matches_serial_objective(
        self, micro_net, crossing_schedule
    ):
        serial = generate_layout(micro_net, crossing_schedule, 1.0)
        raced = generate_layout(micro_net, crossing_schedule, 1.0, parallel=2)
        assert raced.satisfiable == serial.satisfiable
        assert raced.objective_value == serial.objective_value

    def test_optimize_parallel_matches_serial_objective(
        self, loop_net, crossing_schedule
    ):
        serial = optimize_schedule(loop_net, crossing_schedule, 1.0)
        raced = optimize_schedule(loop_net, crossing_schedule, 1.0,
                                  parallel=2)
        assert raced.satisfiable == serial.satisfiable
        assert raced.objective_value == serial.objective_value
        assert raced.portfolio is not None

    def test_verify_parallel_unsat_proof_checks(self, micro_net,
                                                crossing_schedule):
        result = verify_schedule(micro_net, crossing_schedule, 1.0,
                                 parallel=2, with_proof=True)
        assert not result.satisfiable  # opposing trains, single track
        assert result.proof_checked is True


class TestParallelOneIsSerial:
    """`parallel=1` must be exactly today's serial path: no portfolio."""

    def test_verify(self, micro_net, crossing_schedule):
        plain = verify_schedule(micro_net, crossing_schedule, 1.0)
        explicit = verify_schedule(micro_net, crossing_schedule, 1.0,
                                   parallel=1)
        assert explicit.portfolio is None
        assert _verify_meta(explicit) == _verify_meta(plain)

    def test_generate(self, micro_net, crossing_schedule):
        plain = generate_layout(micro_net, crossing_schedule, 1.0)
        explicit = generate_layout(micro_net, crossing_schedule, 1.0,
                                   parallel=1)
        assert explicit.portfolio is None
        assert explicit.objective_value == plain.objective_value


# --- batch runner ----------------------------------------------------------

def _square(x):
    return x * x


def _boom(message="boom"):
    raise ValueError(message)


def _report_seed(x, seed=None):
    return (x, seed)


class TestRunBatch:
    def test_serial_executes_all_jobs(self):
        jobs = [BatchJob(f"sq/{i}", _square, args=(i,)) for i in range(5)]
        report = run_batch(jobs, processes=1)
        assert report.ok
        assert report.values() == [0, 1, 4, 9, 16]
        assert report.value_of("sq/3") == 9

    def test_failures_are_captured_not_raised(self):
        jobs = [
            BatchJob("good", _square, args=(2,)),
            BatchJob("bad", _boom, args=("kaput",)),
        ]
        report = run_batch(jobs, processes=1)
        assert not report.ok
        [failure] = report.failures()
        assert failure.name == "bad"
        assert "kaput" in failure.error
        assert report.value_of("good") == 4

    def test_seed_kwarg_injects_deterministic_seeds(self):
        jobs = [
            BatchJob(f"j{i}", _report_seed, args=(i,), seed_kwarg="seed")
            for i in range(3)
        ]
        first = run_batch(jobs, processes=1, seed=7)
        second = run_batch(jobs, processes=1, seed=7)
        other = run_batch(jobs, processes=1, seed=8)
        assert [r.seed for r in first.results] == [
            job_seed(7, i, f"j{i}") for i in range(3)
        ]
        assert first.values() == second.values()
        assert [r.seed for r in other.results] != [
            r.seed for r in first.results
        ]

    @needs_fork
    def test_pool_matches_serial(self):
        jobs = [BatchJob(f"sq/{i}", _square, args=(i,)) for i in range(6)]
        serial = run_batch(jobs, processes=1)
        pooled = run_batch(jobs, processes=3)
        assert pooled.values() == serial.values()
        assert pooled.processes == 3
        assert not pooled.serial

    @needs_fork
    def test_pool_captures_worker_exceptions(self):
        jobs = [
            BatchJob("ok", _square, args=(3,)),
            BatchJob("fail", _boom),
        ]
        report = run_batch(jobs, processes=2)
        assert report.value_of("ok") == 9
        [failure] = report.failures()
        assert failure.name == "fail"


class TestTable1Jobs:
    def test_three_tasks_per_study(self):
        jobs = table1_jobs(skip_slow=True)
        names = [job.name for job in jobs]
        assert len(names) == len(set(names))
        assert len(names) % 3 == 0
        for name in names:
            study, task = name.split("/")
            assert task in {"verification", "generation", "optimization"}

    def test_run_case_task_rejects_unknown_task(self):
        with pytest.raises(ValueError):
            run_case_task("running_example", "translation")


# --- descent degradation (satellite: timeout -> best-known bound) ----------


class _SlowBoundSolver(Solver):
    """Answers unbounded probes at once; sleeps through every bounded
    probe's wall budget, charging it to the deadline so the search that
    follows gives up."""

    def solve(self, assumptions=()):
        budget = self.config.wall_deadline_s
        if assumptions and budget is not None:
            time.sleep(budget)
            self.config.wall_deadline_s = 0.0
        return super().solve(assumptions)


def slow_bound_factory(config):
    return _SlowBoundSolver(config)


def _descent_cnf():
    """4 selectable literals, at least two must be true (minimum cost 2)."""
    cnf = CNF(VarPool())
    lits = [cnf.pool.var(("x", i)) for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                cnf.add([lits[i], lits[j], lits[k]])
    return cnf, lits


@needs_fork
@pytest.mark.usefixtures("helpers_from_first_probe")
class TestDescentDegradation:
    def test_probe_timeout_keeps_best_known_bound(self):
        cnf, lits = _descent_cnf()
        slow = [
            PortfolioMember("slow-a", SolverConfig(random_seed=1),
                            solver_factory=slow_bound_factory),
            PortfolioMember("slow-b", SolverConfig(random_seed=2),
                            solver_factory=slow_bound_factory),
        ]
        result = minimize_sum(
            cnf, lits, strategy="linear", parallel=2,
            portfolio_members=slow, descent_timeout_s=0.1,
        )
        # The initial feasibility race has no deadline, so a model exists;
        # every bounded probe times out, so the bound is never tightened
        # nor proven, and the best-known model survives.
        assert result.feasible
        assert not result.proven_optimal
        assert result.cost is not None and result.cost >= 2
        assert result.portfolio["processes"] == 2

    def test_parallel_descent_matches_serial_optimum(self):
        cnf, lits = _descent_cnf()
        serial = minimize_sum(cnf, lits, strategy="linear")
        for strategy in ("linear", "binary"):
            raced = minimize_sum(cnf, lits, strategy=strategy, parallel=2)
            assert raced.feasible
            assert raced.proven_optimal
            assert raced.cost == serial.cost == 2
