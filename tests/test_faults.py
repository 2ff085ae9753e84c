"""Deterministic fault-injection suite (``make test-faults``).

Every scenario arms a :class:`repro.testing.faults.FaultPlan` and asserts
the system ends in a *correct result or a typed error* with matching
telemetry — never a hang, never a silently wrong answer.  Forked workers
inherit the plan through the ``REPRO_FAULTS`` environment variable.
"""

from __future__ import annotations

import itertools
import os
import time

import pytest

from repro.logic import CNF, VarPool
from repro.opt import minimize_sum
from repro.sat import service as service_module
from repro.sat.portfolio import fork_available
from repro.sat.service import SolverService
from repro.sat.types import SolveResult
from repro.tasks import generate_layout, verify_schedule
from repro.tasks.batch import BatchJob, run_batch
from repro.testing import FaultPlan, active_plan, injected
from repro.testing.faults import ENV_KEY, FaultPlanError

pytestmark = pytest.mark.faults

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


def _staircase(n: int = 6):
    """Objective over negated vars: several improvements per descent."""
    cnf = CNF(VarPool())
    lits = [cnf.pool.var(("x", i)) for i in range(n)]
    for combo in itertools.combinations(range(n), n - 1):
        cnf.add([-lits[i] for i in combo])
    return cnf, [-lit for lit in lits]


def _job_ok(value, seed=0):
    return value + 100


class TestFaultPlans:
    def test_env_round_trip(self):
        plan = FaultPlan(kill_member="neg-phase", kill_probe=2,
                         checkpoint_fail_at=3)
        assert FaultPlan.from_env(plan.to_env()) == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_env('{"explode_at": 1}')

    def test_unparseable_payload_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_env("not json")

    def test_injected_sets_and_restores_env(self):
        assert active_plan() is None
        with injected(FaultPlan(slow_member="base")) as plan:
            assert os.environ[ENV_KEY] == plan.to_env()
            assert active_plan() == plan
        assert ENV_KEY not in os.environ
        assert active_plan() is None


@needs_fork
@pytest.mark.usefixtures("helpers_from_first_probe")
class TestServiceFaults:
    def test_worker_kill_mid_descent_survives(self):
        # Kill the helper at probe 1, which reaches every helper (one
        # still busy when a later probe starts skips it): the session
        # keeps going on the in-process primary and the crash is counted.
        cnf, obj = _staircase()
        with injected(FaultPlan(kill_member="neg-phase", kill_probe=1)):
            result = minimize_sum(cnf, obj, parallel=2)
        assert result.feasible and result.proven_optimal
        assert result.cost == 2
        service = result.portfolio["service"]
        assert service["counters"].get("service.worker_crashes", 0) >= 1

    def test_worker_kill_at_startup_downgrades_gracefully(self):
        cnf, obj = _staircase()
        with injected(FaultPlan(kill_member="neg-phase", kill_probe=0)):
            result = minimize_sum(cnf, obj, parallel=2)
        assert result.feasible and result.proven_optimal
        assert result.cost == 2

    def test_hung_worker_is_cancelled_not_waited_for(self):
        # Helper "neg-phase" sleeps 30 s at probe 1.  The probe ends when
        # the in-process primary answers, without waiting for the
        # helper, and close() reaps the sleeper.
        clauses = [[1, 2], [-1, 3], [-2, -3]]
        with injected(FaultPlan(hang_member="neg-phase", hang_probe=1,
                                hang_s=30.0)):
            service = SolverService(3, clauses, processes=2).start()
            try:
                start = time.perf_counter()
                outcome = service.probe()
                elapsed = time.perf_counter() - start
                # Forked as the probe started, and still asleep in it.
                [sleeper] = service.worker_pids()
            finally:
                service.close()
        assert outcome.verdict is SolveResult.SAT
        assert outcome.winner_name == "base"
        assert elapsed < 1.0  # nowhere near the 30 s hang
        with pytest.raises(ProcessLookupError):
            os.kill(sleeper, 0)  # terminated and reaped

    def test_wedged_helper_is_terminated_after_grace(self, monkeypatch):
        # A helper that still owes its reply _CANCEL_GRACE_S after its
        # probe ended is presumed wedged: the next probe terminates it,
        # counts the crash and, as it was the only helper, falls back.
        monkeypatch.setattr(service_module, "_CANCEL_GRACE_S", 0.2)
        clauses = [[1, 2], [-1, 3], [-2, -3]]
        with injected(FaultPlan(hang_member="neg-phase", hang_probe=1,
                                hang_s=30.0)):
            with SolverService(3, clauses, processes=2) as service:
                assert service.probe().verdict is SolveResult.SAT
                time.sleep(0.3)
                assert service.probe([1]).verdict is SolveResult.SAT
                assert service.worker_pids() == [None]
                summary = service.summary()
        assert summary["service"]["counters"][
            "service.worker_crashes"] == 1
        assert "died" in summary["service"]["fallback"]
        [helper] = summary["service"]["workers"][1:]
        assert "stopped responding" in helper["error"]

    def test_slow_worker_start_only_delays(self):
        cnf, obj = _staircase()
        with injected(FaultPlan(slow_member="neg-phase",
                                slow_start_s=0.2)):
            result = minimize_sum(cnf, obj, parallel=2)
        assert result.feasible and result.proven_optimal
        assert result.cost == 2


class TestCheckpointFaults:
    def test_write_failure_disables_writer_not_descent(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        cnf, obj = _staircase()
        with injected(FaultPlan(checkpoint_fail_at=2)):
            result = minimize_sum(cnf, obj, checkpoint_path=path)
        # The descent is unharmed ...
        assert result.feasible and result.proven_optimal
        assert result.cost == 2
        # ... the failure is visible, and writing stopped at the fault.
        assert result.checkpoint["write_failures"] == 1
        assert result.checkpoint["writes"] == 1  # only the header landed

    def test_failed_checkpoint_never_resumes_wrong(self, tmp_path):
        # A checkpoint truncated by write failures must still either
        # resume soundly or start fresh — never corrupt the result.
        path = str(tmp_path / "ck.jsonl")
        cnf, obj = _staircase()
        with injected(FaultPlan(checkpoint_fail_at=3)):
            minimize_sum(cnf, obj, checkpoint_path=path)
        cnf, obj = _staircase()
        resumed = minimize_sum(cnf, obj, checkpoint_path=path,
                               resume=True)
        assert resumed.feasible and resumed.proven_optimal
        assert resumed.cost == 2


@needs_fork
@pytest.mark.usefixtures("helpers_from_first_probe")
class TestLazyFaults:
    """Helper crashes during the CEGAR refinement loop.

    The running example's verification is UNSAT after one refinement
    round (probe 1: SAT on the relaxation → refine; probe 2: UNSAT).  A
    helper killed at probe 1 dies before the refinement, and the
    session must finish the loop without it.
    """

    @staticmethod
    def _running_example():
        from repro.casestudies.running_example import running_example

        study = running_example()
        return study.discretize(), study.schedule, study.r_t_min

    def test_worker_kill_mid_refinement_survives(self):
        # Kill the helper "neg-phase" at probe 1 (the relaxation solve,
        # which reaches every helper): the in-process primary keeps the
        # refinement clauses in its own solver, and the final UNSAT
        # verdict is unchanged.
        net, schedule, r_t = self._running_example()
        with injected(FaultPlan(kill_member="neg-phase", kill_probe=1)):
            result = verify_schedule(
                net, schedule, r_t, parallel=2, lazy=True
            )
        assert not result.satisfiable  # same verdict as the clean run
        assert result.metrics["lazy.rounds"] >= 1
        service = result.portfolio["service"]
        assert service["counters"].get("service.worker_crashes", 0) >= 1
        # The crash and the fallback reach the task's metrics too.
        assert result.metrics["service.worker_crashes"] == 1
        assert result.metrics["service.fallbacks"] == 1

    def test_service_death_mid_refinement_falls_back(self):
        # The only helper dies at probe 1 (the relaxation solve, which
        # reaches every helper); the session falls back to the primary
        # alone, which loads the round's refinement clauses as usual —
        # with no fault hook that could kill the parent too — and still
        # concludes UNSAT.
        from repro.encoding.lazy import LazyRefiner
        from repro.network.sections import VSSLayout
        from repro.opt import minimize_sum
        from repro.sat.portfolio import diversified_members
        from repro.tasks.common import build_encoding

        net, schedule, r_t = self._running_example()
        encoding = build_encoding(net, schedule, r_t, None, lazy=True)
        encoding.pin_layout(VSSLayout.pure_ttd(net))
        refiner = LazyRefiner(encoding)
        with injected(FaultPlan(kill_member="neg-phase", kill_probe=1)):
            result = minimize_sum(
                encoding.cnf, [], parallel=2,
                portfolio_members=diversified_members(2),
                refine=refiner.refine,
            )
        assert not result.feasible
        assert refiner.rounds == 1
        assert result.solve_calls == 2
        # The primary answered over the refined clause set: the clean
        # run's UNSAT, not the relaxation's SAT.
        service = result.portfolio["service"]
        assert "died" in service["fallback"]
        assert service["counters"]["service.worker_crashes"] == 1

    def test_worker_kill_mid_lazy_descent_survives(self):
        # The lazy generation descent re-solves every SAT probe until
        # its model is clean; killing the non-primary member partway
        # must not change the proven optimum.
        net, schedule, r_t = self._running_example()
        with injected(FaultPlan(kill_member="neg-phase", kill_probe=2)):
            result = generate_layout(
                net, schedule, r_t, parallel=2, lazy=True,
            )
        assert result.satisfiable and result.proven_optimal
        assert result.objective_value == 1  # the clean-run optimum
        service = result.portfolio["service"]
        assert service["counters"].get("service.worker_crashes", 0) >= 1


@needs_fork
class TestBatchFaults:
    def test_kill_every_attempt_recovers_in_parent(self):
        jobs = [BatchJob("doomed", _job_ok, args=(1,)),
                BatchJob("fine", _job_ok, args=(2,))]
        with injected(FaultPlan(batch_kill_job="doomed")):
            report = run_batch(jobs, processes=2)
        assert report.ok
        assert report.value_of("doomed") == 101
        assert "doomed" in report.recovered_jobs
        assert report.metrics.get("batch.pool_broken", 0) >= 1

    def test_kill_first_attempt_only_succeeds_on_retry(self):
        jobs = [BatchJob("flaky", _job_ok, args=(1,)),
                BatchJob("fine", _job_ok, args=(2,))]
        with injected(FaultPlan(batch_kill_job="flaky",
                                batch_kill_attempts=1)):
            report = run_batch(jobs, processes=2)
        assert report.ok
        assert report.value_of("flaky") == 101
        assert "flaky" in report.retried_jobs
        assert "flaky" not in report.recovered_jobs  # the retry won
        assert report.metrics.get("retry.attempts", 0) >= 1
