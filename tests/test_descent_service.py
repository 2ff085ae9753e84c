"""The probe sessions and their descent / lazy-loop integration.

Covers the learned-clause exchange on the core solver, the
:class:`repro.sat.service.SolverService` session protocol (delta
shipping, helper death, the fallback to the in-process primary, the
disagreement check on late helper replies), the agreement of the serial
and service descents on the paper's running example — down to the exact
probe trajectory that lets one loop serve both — and the trace evidence
that probes ship O(delta) clauses instead of O(|CNF|).
"""

from __future__ import annotations

import errno
import json
import os
import signal

import pytest

from repro.casestudies.complex_layout import complex_layout
from repro.casestudies.running_example import running_example
from repro.encoding.lazy import (
    DESCENT_LAZY_STRATEGY,
    LazyRefiner,
    solve_lazy_verification,
)
from repro.logic import CNF, VarPool
from repro.logic.totalizer import Totalizer
from repro.network.sections import VSSLayout
from repro.obs import trace
from repro.opt import minimize_sum
from repro.sat import PortfolioMember, SolverConfig
from repro.sat.portfolio import PortfolioDisagreementError, fork_available
from repro.sat.service import ServiceError, SolverService
from repro.sat.solver import Solver
from repro.sat.types import SolveResult
from repro.tasks import generate_layout, optimize_schedule
from repro.tasks.common import build_encoding

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


# --- helpers (module-level: fork-safe) -------------------------------------

class _FragileSolver(Solver):
    """Loads the CNF, then raises when the first probe's clause delta
    arrives — a helper that dies at its first probe.  The first probe
    reaches every helper; a helper still busy when a later probe starts
    skips that one, and one that receives a probe after it ended loads
    the delta without solving."""

    def __init__(self, config=None):
        super().__init__(config)
        self._loads = 0

    def add_clauses(self, clauses):
        self._loads += 1
        if self._loads > 1:
            raise RuntimeError("injected mid-session crash")
        return super().add_clauses(clauses)


def fragile_factory(config):
    return _FragileSolver(config)


class _LyingSolver(Solver):
    """Claims SAT without solving — simulates an unsound member."""

    def solve(self, assumptions=()):
        return SolveResult.SAT


def lying_factory(config):
    return _LyingSolver(config)


def _kill(pid):
    """SIGKILL a helper and wait until it has exited, leaving it for
    the service to reap."""
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)


def _descent_cnf():
    """4 selectable literals, at least two must be true (minimum cost 2)."""
    cnf = CNF(VarPool())
    lits = [cnf.pool.var(("x", i)) for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                cnf.add([lits[i], lits[j], lits[k]])
    return cnf, lits


SAT_CLAUSES = [[1, 2], [-1, 3], [-2, -3]]


def _pigeonhole(holes: int) -> tuple[int, list[list[int]]]:
    """PHP(holes + 1, holes): small, UNSAT, conflict-rich."""
    pigeons = holes + 1

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


@pytest.fixture
def no_fork(monkeypatch):
    """Every fork fails as on an exhausted process table."""
    def refuse():
        raise BlockingIOError(errno.EAGAIN, "injected: fork refused")

    monkeypatch.setattr(os, "fork", refuse)


def _lazy_encoding(study):
    """The study's lazily built verification encoding (pure TTD layout)."""
    net = study.discretize()
    encoding = build_encoding(net, study.schedule, study.r_t_min, None,
                              lazy=True)
    encoding.pin_layout(VSSLayout.pure_ttd(net))
    return encoding


# --- learned-clause exchange on the core solver ----------------------------

class TestLearnedExchange:
    def _descended_solver(self):
        """A solver that has probed a few bounds (so it learned clauses)."""
        cnf, lits = _descent_cnf()
        totalizer = Totalizer(cnf, lits)
        solver = cnf.to_solver()
        for bound in (3, 2, 1):
            solver.solve([totalizer.bound_literal(bound)])
        return cnf, solver

    def test_exported_clauses_are_entailed(self):
        cnf, solver = self._descended_solver()
        exported = solver.export_learned(max_lbd=16, max_len=32)
        assert exported, "descent produced no exportable clauses"
        for clause in exported[:24]:
            check = cnf.to_solver()
            # phi ∧ ¬C must be UNSAT for every exported clause C.
            verdict = check.solve([-lit for lit in clause])
            assert verdict is SolveResult.UNSAT, (
                f"exported clause {clause} is not implied by the formula"
            )

    def test_export_respects_caps_and_skip_keys(self):
        __, solver = self._descended_solver()
        first = solver.export_learned(max_lbd=16, max_len=32, limit=3)
        assert len(first) <= 3
        seen = {tuple(sorted(c)) for c in first}
        again = solver.export_learned(
            max_lbd=16, max_len=32, skip_keys=set(seen)
        )
        assert not seen.intersection(tuple(sorted(c)) for c in again)

    def test_import_preserves_verdicts(self):
        cnf, lits = _descent_cnf()
        totalizer = Totalizer(cnf, lits)
        donor = cnf.to_solver()
        for bound in (3, 2, 1):
            donor.solve([totalizer.bound_literal(bound)])
        receiver = cnf.to_solver()
        imported = receiver.import_clauses(
            donor.export_learned(max_lbd=16, max_len=32)
        )
        assert imported > 0
        for bound in (3, 2, 1, 0):
            fresh = cnf.to_solver()
            assumption = [totalizer.bound_literal(bound)]
            assert receiver.solve(assumption) is fresh.solve(assumption)


# --- the service itself ----------------------------------------------------

@needs_fork
class TestSolverService:
    def test_session_probes_and_delta_shipping(self):
        clauses = [list(c) for c in SAT_CLAUSES]
        service = SolverService(3, clauses, processes=2)
        with service:
            first = service.probe()
            assert first.verdict is SolveResult.SAT
            assert first.cold
            clauses.append([-1])
            second = service.probe([2])
            assert second.verdict is SolveResult.SAT
            assert not second.cold
            third = service.probe([1])
            assert third.verdict is SolveResult.UNSAT
            assert third.unsat_core == [1]
            counters = service.metrics.as_dict()
            # The initial CNF travelled via fork; only the appended
            # clause was ever shipped over the pipe.
            assert counters["service.clauses_loaded"] == 3
            assert counters["service.clauses_shipped"] == 1
            assert counters["service.probes"] == 3
            assert counters["service.worker_crashes"] == 0
            assert counters["service.warm_probe_wall_s"]["count"] == 2

    def test_probe_after_close_raises(self):
        service = SolverService(3, [list(c) for c in SAT_CLAUSES],
                                processes=2)
        service.start()
        service.close()
        with pytest.raises(ServiceError):
            service.probe()

    def test_sigkill_worker_mid_session(self):
        clauses = [list(c) for c in SAT_CLAUSES]
        service = SolverService(3, clauses, processes=3)
        with service:
            assert service.probe().verdict is SolveResult.SAT
            # worker_pids() lists the helpers, members 1 and 2; the
            # primary, member 0, solves in this process.
            victim = service.worker_pids()[1]
            assert victim is not None
            _kill(victim)
            clauses.append([3])
            after = service.probe()
            assert after.verdict is SolveResult.SAT
            assert 3 in (after.model or [])
            assert service.alive_count == 1
            counters = service.metrics.as_dict()
            assert counters["service.worker_crashes"] == 1
            workers = service.summary()["service"]["workers"]
            assert workers[0]["alive"] is True
            assert workers[2]["alive"] is False

    def test_all_workers_dead_falls_back_to_serial(self):
        clauses = [list(c) for c in SAT_CLAUSES]
        service = SolverService(3, clauses, processes=3)
        with service:
            service.probe()
            for pid in service.worker_pids():
                _kill(pid)
            clauses.append([-1])
            # The primary answers alone over every clause so far.
            after = service.probe()
            assert after.verdict is SolveResult.SAT
            assert -1 in after.model and 2 in after.model
            assert service.probe([1]).verdict is SolveResult.UNSAT
            summary = service.summary()
            assert summary["calls"] == 3
            assert "died" in summary["service"]["fallback"]
            assert summary["service"]["counters"][
                "service.worker_crashes"] == 2

    def test_lying_helper_raises_disagreement(self):
        num_vars, clauses = _pigeonhole(7)  # UNSAT, ~1 s for the primary
        members = [
            PortfolioMember("base", SolverConfig()),
            PortfolioMember("liar", SolverConfig(random_seed=3),
                            solver_factory=lying_factory),
        ]
        service = SolverService(num_vars, clauses, members=members)
        with pytest.raises(PortfolioDisagreementError):
            with service:
                # The liar answers SAT at once; the primary's UNSAT for
                # the same probe contradicts it.
                service.probe()
        assert service.worker_pids() == [None]  # reaped all the same


# --- descent-level crash handling and fallback -----------------------------

@needs_fork
class TestDescentCrashHandling:
    def test_one_worker_crash_keeps_descent_on_survivors(self):
        cnf, lits = _descent_cnf()
        members = [
            PortfolioMember("base", SolverConfig()),
            PortfolioMember("fragile", SolverConfig(random_seed=7),
                            solver_factory=fragile_factory),
            PortfolioMember("steady", SolverConfig(random_seed=11)),
        ]
        result = minimize_sum(cnf, lits, parallel=3,
                              portfolio_members=members)
        assert result.feasible and result.proven_optimal
        assert result.cost == 2
        service = result.portfolio["service"]
        assert service["counters"]["service.worker_crashes"] == 1
        assert "fallback" not in service
        [fragile] = [w for w in service["workers"]
                     if w["name"] == "fragile"]
        assert not fragile["alive"] and fragile["error"]

    def test_all_workers_crash_falls_back_to_serial(self):
        cnf, lits = _descent_cnf()
        members = [
            PortfolioMember("base", SolverConfig()),
            PortfolioMember("fragile-a", SolverConfig(random_seed=1),
                            solver_factory=fragile_factory),
            PortfolioMember("fragile-b", SolverConfig(random_seed=2),
                            solver_factory=fragile_factory),
        ]
        # Both helpers crash at their first probe; the descent finishes
        # on the in-process primary, member 0, whose factory runs in
        # this process.
        result = minimize_sum(cnf, lits, parallel=3,
                              portfolio_members=members)
        assert result.feasible and result.proven_optimal
        assert result.cost == 2
        assert result.portfolio["calls"] == result.solve_calls
        service = result.portfolio["service"]
        assert service["counters"]["service.worker_crashes"] == 2
        assert "died" in service["fallback"]

    def test_fallback_when_service_cannot_start(self, no_fork):
        cnf, lits = _descent_cnf()
        result = minimize_sum(cnf, lits, parallel=2)
        assert result.feasible and result.proven_optimal
        assert result.cost == 2
        assert "injected" in result.portfolio["service"]["fallback"]
        # The fallback's solver counters reach the descent's stats.
        assert result.solver_stats["solve_calls"] == result.solve_calls

    def test_lazy_fallback_when_service_cannot_start(self, no_fork):
        serial = solve_lazy_verification(
            _lazy_encoding(running_example())
        )
        fallback = solve_lazy_verification(
            _lazy_encoding(running_example()), parallel=2
        )
        assert fallback.satisfiable == serial.satisfiable
        assert fallback.solve_calls == serial.solve_calls
        assert fallback.refiner.rounds == serial.refiner.rounds
        assert "injected" in fallback.portfolio["service"]["fallback"]


# --- checkpoints record the primary's unit facts ---------------------------


def _checkpointed_generation(parallel: int, path: str, resume: bool = False):
    """Running Example generation's eager descent with a checkpoint."""
    study = running_example()
    encoding = build_encoding(study.discretize(), study.schedule,
                              study.r_t_min, None)
    return minimize_sum(encoding.cnf, encoding.border_objective(),
                        parallel=parallel, checkpoint_path=path,
                        resume=resume)


def _records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


@needs_fork
class TestServiceCheckpointUnits:
    def test_service_checkpoint_records_and_resumes_units(self, tmp_path):
        serial_path = str(tmp_path / "serial.jsonl")
        service_path = str(tmp_path / "service.jsonl")
        _checkpointed_generation(1, serial_path)
        _checkpointed_generation(2, service_path)
        serial_units = [r["lits"] for r in _records(serial_path)
                        if r["type"] == "units"]
        assert [len(lits) for lits in serial_units] == [10]
        # The service's primary walks the serial search, so its solver
        # proves the same unit facts at the same improvement.
        records = _records(service_path)
        assert [r["lits"] for r in records
                if r["type"] == "units"] == serial_units

        # Cut the service checkpoint after its units record, as a kill
        # would, and resume it on the service.
        cut = [r["type"] for r in records].index("units") + 1
        with open(service_path, "w", encoding="utf-8") as handle:
            for record in records[:cut]:
                handle.write(json.dumps(record) + "\n")
        trace.install(trace.Tracer())
        try:
            resumed = _checkpointed_generation(2, service_path, resume=True)
            imported = [r["args"]["count"] for r in trace.export_spans()
                        if r["name"] == "checkpoint.units_imported"]
        finally:
            trace.reset()
        assert imported == [10]
        assert resumed.resumed and resumed.proven_optimal
        assert resumed.cost == 1


# --- differential: serial vs service descents -----------------------------

@needs_fork
class TestServiceDifferential:
    def test_running_example_generation_agrees(self):
        study = running_example()
        net = study.discretize()
        serial = generate_layout(net, study.schedule, study.r_t_min)
        service = generate_layout(net, study.schedule, study.r_t_min,
                                  parallel=2)
        assert service.satisfiable == serial.satisfiable
        assert service.objective_value == serial.objective_value
        assert service.proven_optimal == serial.proven_optimal
        assert serial.portfolio is None
        counters = service.portfolio["service"]["counters"]
        assert counters["service.probes"] == service.solve_calls
        # record_descent merged the session counters into task metrics.
        assert service.metrics["service.probes"] == counters[
            "service.probes"
        ]

    def test_running_example_optimization_agrees(self):
        study = running_example()
        net = study.discretize()
        serial = optimize_schedule(net, study.schedule, study.r_t_min)
        service = optimize_schedule(net, study.schedule, study.r_t_min,
                                    parallel=2)
        assert service.satisfiable == serial.satisfiable
        assert service.objective_value == serial.objective_value
        assert service.proven_optimal == serial.proven_optimal

    def test_persistent_generation_is_reproducible(self, micro_net,
                                                   crossing_schedule):
        first = generate_layout(micro_net, crossing_schedule, 1.0,
                                parallel=2)
        second = generate_layout(micro_net, crossing_schedule, 1.0,
                                 parallel=2)
        assert first.satisfiable == second.satisfiable
        assert first.objective_value == second.objective_value
        assert first.num_sections == second.num_sections
        assert first.time_steps == second.time_steps


# --- trajectory parity: one loop serves the serial and service paths ------


def _generation_trajectory(parallel: int, lazy: bool):
    """Running Example generation's linear descent, with its improvements."""
    study = running_example()
    encoding = build_encoding(study.discretize(), study.schedule,
                              study.r_t_min, None, lazy=lazy)
    refine = (
        LazyRefiner(encoding, strategy=DESCENT_LAZY_STRATEGY).refine
        if lazy else None
    )
    costs: list[int] = []
    result = minimize_sum(encoding.cnf, encoding.border_objective(),
                          parallel=parallel, refine=refine,
                          on_improvement=costs.append)
    return costs, result


@needs_fork
class TestTrajectoryParity:
    """The service's primary member walks the serial trajectory exactly:
    same improvements, same probe count, same refinement rounds."""

    @pytest.mark.parametrize("lazy, probes, first", [
        (False, 9, 8),
        (True, 7, 4),
    ])
    def test_generation_descent(self, lazy, probes, first):
        serial_costs, serial = _generation_trajectory(1, lazy)
        raced_costs, raced = _generation_trajectory(2, lazy)
        assert serial_costs[0] == first and serial_costs[-1] == 1
        assert serial.solve_calls == probes
        assert raced_costs == serial_costs
        assert raced.solve_calls == serial.solve_calls
        assert raced.portfolio["calls"] == raced.solve_calls
        assert "fallback" not in raced.portfolio["service"]

    @pytest.mark.parametrize("study, clauses", [
        (running_example, 3348),
        (complex_layout, 8297),
    ])
    def test_lazy_verification(self, study, clauses):
        outcomes = []
        for parallel in (1, 2):
            encoding = _lazy_encoding(study())
            outcome = solve_lazy_verification(encoding, parallel=parallel)
            outcomes.append((outcome.satisfiable, outcome.solve_calls,
                             outcome.refiner.rounds,
                             encoding.cnf.num_clauses))
        assert outcomes[0] == outcomes[1] == (False, 2, 1, clauses)


# --- trace round-trip: probes ship O(delta), not O(|CNF|) ------------------

@needs_fork
class TestClausesShippedTrace:
    def test_probe_deltas_in_trace_roundtrip(self, tmp_path):
        trace.install(trace.Tracer())
        try:
            cnf, lits = _descent_cnf()
            base_clauses = cnf.num_clauses
            result = minimize_sum(cnf, lits, parallel=2)
            records = trace.export_spans()
        finally:
            trace.reset()
        assert result.proven_optimal and result.cost == 2

        path = tmp_path / "descent.jsonl"
        trace.write_jsonl(records, str(path))
        records = trace.read_jsonl(str(path))

        shipped = [r for r in records
                   if r["kind"] == "counter"
                   and r["name"] == "service.clauses_shipped"]
        assert len(shipped) == result.solve_calls
        first, rest = shipped[0], shipped[1:]
        # Cold probe: the whole CNF travelled via fork, nothing piped.
        assert first["args"]["shipped"] == 0
        assert first["args"]["skipped"] == base_clauses
        # Warm probes: only the totalizer layers built after session
        # start are ever piped; the base CNF is never re-shipped.
        total_delta = sum(r["args"]["shipped"] for r in rest)
        assert total_delta == cnf.num_clauses - base_clauses
        for record in rest:
            assert record["args"]["skipped"] >= base_clauses
            assert record["args"]["shipped"] < cnf.num_clauses

        probe_spans = [r for r in records
                       if r["kind"] == "span"
                       and r["name"] == "service.probe"]
        assert probe_spans, "worker probe spans were not merged back"
