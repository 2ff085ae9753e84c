"""Progress/event delivery under the parallel solve paths (satellite).

Covers ``Solver.on_progress`` snapshots and event-stream delivery when a
solver-service probe is in flight — including the awkward case of a
wall deadline expiring mid-solve, where the callbacks must keep arriving
right up to the cooperative give-up.
"""

from __future__ import annotations

import pytest

from repro.obs import events
from repro.sat import Solver, SolveResult, SolverConfig
from repro.sat import service as service_module
from repro.sat.portfolio import fork_available
from repro.sat.service import SolverService

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


@pytest.fixture(autouse=True)
def _clean_events():
    events.reset()
    yield
    events.reset()


def _php(holes: int) -> tuple[int, list[list[int]]]:
    """Pigeonhole PHP(holes+1, holes): conflict-rich, hard UNSAT."""
    pigeons = holes + 1

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


class TestSerialDeadlineDelivery:
    def test_progress_and_deadline_events_while_budget_expires(self):
        """Snapshots keep flowing until the wall deadline fires."""
        log = events.install(events.EventLog())
        snapshots = []
        num_vars, clauses = _php(9)  # far beyond a 0.15 s budget
        solver = Solver(SolverConfig(wall_deadline_s=0.15))
        solver.on_progress(snapshots.append, interval_conflicts=50)
        solver.on_event(events.emit)
        solver.ensure_var(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() is SolveResult.UNKNOWN
        assert solver.stats.deadline_hits >= 1
        assert snapshots, "no progress snapshot before the deadline"
        assert all("conflicts" in snap for snap in snapshots)
        kinds = log.counts()
        assert kinds.get("deadline.hit", 0) >= 1
        # The deadline event carries the conflict count at expiry.
        hit = [r for r in log.export() if r["kind"] == "deadline.hit"][-1]
        assert hit["args"]["conflicts"] > 0


@needs_fork
class TestServiceDelivery:
    def test_probe_events_reach_the_parent(self, monkeypatch):
        monkeypatch.setattr(service_module, "_PROGRESS_EVENT_CHECKS", 1)
        log = events.install(events.EventLog())
        num_vars, clauses = _php(5)
        service = SolverService(num_vars, clauses, processes=2)
        with service:
            outcome = service.probe()
        assert outcome.verdict is SolveResult.UNSAT
        kinds = log.counts()
        assert kinds.get("probe.done", 0) == 1
        assert kinds.get("deadline.hit", 0) == 0
        done = [r for r in log.export() if r["kind"] == "probe.done"][0]
        assert done["args"]["verdict"] == SolveResult.UNSAT.value

    def test_probe_deadline_expires_mid_solve(self, monkeypatch):
        monkeypatch.setattr(service_module, "_PROGRESS_EVENT_CHECKS", 1)
        log = events.install(events.EventLog())
        num_vars, clauses = _php(9)
        service = SolverService(num_vars, clauses, processes=2)
        with service:
            outcome = service.probe(timeout_s=0.25)
        assert outcome.verdict is SolveResult.UNKNOWN
        assert outcome.timed_out
        merged = log.export()
        kinds = log.counts()
        # The parent stamps the probe-scoped deadline event ...
        hits = [r for r in merged if r["kind"] == "deadline.hit"
                and r["args"].get("scope") == "probe"]
        assert hits and hits[0]["args"]["probe"] == 1
        assert kinds.get("probe.done", 0) == 1
        # ... while the helper's progress events arrive from its own
        # per-member child log with its reply — which the probe does not
        # wait for: close() reads it — merged onto one monotone timeline.
        progress = [r for r in merged if r["kind"] == "progress"]
        assert progress, "no worker progress during the timed-out probe"
        assert any(
            r["source"].startswith("service:") for r in progress
        )
        seqs = [r["seq"] for r in merged]
        assert seqs == sorted(seqs)

    @pytest.mark.usefixtures("helpers_from_first_probe")
    def test_no_events_shipped_when_stream_disabled(self):
        num_vars, clauses = _php(4)
        service = SolverService(num_vars, clauses, processes=2)
        with service:
            outcome = service.probe()
        assert outcome.verdict is SolveResult.UNSAT
        assert events.export_events() == []
