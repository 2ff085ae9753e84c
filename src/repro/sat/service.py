"""Probe sessions for bound-probing descents and refinement loops.

The optimisation descents in :mod:`repro.opt` and the lazy verification
loop in :mod:`repro.encoding.lazy` solve one growing clause set many
times under changing assumptions.  Both run on a *probe session* with
one contract: the clause list is held by reference, clauses appended
since the last probe are loaded as the next probe's delta, and
``probe(assumptions, timeout_s)`` answers with a :class:`ProbeOutcome`;
``summary()``, ``solver_stats()`` and ``close()`` complete it.
:func:`open_session` picks the session for a ``parallel`` setting:

* :class:`SerialSession` (``parallel <= 1``) keeps one incremental
  :class:`~repro.sat.Solver` in process — the serial search, with its
  learned clauses, activities and phases kept across probes.
* :class:`SolverService` (``parallel > 1``) forks one long-lived worker
  per :class:`~repro.sat.portfolio.PortfolioMember` **once per
  session**.  The initial CNF travels to the workers for free via
  ``fork`` and each probe ships only the assumption literals plus the
  clause *delta* (for example newly built totalizer layers) over a pipe
  — O(delta) traffic instead of O(|CNF|) per probe
  (``service.clauses_shipped`` vs ``service.clauses_skipped``).  Deltas,
  shared clauses, and harvested exports travel as flat ``array('i')``
  buffers (:mod:`repro.sat.wire`), one pickled blob per probe instead of
  one object per literal.  Between probes the parent harvests low-LBD
  clauses from the probe's finishers (winner first) via
  :meth:`Solver.export_learned`, dedups them by sorted-literal key, and
  broadcasts them — bounded by a per-probe budget — to the other
  members via :meth:`Solver.import_clauses` (``share.*`` counters).

An UNSAT answer is accepted from whichever member proves it first, while
SAT *models* are only taken from the primary (lowest-index live) member,
which also never imports foreign clauses — its search is exactly the
serial incremental descent, so the reported models stay a pure function
of the formula.  Losing members are cancelled *cooperatively*: a
progress hook raises inside the search, the worker answers "cancelled",
and its solver (state intact) is ready for the next probe.

Workers that crash or stop responding are terminated and recorded
(``service.worker_crashes``); the survivors keep the session alive.
This module alone decides how a probe falls back: when the service
cannot fork, loses its last worker, or ends a race UNKNOWN with no
deadline in play, it retires its workers and answers that probe and
every later one on an in-process :class:`SerialSession` built from
member 0's configuration with the default :class:`~repro.sat.Solver`
factory (a custom factory may be what crashed).  The fallback runs no
worker fault hooks, loads every clause appended so far, and is recorded
as ``summary()["service"]["fallback"]``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait

from repro.obs import events as obs_events
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.sat.portfolio import (
    PortfolioDisagreementError,
    PortfolioMember,
    WorkerReport,
    diversified_members,
    fork_available,
    member_config_dict,
)
from repro.sat.solver import Solver
from repro.sat.types import SolveResult, SolverConfig
from repro.sat.wire import pack_clauses, unpack_clauses
from repro.testing import faults

#: Poll interval while waiting for worker replies (seconds).
_POLL_S = 0.05

#: Conflicts between cancellation checks inside a worker's search.  Small
#: enough that a cancelled worker answers within milliseconds on these
#: encodings, large enough to be invisible in the solve profile.
_CANCEL_CHECK_CONFLICTS = 128

#: How long a cancelled worker may take to flush its reply before it is
#: presumed wedged and terminated (seconds).
_CANCEL_GRACE_S = 10.0

#: Cancellation checks between progress events a worker emits while the
#: event stream is enabled (128 conflicts per check; tests shrink this).
_PROGRESS_EVENT_CHECKS = 16


#: Learned-clause exchange between probes: only clauses with LBD at or
#: below this are exported ...
_SHARE_MAX_LBD = 4
#: ... and at most this long ...
_SHARE_MAX_LEN = 8
#: ... and at most this many are broadcast after one probe.
_SHARE_BUDGET = 128


class ServiceError(RuntimeError):
    """A probe session was used outside its start/close lifetime."""


@dataclass
class ProbeOutcome:
    """Answer of one ``probe`` call on a probe session."""

    verdict: SolveResult
    model: list[int] | None = None
    unsat_core: list[int] = field(default_factory=list)
    winner: int | None = None
    winner_name: str = ""
    wall_time_s: float = 0.0
    cold: bool = False
    timed_out: bool = False
    #: Per-probe solver counters summed over every member that replied.
    stats: dict = field(default_factory=dict)


class _ProbeCancelled(Exception):
    """Raised inside a worker's search when the parent cancels the probe."""


def _service_worker(index, member, num_vars, clauses, conn, cancel,
                    child_trace, child_events=False):
    """Worker entry point: build one incremental solver, serve probes.

    The CNF snapshot arrives through ``fork`` (no pickling); afterwards
    the pipe carries only probe commands (assumptions + clause deltas +
    shared clauses) and one reply per probe.  The solver persists for
    the whole session, keeping its learned clauses across probes.
    """
    if child_trace:
        trace.install(trace.fork_child(tid=f"service:{member.name}"))
    if child_events:
        obs_events.install(
            obs_events.fork_child(source=f"service:{member.name}")
        )
    try:
        faults.on_worker_start(member.name)
        factory = member.solver_factory or Solver
        solver = factory(member.config)
        if child_events:
            solver.on_event(
                lambda kind, **args: obs_events.emit(
                    kind, member=member.name, **args
                )
            )
        solver.ensure_var(max(num_vars, 1))
        with trace.span("service.load", member=member.name,
                        clauses=len(clauses)):
            solver.add_clauses(clauses)
    except BaseException as exc:  # noqa: BLE001 — report, never hang parent
        try:
            conn.send({"index": index, "probe": 0,
                       "error": f"{type(exc).__name__}: {exc}",
                       "traceback": traceback_module.format_exc()})
        except Exception:
            pass
        return

    exported_keys: set[tuple[int, ...]] = set()
    checks_seen = 0
    parent_pid = os.getppid()

    def check_cancel(snapshot) -> None:
        if cancel.is_set():
            raise _ProbeCancelled
        if os.getppid() != parent_pid:
            # The parent died mid-probe (e.g. a gateway pool worker was
            # SIGKILLed): the pipe will never be read again, so exit
            # instead of solving for nobody and leaking a process.
            os._exit(1)
        if child_events:
            # The cancel hook doubles as the worker's progress feed: one
            # event every _PROGRESS_EVENT_CHECKS checks (the hook itself
            # fires every _CANCEL_CHECK_CONFLICTS conflicts).
            nonlocal checks_seen
            checks_seen += 1
            if checks_seen % _PROGRESS_EVENT_CHECKS == 0:
                obs_events.emit(
                    "progress", member=member.name, **snapshot
                )

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "quit":
            return
        __, probe_id, assumptions, delta_buf, imports_buf, timeout_s = msg
        start = time.perf_counter()
        reply: dict = {"index": index, "probe": probe_id}
        try:
            faults.on_probe(member.name, probe_id)
            before = solver.stats.snapshot()
            # Deltas and shared clauses arrive as one flat int buffer
            # (:mod:`repro.sat.wire`) — one pickled blob per probe
            # instead of one object per literal.
            delta = unpack_clauses(delta_buf)
            solver.add_clauses(delta)
            imported = solver.import_clauses(unpack_clauses(imports_buf))
            # The parent ships the probe's *remaining* wall budget; the
            # solver then gives up cooperatively even on searches that
            # never conflict (where the cancel hook below cannot fire).
            solver.config.wall_deadline_s = timeout_s
            solver.on_progress(check_cancel, _CANCEL_CHECK_CONFLICTS)
            cancelled = False
            with trace.span("service.probe", member=member.name,
                            probe=probe_id, delta=len(delta)) as span:
                try:
                    verdict = solver.solve(list(assumptions))
                except _ProbeCancelled:
                    cancelled = True
                    verdict = SolveResult.UNKNOWN
                span.add(verdict=verdict.value, cancelled=cancelled)
            solver.on_progress(None)
            learned = solver.export_learned(
                _SHARE_MAX_LBD, _SHARE_MAX_LEN, limit=_SHARE_BUDGET,
                skip_keys=exported_keys,
            )
            reply.update(
                verdict=verdict.value,
                cancelled=cancelled,
                model=(solver.model()
                       if verdict is SolveResult.SAT else None),
                core=(solver.unsat_core()
                      if verdict is SolveResult.UNSAT else []),
                stats=solver.stats.delta(before).as_dict(),
                kernel=solver.kernel,
                time=time.perf_counter() - start,
                imported=imported,
                learned=pack_clauses(learned),
            )
        except BaseException as exc:  # noqa: BLE001
            reply.update(error=f"{type(exc).__name__}: {exc}",
                         traceback=traceback_module.format_exc())
        if child_trace:
            tracer = trace.get_tracer()
            if tracer is not None:
                reply["spans"] = tracer.export()
                tracer.spans.clear()
        if child_events:
            reply["events"] = obs_events.drain_events()
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


class SerialSession:
    """One in-process incremental :class:`Solver` behind the probe contract.

    ``clauses`` is held *by reference*: :meth:`start` loads it, and each
    :meth:`probe` first loads the clauses appended since the last load
    (totalizer layers, lazy refinements) in one
    :meth:`Solver.add_clauses` call.  The solver keeps its learned
    clauses, activities and phases across probes: this is the serial
    incremental search.  ``config`` is copied, because every probe
    retunes the copy's wall deadline.
    """

    def __init__(
        self,
        num_vars: int,
        clauses: list[list[int]],
        config: SolverConfig | None = None,
    ):
        self._num_vars = num_vars
        self._clauses = clauses
        self._config = dataclasses.replace(config or SolverConfig())
        self._own_deadline_s = self._config.wall_deadline_s
        self._loaded = 0
        self._probes = 0
        self._open = False
        #: The solver answering the probes (set by :meth:`start`).
        self.solver: Solver | None = None

    def start(self) -> "SerialSession":
        """Build the solver and load the current clauses."""
        if self.solver is not None:
            raise ServiceError("session already started")
        solver = Solver(self._config)
        progress = obs_events.progress_callback()
        if progress is not None:
            solver.on_progress(progress)
        if obs_events.enabled():
            solver.on_event(obs_events.emit)
        solver.ensure_var(max(self._num_vars, 1))
        self.solver = solver
        self._open = True
        self._load()
        return self

    def close(self) -> None:
        """End the session; the solver stays readable."""
        self._open = False

    def summary(self) -> None:
        """A serial session races nothing, so it has no portfolio summary."""
        return None

    def solver_stats(self) -> dict:
        """The solver's lifetime counters."""
        return self.solver.stats.as_dict()

    def probe(
        self,
        assumptions: list[int] | tuple[int, ...] = (),
        timeout_s: float | None = None,
    ) -> ProbeOutcome:
        """Load the clause delta, then solve once under ``assumptions``.

        ``timeout_s`` caps this solve's wall deadline (together with the
        configured one); an UNKNOWN that hit it is ``timed_out``.
        """
        if not self._open:
            raise ServiceError("session not started")
        start = time.perf_counter()
        self._probes += 1
        self._load()
        solver = self.solver
        deadline = self._own_deadline_s
        if timeout_s is not None:
            deadline = (
                timeout_s if deadline is None else min(deadline, timeout_s)
            )
        solver.config.wall_deadline_s = deadline
        verdict = solver.solve(list(assumptions))
        return ProbeOutcome(
            verdict=verdict,
            model=solver.model() if verdict is SolveResult.SAT else None,
            unsat_core=(
                solver.unsat_core() if verdict is SolveResult.UNSAT else []
            ),
            wall_time_s=time.perf_counter() - start,
            cold=self._probes == 1,
            timed_out=(
                verdict is SolveResult.UNKNOWN
                and solver.last_stats.deadline_hits > 0
            ),
            stats=solver.last_stats.as_dict(),
        )

    def _load(self) -> None:
        """Load the clauses appended since the last load."""
        count = len(self._clauses) - self._loaded
        if count:
            with trace.span("load", clauses=count):
                self.solver.add_clauses(self._clauses[self._loaded:])
            self._loaded = len(self._clauses)


class SolverService:
    """A resident portfolio of incremental solvers for one clause set.

    ``clauses`` is held *by reference*: clauses appended by the caller
    after :meth:`start` (e.g. totalizer layers built between probes) are
    shipped automatically as the next probe's delta.

    Typical usage::

        service = SolverService(cnf.num_vars, cnf.clauses, processes=4)
        service.start()
        try:
            first = service.probe()                  # cold probe
            ...build totalizer into cnf...
            probe = service.probe([bound_lit])       # ships only the delta
        finally:
            service.close()
    """

    #: Probes run in worker processes: no in-process solver to read
    #: (the probe-session counterpart of :attr:`SerialSession.solver`).
    solver = None

    def __init__(
        self,
        num_vars: int,
        clauses: list[list[int]],
        members: list[PortfolioMember] | None = None,
        processes: int | None = None,
        cancel_grace_s: float | None = None,
    ):
        if processes is None:
            processes = len(members) if members else 2
        if members is None:
            members = diversified_members(max(processes, 1))
        if not members:
            raise ValueError("empty portfolio")
        self._members = list(members[: max(processes, 1)])
        self._num_vars = num_vars
        self._clauses = clauses
        self._cancel_grace_s = (
            cancel_grace_s if cancel_grace_s is not None else _CANCEL_GRACE_S
        )
        self.metrics = MetricsRegistry()
        self.reports = [
            WorkerReport(name=m.name, config=member_config_dict(m))
            for m in self._members
        ]
        self._procs: list = []
        self._conns: list = []
        self._cancels: list = []
        self._alive: list[bool] = []
        self._pending_imports: list[list[list[int]]] = []
        self._seen_shared: set[tuple[int, ...]] = set()
        self._shipped = 0
        self._probe_id = 0
        self._started = False
        self._fallback: SerialSession | None = None
        self._fallback_reason = ""
        self._stats: dict = {}
        self._winners: dict[str, int] = {}
        self._wall = 0.0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "SolverService":
        """Fork the resident workers; the current clauses travel free.

        A platform without ``fork``, or a fork that fails, starts the
        serial fallback instead (see module docstring).
        """
        if self._started:
            raise ServiceError("service already started")
        self._started = True
        self.metrics.inc("service.sessions")
        self.metrics.counter("service.worker_crashes")  # stable key
        if not fork_available():
            self._fall_back("platform lacks the fork start method")
            return self
        ctx = multiprocessing.get_context("fork")
        self._shipped = len(self._clauses)
        child_trace = trace.enabled()
        child_events = obs_events.enabled()
        try:
            for i, member in enumerate(self._members):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                self._conns.append(parent_conn)
                cancel = ctx.Event()
                proc = ctx.Process(
                    target=_service_worker,
                    args=(i, member, self._num_vars, self._clauses,
                          child_conn, cancel, child_trace, child_events),
                    daemon=True,
                )
                try:
                    proc.start()
                finally:
                    child_conn.close()
                self._procs.append(proc)
                self._cancels.append(cancel)
                self._alive.append(True)
                self._pending_imports.append([])
        except OSError as exc:
            self._fall_back(f"could not fork a worker: {exc}")
            return self
        self.metrics.set("service.workers", len(self._members))
        self.metrics.inc("service.clauses_loaded", self._shipped)
        trace.event("service.start", workers=len(self._members),
                    clauses=self._shipped)
        return self

    def close(self) -> None:
        """Shut the workers (or the serial fallback) down (idempotent)."""
        if not self._started:
            return
        self._shutdown_workers()
        if self._fallback is not None:
            self._fallback.close()
        self._started = False

    def __enter__(self) -> "SolverService":
        return self.start() if not self._started else self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- introspection -------------------------------------------------

    @property
    def alive_count(self) -> int:
        """Number of workers still serving probes."""
        return sum(self._alive)

    def worker_pids(self) -> list[int | None]:
        """PIDs of the worker processes (None for dead workers)."""
        return [proc.pid if alive else None
                for proc, alive in zip(self._procs, self._alive)]

    def summary(self) -> dict:
        """The session's portfolio summary (for results and telemetry).

        ``calls``, ``winners`` and ``wall_time_s`` cover every probe;
        ``service`` holds the session counters, the per-worker reports
        and, after a fallback, its reason under ``fallback``.
        """
        service = {
            "counters": self.metrics.as_dict(),
            "workers": [
                {"name": r.name, "error": r.error, "alive": alive,
                 "kernel": r.kernel}
                for r, alive in zip(self.reports, self._alive)
            ],
        }
        if self._fallback_reason:
            service["fallback"] = self._fallback_reason
        return {
            "processes": len(self._members),
            "calls": self._probe_id,
            "winners": dict(self._winners),
            "wall_time_s": self._wall,
            "service": service,
        }

    def solver_stats(self) -> dict:
        """Solver counters summed over every probe's replies."""
        return dict(self._stats)

    # -- probing -------------------------------------------------------

    def probe(
        self,
        assumptions: list[int] | tuple[int, ...] = (),
        timeout_s: float | None = None,
    ) -> ProbeOutcome:
        """Race one incremental solve over the resident workers.

        Ships only the clauses appended since the last probe plus the
        assumption literals.  When no worker is left, or the race ends
        UNKNOWN without ``timeout_s``, the probe is answered by the
        serial fallback (see module docstring).  Raises
        :class:`PortfolioDisagreementError` when two members contradict
        each other.
        """
        if not self._started:
            raise ServiceError("service not started")
        start = time.perf_counter()
        self._probe_id += 1
        self.metrics.inc("service.probes")
        outcome = None
        if self._fallback is None:
            outcome = self._race(tuple(assumptions), timeout_s)
            if outcome is None:
                self._fall_back("all service workers have died")
            elif outcome.verdict is SolveResult.UNKNOWN and timeout_s is None:
                self._fall_back("the race ended UNKNOWN with no deadline")
                outcome = None
        if outcome is None:
            if timeout_s is not None:  # what the failed race left over
                timeout_s = max(timeout_s - (time.perf_counter() - start),
                                0.0)
            outcome = self._fallback.probe(assumptions, timeout_s)
            self._absorb(outcome.stats)
        self._wall += time.perf_counter() - start
        if outcome.winner_name:
            self._winners[outcome.winner_name] = (
                self._winners.get(outcome.winner_name, 0) + 1
            )
        return outcome

    def _race(self, assumptions, timeout_s) -> ProbeOutcome | None:
        """Race the probe over the live workers; None if none answers."""
        alive = [i for i, ok in enumerate(self._alive) if ok]
        if not alive:
            return None
        start = time.perf_counter()
        probe_id = self._probe_id
        cold = probe_id == 1

        prev = self._shipped
        delta = self._clauses[prev:]
        self._shipped = len(self._clauses)
        met = self.metrics
        met.inc("service.clauses_shipped", len(delta))
        met.inc("service.clauses_skipped", prev)
        trace.counter("service.clauses_shipped",
                      shipped=len(delta), skipped=prev)

        sent: set[int] = set()
        for i in alive:
            imports = self._pending_imports[i]
            self._pending_imports[i] = []
            try:
                self._conns[i].send(
                    ("probe", probe_id, assumptions,
                     pack_clauses(delta), pack_clauses(imports), timeout_s)
                )
                sent.add(i)
            except (BrokenPipeError, OSError):
                self._mark_dead(i, "worker pipe closed before the probe")
        if not sent:
            return None

        with trace.span("service.race", probe=probe_id,
                        workers=len(sent)) as race_span:
            outcome = self._collect(probe_id, sent, timeout_s, start,
                                    cold)
            if outcome is None:
                return None
            race_span.add(verdict=outcome.verdict.name,
                          winner=outcome.winner_name)
        met.observe("service.probe_wall_s", outcome.wall_time_s)
        met.observe(
            "service.cold_probe_wall_s" if cold
            else "service.warm_probe_wall_s",
            outcome.wall_time_s,
        )
        if outcome.winner_name:
            met.inc(f"service.wins.{outcome.winner_name}")
        if (
            timeout_s is not None
            and outcome.verdict is SolveResult.UNKNOWN
            and not outcome.timed_out
        ):
            # Workers hit their own wall deadline before the parent's
            # cancel fired: same meaning, same flag.
            outcome.timed_out = True
        if outcome.timed_out:
            met.inc("service.probe_timeouts")
            trace.event("deadline.probe_timeout", probe=probe_id,
                        budget_s=timeout_s)
            obs_events.emit("deadline.hit", scope="probe", probe=probe_id,
                            budget_s=timeout_s)
        obs_events.emit("probe.done", probe=probe_id,
                        verdict=outcome.verdict.value,
                        winner=outcome.winner_name,
                        wall_s=outcome.wall_time_s)
        return outcome

    # -- internals -----------------------------------------------------

    def _fall_back(self, reason: str) -> None:
        """Retire the workers; later probes go to an in-process solver."""
        self._shutdown_workers()
        self._fallback_reason = reason
        trace.event("service.fallback", error=reason)
        self._fallback = SerialSession(
            self._num_vars, self._clauses, self._members[0].config
        ).start()

    def _shutdown_workers(self) -> None:
        for conn, alive in zip(self._conns, self._alive):
            if alive:
                try:
                    conn.send(("quit",))
                except (BrokenPipeError, OSError):
                    pass
        for proc in self._procs:
            proc.join(timeout=1.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._alive = [False] * len(self._alive)

    def _absorb(self, stats: dict) -> None:
        for key, value in stats.items():
            if isinstance(value, (int, float)):
                self._stats[key] = self._stats.get(key, 0) + value

    def _mark_dead(self, index: int, error: str, tb: str = "") -> None:
        if not self._alive[index]:
            return
        self._alive[index] = False
        report = self.reports[index]
        report.error = report.error or error
        report.traceback = report.traceback or tb
        self.metrics.inc("service.worker_crashes")
        trace.event("service.worker_crash",
                    member=self._members[index].name, error=error)
        obs_events.emit("worker.crash",
                        member=self._members[index].name, error=error)
        proc = self._procs[index]
        if proc.is_alive():
            proc.terminate()
        try:
            self._conns[index].close()
        except OSError:
            pass

    def _collect(self, probe_id, pending, timeout_s, start, cold):
        """Gather one reply per probed worker and pick the winner."""
        primary = min(pending)
        replies: dict[int, dict] = {}
        winner: int | None = None
        sat_candidate: int | None = None
        timed_out = False
        cancelled: set[int] = set()
        deadline = start + timeout_s if timeout_s is not None else None
        grace_deadline: float | None = None

        def cancel(indices) -> None:
            nonlocal grace_deadline
            requested = False
            for i in indices:
                if i in pending and i not in cancelled:
                    self._cancels[i].set()
                    cancelled.add(i)
                    requested = True
            if requested:
                grace_deadline = time.perf_counter() + self._cancel_grace_s

        def handle_reply(i, msg) -> None:
            nonlocal winner, sat_candidate
            replies[i] = msg
            pending.discard(i)
            trace.merge(msg.get("spans"))
            obs_events.merge(msg.get("events"))
            report = self.reports[i]
            report.finished = True
            report.verdict = msg["verdict"]
            report.solve_time_s += msg.get("time", 0.0)
            report.stats = msg.get("stats", {})
            kernel = msg.get("kernel", "")
            if kernel and kernel != report.kernel:
                report.kernel = kernel
                self.metrics.inc(f"service.kernel.{kernel}")
            if msg.get("cancelled"):
                return
            definitive = {
                m["verdict"] for m in replies.values()
                if not m.get("cancelled")
                and m["verdict"] != SolveResult.UNKNOWN.value
            }
            if len(definitive) > 1:
                raise PortfolioDisagreementError(
                    "service members disagree on the verdict: "
                    + ", ".join(
                        f"{self._members[j].name}={m['verdict']}"
                        for j, m in sorted(replies.items())
                        if not m.get("cancelled")
                    )
                )
            if msg["verdict"] == SolveResult.UNSAT.value:
                if winner is None:
                    winner = i
                cancel(set(pending))
            elif msg["verdict"] == SolveResult.SAT.value:
                if i == primary:
                    if winner is None:
                        winner = i
                    cancel(set(pending))
                else:
                    # Remember the witness, free the other helpers, let
                    # the primary finish so the model does not depend on
                    # scheduling.
                    if sat_candidate is None or i < sat_candidate:
                        sat_candidate = i
                    cancel({j for j in pending if j != primary})

        while pending:
            conns = {self._conns[i]: i for i in pending}
            sentinels = {self._procs[i].sentinel: i for i in pending}
            ready = connection_wait(
                list(conns) + list(sentinels), timeout=_POLL_S
            )
            # Replies first: a worker that died right after flushing its
            # answer must not be mislabelled as crashed.
            for obj in ready:
                i = conns.get(obj)
                if i is None or i not in pending:
                    continue
                try:
                    msg = obj.recv()
                except (EOFError, OSError):
                    self._mark_dead(i, "worker connection closed")
                    pending.discard(i)
                    continue
                if msg.get("probe") != probe_id:
                    continue  # stale flush from an earlier probe
                if "error" in msg:
                    obs_events.merge(msg.get("events"))
                    self._mark_dead(i, msg["error"],
                                    msg.get("traceback", ""))
                    pending.discard(i)
                    continue
                handle_reply(i, msg)
            for obj in ready:
                i = sentinels.get(obj)
                if i is None or i not in pending:
                    continue
                try:
                    if self._conns[i].poll(0):
                        continue  # a reply is queued; read it next round
                except OSError:
                    pass
                self._mark_dead(
                    i,
                    f"worker died with exit code {self._procs[i].exitcode}",
                )
                pending.discard(i)

            now = time.perf_counter()
            if deadline is not None and now > deadline and not timed_out:
                timed_out = True
                cancel(set(pending))
            if grace_deadline is not None and now > grace_deadline:
                for i in list(pending):
                    if i in cancelled:
                        self._mark_dead(
                            i, "cancelled worker stopped responding"
                        )
                        pending.discard(i)

        for event in self._cancels:
            event.clear()

        if winner is None and sat_candidate is not None:
            # The primary died or timed out after a helper proved SAT.
            winner = sat_candidate

        wall = time.perf_counter() - start
        merged: dict = {}
        imported = 0
        for msg in replies.values():
            imported += msg.get("imported", 0)
            for key, value in (msg.get("stats") or {}).items():
                if isinstance(value, (int, float)):
                    merged[key] = merged.get(key, 0) + value
        self._absorb(merged)
        if imported:
            self.metrics.inc("share.imported", imported)
            obs_events.emit("share.import", clauses=imported)

        self._broadcast(replies, winner)

        if winner is None:
            if not replies and not self._alive.count(True):
                return None  # every worker died during the probe
            return ProbeOutcome(
                verdict=SolveResult.UNKNOWN, wall_time_s=wall, cold=cold,
                timed_out=timed_out, stats=merged,
            )
        msg = replies[winner]
        return ProbeOutcome(
            verdict=SolveResult(msg["verdict"]),
            model=msg.get("model"),
            unsat_core=list(msg.get("core") or []),
            winner=winner,
            winner_name=self._members[winner].name,
            wall_time_s=wall,
            cold=cold,
            timed_out=timed_out,
            stats=merged,
        )

    def _broadcast(self, replies, winner) -> None:
        """Queue the probe's harvested clauses for the next probe.

        The winner's export is taken first (it decided the probe, its
        clauses are the proven-useful ones), then the other finishers',
        all deduped against everything shared before and capped by the
        per-probe budget.  The primary member never imports, so its
        search stays the exact serial descent.
        """
        met = self.metrics
        budget = _SHARE_BUDGET
        order = ([winner] if winner in replies else []) + [
            i for i in sorted(replies) if i != winner
        ]
        harvest: list[tuple[int, list[int]]] = []
        for i in order:
            for lits in unpack_clauses(replies[i].get("learned") or b""):
                met.inc("share.exported")
                key = tuple(sorted(lits))
                if key in self._seen_shared:
                    met.inc("share.deduped")
                    continue
                if len(harvest) >= budget:
                    met.inc("share.over_budget")
                    continue
                self._seen_shared.add(key)
                harvest.append((i, lits))
        if not harvest:
            return
        obs_events.emit("share.export", clauses=len(harvest))
        alive = [i for i, ok in enumerate(self._alive) if ok]
        primary = min(alive, default=-1)
        for j in alive:
            if j == primary:
                continue
            queued = [lits for origin, lits in harvest if origin != j]
            if queued:
                self._pending_imports[j].extend(queued)
                met.inc("share.broadcast", len(queued))


def open_session(
    num_vars: int,
    clauses: list[list[int]],
    parallel: int = 1,
    members: list[PortfolioMember] | None = None,
    base: SolverConfig | None = None,
) -> SerialSession | SolverService:
    """Start the probe session of one descent or refinement loop.

    ``parallel <= 1`` gives a :class:`SerialSession` solving with
    ``base`` (default :class:`SolverConfig`); above that a
    :class:`SolverService` racing ``members`` (default: ``parallel``
    members diversified from ``base``).
    """
    if parallel <= 1:
        return SerialSession(num_vars, clauses, base).start()
    return SolverService(
        num_vars, clauses,
        members=members or diversified_members(parallel, base=base),
        processes=parallel,
    ).start()
