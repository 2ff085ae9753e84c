"""Probe sessions for the descent of :mod:`repro.opt`.

Every task solves through one descent
(:func:`repro.opt.minimize.minimize_sum`): generation and optimization
probe one growing clause set many times under changing assumptions, and
verification is the same descent with an empty objective, whose first
probe and lazy refinement rounds are its whole solve.  The descent runs
on a *probe session* with one contract: the clause list is held by
reference, clauses appended since the last probe are loaded as the
next probe's delta, and ``probe(assumptions, timeout_s)`` answers with
a :class:`ProbeOutcome`; ``summary()``, ``solver_stats()`` and
``close()`` complete it.  :func:`open_session` picks the session for a
``parallel`` setting:

* :class:`SerialSession` (``parallel <= 1``) keeps one incremental
  :class:`~repro.sat.Solver` in process — the serial search, with its
  learned clauses, activities and phases kept across probes.  Given a
  member list, it solves with member 0's config and
  ``solver_factory``: that is how a proof run attaches its DRAT logger
  to the solver before the clauses load.
* :class:`SolverService` (``parallel > 1``) runs member 0 of its
  :class:`~repro.sat.portfolio.PortfolioMember` list, the *primary*, in
  process as a :class:`SerialSession` — exactly the serial search — and
  forks one long-lived *helper* worker per further member **at most
  once per session, on demand**: the first time a probe has run longer
  than the primary's initial load took.  A helper must load the whole
  CNF before it can search, so it cannot win a probe that ends sooner;
  meanwhile each helper costs the primary the fork, copy-on-write
  faults on the heap pages it writes while the helper lives, CPU shared
  with the helper's load and search, and ``close()``'s wait for its
  reply.  So a session whose probes all end sooner forks nothing.  The
  check runs as a probe starts and in the primary's progress hook; the
  helpers then join the probe in progress with the remaining budget.
  The clauses as they stand at the fork reach the helpers for free via
  ``fork``, and each later probe ships them only the assumption
  literals plus the clause *delta* (for example newly built totalizer
  layers) over a pipe — O(delta) traffic instead of O(|CNF|) per probe
  (``service.clauses_shipped`` vs ``service.clauses_skipped``).  Deltas
  and shared clauses travel as flat ``array('i')`` buffers
  (:mod:`repro.sat.wire`), one pickled blob per probe instead of one
  object per literal.

Helpers race the primary to prove a probe UNSAT.  A probe ends as soon
as the primary answers, or as soon as a helper's UNSAT for it arrives:
the primary's progress hook reads helper replies every
``_CANCEL_CHECK_CONFLICTS`` conflicts and stops the primary
cooperatively (its solver stays ready for the next probe), and that
UNSAT, with its core, becomes the answer.  SAT *models* come only from
the primary, which also never imports foreign clauses: its search is
the serial one, except where a helper's UNSAT cuts a probe short.  When
a probe ends, its id is written to a shared cancel token and ``probe``
returns: helpers notice the token at their next check, answer
"cancelled", and the parent reads those replies later — no probe waits
on a helper.  A helper that still
owes a reply is *busy*: it gets no new probe, the clauses appended
meanwhile accumulate as its next delta (one shipped offset per helper),
and once its reply is read — between probes or by the primary's hook —
it joins the probe in progress, if any.  So no helper ever has more
than one probe in its pipe.  Late replies keep every check: their
counters reach ``solver_stats()``, their trace spans and events are
merged, and a definitive helper verdict that contradicts the primary's
for the same probe raises :class:`PortfolioDisagreementError` no later
than the session's next ``probe()`` or its ``close()``.  Low-LBD
clauses the primary learned (and, with several helpers, those a helper
learned) are deduped by sorted-literal key and queued for the other
helpers' next probes under a per-probe budget (``share.*`` counters).

Helpers are forked and reaped by :func:`repro.workers.spawn` and
:func:`repro.workers.kill`; a helper forked from the progress hook is
forked from inside the primary's search, which goes on untouched.
Helpers that crash, close their pipe, or still owe a reply
``_CANCEL_GRACE_S`` after their probe ended are killed and recorded
(``service.worker_crashes``).  This module alone decides
how the session degrades: when it cannot fork, or every helper has died,
it retires the helpers and keeps probing on the primary — no solver is
rebuilt and no clause reloaded — recorded as
``summary()["service"]["fallback"]``.
Fault hooks (:mod:`repro.testing.faults`) fire only in helper workers.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Any, Callable

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
from repro.workers import kill, spawn

#: Conflicts between cancellation checks inside a helper's search, and
#: between the primary's checks for helper replies.  Small enough that a
#: cancelled helper answers within milliseconds on these encodings,
#: large enough to be invisible in the solve profile.
_CANCEL_CHECK_CONFLICTS = 128

#: How long a helper may still owe a reply after its probe ended before
#: it is presumed wedged, terminated and counted as crashed (seconds).
_CANCEL_GRACE_S = 10.0

#: How long ``close()`` waits for the helpers to flush the replies they
#: owe and exit before it terminates them (seconds).
_CLOSE_WAIT_S = 1.0

#: Cancellation checks between progress events a session emits while the
#: event stream is enabled (128 conflicts per check; tests shrink this).
_PROGRESS_EVENT_CHECKS = 16

#: A service forks its helpers once a probe has run this many times as
#: long as the primary's initial load took (tests set 0: the helpers
#: then fork as the first probe starts).
_FORK_AFTER_LOADS = 1.0


#: Learned-clause exchange: only clauses with LBD at or below this are
#: exported ...
_SHARE_MAX_LBD = 4
#: ... and at most this long ...
_SHARE_MAX_LEN = 8
#: ... and at most this many are queued for the helpers per probe.
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
    #: Per-probe counters of the in-process solver (a service's
    #: primary; its helpers' counters reach ``solver_stats()``).
    stats: dict = field(default_factory=dict)


class _ProbeCancelled(Exception):
    """Raised inside a search to stop it cooperatively."""


def _service_worker(conn, index, member, num_vars, clauses, cancelled,
                    child_trace, child_events=False):
    """Helper entry point: build one incremental solver, serve probes.

    The CNF snapshot arrives through ``fork`` (no pickling); afterwards
    the pipe carries only probe commands (assumptions + clause deltas +
    shared clauses) and one reply per probe.  ``cancelled`` is the
    shared cancel token: the id of the last probe the parent has ended.
    The solver persists for the whole session, keeping its learned
    clauses across probes.
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
    probe_id = 0

    def check_cancel(snapshot) -> None:
        if cancelled.value >= probe_id:
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
            # A probe that ended while this helper was busy is loaded
            # (the delta is part of the session) but not solved.
            cancelled_now = cancelled.value >= probe_id
            verdict = SolveResult.UNKNOWN
            with trace.span("service.probe", member=member.name,
                            probe=probe_id, delta=len(delta)) as span:
                if not cancelled_now:
                    try:
                        verdict = solver.solve(list(assumptions))
                    except _ProbeCancelled:
                        cancelled_now = True
                span.add(verdict=verdict.value, cancelled=cancelled_now)
            solver.on_progress(None)
            learned = solver.export_learned(
                _SHARE_MAX_LBD, _SHARE_MAX_LEN, limit=_SHARE_BUDGET,
                skip_keys=exported_keys,
            )
            reply.update(
                verdict=verdict.value,
                cancelled=cancelled_now,
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
    retunes the copy's wall deadline.  ``solver_factory`` builds the
    solver (default: the plain :class:`Solver`); :class:`SolverService`
    passes its primary member's, and :func:`open_session` a given
    member 0's.
    """

    def __init__(
        self,
        num_vars: int,
        clauses: list[list[int]],
        config: SolverConfig | None = None,
        solver_factory: Callable[[SolverConfig], Solver] | None = None,
    ):
        self._num_vars = num_vars
        self._clauses = clauses
        self._config = dataclasses.replace(config or SolverConfig())
        self._own_deadline_s = self._config.wall_deadline_s
        self._factory = solver_factory or Solver
        self._loaded = 0
        self._probes = 0
        self._open = False
        #: The solver answering the probes (set by :meth:`start`).
        self.solver: Solver | None = None

    def start(self) -> "SerialSession":
        """Build the solver and load the current clauses."""
        if self.solver is not None:
            raise ServiceError("session already started")
        solver = self._factory(self._config)
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


@dataclass
class _Helper:
    """The parent's view of one helper worker."""

    index: int  # member index (1..N-1)
    proc: Any
    conn: Any
    #: Clauses of the session's list this helper has received.
    shipped: int
    #: Shared clauses queued for its next probe.
    imports: list = field(default_factory=list)
    #: Probe whose reply it still owes (0: idle).
    owed: int = 0
    #: When that probe ended (None while it runs): the grace clock.
    ended_at: float | None = None
    alive: bool = True


def _add_counts(total: dict, stats: dict | None) -> None:
    for key, value in (stats or {}).items():
        if isinstance(value, (int, float)):
            total[key] = total.get(key, 0) + value


def _with_progress(check: Callable, progress: Callable | None) -> Callable:
    """``check`` on every call, plus the event-stream ``progress`` feed on
    every ``_PROGRESS_EVENT_CHECKS``-th (about the serial feed's 2000
    conflicts at 128 conflicts per check)."""
    if progress is None:
        return check
    calls = 0

    def hook(snapshot) -> None:
        nonlocal calls
        calls += 1
        if calls % _PROGRESS_EVENT_CHECKS == 0:
            progress(snapshot)
        check(snapshot)

    return hook


class SolverService:
    """An in-process primary solver raced by resident helper workers.

    ``clauses`` is held *by reference*: clauses appended by the caller
    after :meth:`start` (e.g. totalizer layers built between probes) are
    loaded by the primary and shipped to the helpers automatically as
    the next probe's delta.  See the module docstring for the protocol.

    Typical usage::

        service = SolverService(cnf.num_vars, cnf.clauses, processes=4)
        service.start()
        try:
            first = service.probe()                  # cold probe
            ...build totalizer into cnf...
            probe = service.probe([bound_lit])       # ships only the delta
        finally:
            service.close()

    :attr:`solver` is the primary's solver.  :meth:`worker_pids` and
    :attr:`alive_count` cover the helper processes (members 1..N-1),
    none until a probe has outlived the primary's load;
    ``summary()["service"]["workers"]`` lists every member, the primary
    first.
    """

    def __init__(
        self,
        num_vars: int,
        clauses: list[list[int]],
        members: list[PortfolioMember] | None = None,
        processes: int | None = None,
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
        self.metrics = MetricsRegistry()
        self.reports = [
            WorkerReport(name=m.name, config=member_config_dict(m))
            for m in self._members
        ]
        self._primary: SerialSession | None = None
        self._helpers: list[_Helper] = []
        #: Shared cancel token: the id of the last probe that ended.
        self._cancelled = None
        self._probe_id = 0
        self._probing = False
        self._probe_args: tuple = ()
        self._helper_unsat: tuple[int, dict] | None = None
        #: First definitive verdict per probe that a helper still owes.
        self._verdicts: dict[int, tuple[int, str]] = {}
        self._disagreement = ""
        self._loaded = 0
        self._primary_keys: set[tuple[int, ...]] = set()
        self._seen_shared: set[tuple[int, ...]] = set()
        self._share_left = _SHARE_BUDGET
        self._started = False
        self._fallback_reason = ""
        self._helper_stats: dict = {}
        self._winners: dict[str, int] = {}
        self._wall = 0.0
        #: How long a probe runs before the helpers fork; None once they
        #: forked (or could not), and for a primary without helpers.
        self._fork_after_s: float | None = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "SolverService":
        """Build and load the primary; time that load.

        No helper is forked here: the first probe that runs longer than
        this load forks them (see module docstring).  A platform without
        ``fork``, or a fork that fails, leaves the primary probing alone.
        """
        if self._started:
            raise ServiceError("service already started")
        self._started = True
        self.metrics.inc("service.sessions")
        self.metrics.counter("service.worker_crashes")  # stable key
        self.metrics.set("service.workers", 0)
        member = self._members[0]
        loading = time.perf_counter()
        self._primary = SerialSession(
            self._num_vars, self._clauses, member.config,
            solver_factory=member.solver_factory,
        ).start()
        if len(self._members) > 1:
            self._fork_after_s = (
                (time.perf_counter() - loading) * _FORK_AFTER_LOADS
            )
        solver = self._primary.solver
        # The primary reads the helpers' replies from its progress hook
        # (and forks them there once they are due); the event-stream
        # progress feed rides along.
        solver.on_progress(
            _with_progress(self._check, obs_events.progress_callback()),
            _CANCEL_CHECK_CONFLICTS,
        )
        self._loaded = len(self._clauses)
        self._note_kernel(0, solver.kernel)
        self.metrics.inc("service.clauses_loaded", self._loaded)
        trace.event("service.start", clauses=self._loaded)
        return self

    def _fork_if_due(self) -> None:
        """Fork the helpers once the probe in progress has run longer
        than the primary's initial load, and send them that probe."""
        if self._fork_after_s is None:
            return
        started = self._probe_args[3]
        if time.perf_counter() - started < self._fork_after_s:
            return
        self._fork_after_s = None
        reason = self._fork_helpers()
        self.metrics.set("service.workers", len(self._helpers))
        trace.event("service.fork", probe=self._probe_id,
                    workers=len(self._helpers))
        if reason:
            self._fall_back(reason)
            return
        for helper in self._helpers:
            self._send(helper)

    def _fork_helpers(self) -> str:
        """Fork one helper per member after the primary; returns why the
        service must fall back, or ``""``."""
        if not fork_available():
            return "platform lacks the fork start method"
        # The probe in progress has not ended.
        self._cancelled = multiprocessing.get_context("fork").RawValue(
            "q", self._probe_id - 1
        )
        child_trace = trace.enabled()
        child_events = obs_events.enabled()
        shipped = len(self._clauses)
        try:
            for index in range(1, len(self._members)):
                proc, conn = spawn(
                    _service_worker, index, self._members[index],
                    self._num_vars, self._clauses, self._cancelled,
                    child_trace, child_events,
                )
                self._helpers.append(_Helper(index, proc, conn, shipped))
        except OSError as exc:
            return f"could not fork a worker: {exc}"
        return ""

    def close(self) -> None:
        """Read the replies the helpers owe, reap them (idempotent).

        Raises :class:`PortfolioDisagreementError` when a reply read
        since the last probe contradicts another member's verdict.
        """
        if not self._started:
            return
        self._started = False
        self._retire()
        if self._primary is not None:
            self._primary.close()
            # The hook refers back to this service: dropping it breaks
            # the cycle, so the solver is freed with the service instead
            # of waiting for the cyclic collector.
            self._primary.solver.on_progress(None)
        self._raise_disagreement()

    def __enter__(self) -> "SolverService":
        return self.start() if not self._started else self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- introspection -------------------------------------------------

    @property
    def solver(self) -> Solver | None:
        """The primary's solver (None before :meth:`start`)."""
        return self._primary.solver if self._primary is not None else None

    @property
    def alive_count(self) -> int:
        """Number of helpers still serving probes."""
        return sum(helper.alive for helper in self._helpers)

    def worker_pids(self) -> list[int | None]:
        """PIDs of the helper processes, members 1..N-1 in order (None
        for a dead or retired helper); the primary runs in this
        process."""
        return [helper.proc.pid if helper.alive else None
                for helper in self._helpers]

    def summary(self) -> dict:
        """The session's portfolio summary (for results and telemetry).

        ``calls``, ``winners`` and ``wall_time_s`` cover every probe;
        ``service`` holds the session counters, one worker entry per
        member (the in-process primary first, always alive) and, after a
        fallback, its reason under ``fallback``.
        """
        alive = [True] + [False] * (len(self._members) - 1)
        for helper in self._helpers:
            alive[helper.index] = helper.alive
        service = {
            "counters": self.metrics.as_dict(),
            "workers": [
                {"name": r.name, "error": r.error, "alive": ok,
                 "kernel": r.kernel}
                for r, ok in zip(self.reports, alive)
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
        """The primary's lifetime counters plus every helper reply's."""
        stats = self._primary.solver_stats() if self._primary else {}
        _add_counts(stats, self._helper_stats)
        return stats

    # -- probing -------------------------------------------------------

    def probe(
        self,
        assumptions: list[int] | tuple[int, ...] = (),
        timeout_s: float | None = None,
    ) -> ProbeOutcome:
        """Race one incremental solve: the primary against the helpers.

        Loads (and ships to idle helpers) only the clauses appended since
        the last probe plus the assumption literals, and returns as soon
        as the primary answers or a helper proves UNSAT.  Raises
        :class:`PortfolioDisagreementError` when two members contradict
        each other.
        """
        if not self._started:
            raise ServiceError("service not started")
        start = time.perf_counter()
        self._probe_id += 1
        probe_id = self._probe_id
        met = self.metrics
        met.inc("service.probes")
        prev = self._loaded
        self._loaded = len(self._clauses)
        met.inc("service.clauses_shipped", self._loaded - prev)
        met.inc("service.clauses_skipped", prev)
        trace.counter("service.clauses_shipped",
                      shipped=self._loaded - prev, skipped=prev)

        self._poll()
        self._expire_grace(start)
        self._raise_disagreement()
        self._probe_args = (probe_id, tuple(assumptions), timeout_s, start)
        self._helper_unsat = None
        self._share_left = _SHARE_BUDGET
        self._probing = True
        try:
            self._fork_if_due()
            for helper in self._helpers:
                if helper.alive and not helper.owed:
                    self._send(helper)
            with trace.span("service.race", probe=probe_id,
                            helpers=self.alive_count) as race_span:
                outcome = self._solve_primary(assumptions, timeout_s)
                race_span.add(verdict=outcome.verdict.name,
                              winner=outcome.winner_name)
        finally:
            self._probing = False
            self._end_probe(probe_id)
        outcome.wall_time_s = time.perf_counter() - start
        outcome.cold = probe_id == 1
        self._share(0, self._primary_exports())
        self._raise_disagreement()

        met.observe("service.probe_wall_s", outcome.wall_time_s)
        met.observe(
            "service.cold_probe_wall_s" if outcome.cold
            else "service.warm_probe_wall_s",
            outcome.wall_time_s,
        )
        if outcome.winner_name:
            met.inc(f"service.wins.{outcome.winner_name}")
            self._winners[outcome.winner_name] = (
                self._winners.get(outcome.winner_name, 0) + 1
            )
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
        self._wall += outcome.wall_time_s
        return outcome

    def _solve_primary(self, assumptions, timeout_s) -> ProbeOutcome:
        """The primary's solve, or the helper UNSAT that stopped it."""
        solver = self._primary.solver
        before = solver.stats.snapshot()
        try:
            outcome = self._primary.probe(assumptions, timeout_s)
        except _ProbeCancelled:
            index, msg = self._helper_unsat
            return ProbeOutcome(
                verdict=SolveResult.UNSAT,
                unsat_core=list(msg.get("core") or []),
                winner=index,
                winner_name=self._members[index].name,
                stats=solver.stats.delta(before).as_dict(),
            )
        if outcome.verdict is not SolveResult.UNKNOWN:
            outcome.winner = 0
            outcome.winner_name = self._members[0].name
            self._record_verdict(self._probe_id, 0, outcome.verdict.value)
        return outcome

    def _check(self, snapshot) -> None:
        """The primary's progress hook: fork the helpers when they are
        due, read the helper replies that are ready; stop the primary
        once a helper proved the probe UNSAT."""
        self._fork_if_due()
        self._poll()
        if self._helper_unsat is not None:
            raise _ProbeCancelled

    # -- internals -----------------------------------------------------

    def _send(self, helper: _Helper) -> None:
        """Send the probe in progress to an idle helper."""
        probe_id, assumptions, timeout_s, start = self._probe_args
        if timeout_s is not None:  # what is left of the probe's budget
            timeout_s = max(timeout_s - (time.perf_counter() - start), 0.0)
        delta = self._clauses[helper.shipped:]
        imports, helper.imports = helper.imports, []
        try:
            helper.conn.send(
                ("probe", probe_id, assumptions, pack_clauses(delta),
                 pack_clauses(imports), timeout_s)
            )
        except (BrokenPipeError, OSError):
            self._mark_dead(helper, "worker pipe closed before the probe")
            return
        helper.shipped = len(self._clauses)
        helper.owed = probe_id
        helper.ended_at = None

    def _poll(self) -> None:
        """Read every helper reply that is ready; a helper freed from an
        earlier probe while a probe runs joins it."""
        for helper in self._helpers:
            if not helper.alive or not helper.conn.poll(0):
                continue
            try:
                msg = helper.conn.recv()
            except (EOFError, OSError):
                self._mark_dead(helper, "worker connection closed")
                continue
            self._fold(helper, msg)
            # A helper that just answered the probe in progress has
            # nothing left to do for it.
            if (self._probing and helper.alive
                    and msg["probe"] < self._probe_id):
                self._send(helper)

    def _fold(self, helper: _Helper, msg: dict) -> None:
        """Absorb one helper reply: telemetry, counters, shared clauses,
        and its verdict."""
        helper.owed = 0
        trace.merge(msg.get("spans"))
        obs_events.merge(msg.get("events"))
        if "error" in msg:
            self._mark_dead(helper, msg["error"], msg.get("traceback", ""))
            return
        report = self.reports[helper.index]
        report.finished = True
        report.verdict = msg["verdict"]
        report.solve_time_s += msg.get("time", 0.0)
        report.stats = msg.get("stats", {})
        self._note_kernel(helper.index, msg.get("kernel", ""))
        _add_counts(self._helper_stats, report.stats)
        imported = msg.get("imported", 0)
        if imported:
            self.metrics.inc("share.imported", imported)
            obs_events.emit("share.import", clauses=imported)
        self._share(helper.index, msg.get("learned"))
        verdict = msg["verdict"]
        if msg.get("cancelled") or verdict == SolveResult.UNKNOWN.value:
            return
        probe_id = msg["probe"]
        self._record_verdict(probe_id, helper.index, verdict)
        if (
            verdict == SolveResult.UNSAT.value
            and self._probing
            and probe_id == self._probe_id
            and self._helper_unsat is None
        ):
            self._helper_unsat = (helper.index, msg)

    def _record_verdict(self, probe_id: int, index: int,
                        verdict: str) -> None:
        """Check ``verdict`` against the first definitive one of the
        probe; a contradiction is raised at the next checkpoint."""
        first = self._verdicts.setdefault(probe_id, (index, verdict))
        if first[1] != verdict and not self._disagreement:
            self._disagreement = (
                f"service members disagree on probe {probe_id}: "
                f"{self._members[first[0]].name}={first[1]}, "
                f"{self._members[index].name}={verdict}"
            )

    def _raise_disagreement(self) -> None:
        if self._disagreement:
            raise PortfolioDisagreementError(self._disagreement)

    def _end_probe(self, probe_id: int) -> None:
        """Cancel the helpers still on the probe and start their grace
        clocks; forget the verdicts no helper still owes."""
        if self._cancelled is not None:
            self._cancelled.value = probe_id
        now = time.perf_counter()
        owed = set()
        for helper in self._helpers:
            if helper.alive and helper.owed:
                owed.add(helper.owed)
                if helper.owed == probe_id:
                    helper.ended_at = now
        self._verdicts = {
            p: v for p, v in self._verdicts.items() if p in owed
        }

    def _expire_grace(self, now: float) -> None:
        for helper in self._helpers:
            if (
                helper.alive and helper.owed
                and helper.ended_at is not None
                and now - helper.ended_at > _CANCEL_GRACE_S
            ):
                self._mark_dead(helper, "cancelled worker stopped responding")

    def _primary_exports(self) -> list[list[int]]:
        """The primary's new low-LBD clauses, when a helper can use them."""
        if not self.alive_count:
            return []
        return self._primary.solver.export_learned(
            _SHARE_MAX_LBD, _SHARE_MAX_LEN, limit=_SHARE_BUDGET,
            skip_keys=self._primary_keys,
        )

    def _share(self, origin: int, learned) -> None:
        """Queue clauses exported by member ``origin`` for every other
        live helper: deduped against everything shared before, capped by
        the per-probe budget.  The primary never imports, so its search
        stays the exact serial descent."""
        targets = [helper for helper in self._helpers
                   if helper.alive and helper.index != origin]
        if not targets or not learned:
            return
        if isinstance(learned, (bytes, bytearray)):
            learned = unpack_clauses(learned)
        fresh: list[list[int]] = []
        deduped = over_budget = 0
        for lits in learned:
            key = tuple(sorted(lits))
            if key in self._seen_shared:
                deduped += 1
            elif self._share_left <= 0:
                over_budget += 1
            else:
                self._share_left -= 1
                self._seen_shared.add(key)
                fresh.append(lits)
        met = self.metrics
        met.inc("share.exported", len(learned))
        if deduped:
            met.inc("share.deduped", deduped)
        if over_budget:
            met.inc("share.over_budget", over_budget)
        if not fresh:
            return
        obs_events.emit("share.export", clauses=len(fresh))
        for helper in targets:
            helper.imports.extend(fresh)
            met.inc("share.broadcast", len(fresh))

    def _note_kernel(self, index: int, kernel: str) -> None:
        report = self.reports[index]
        if kernel and kernel != report.kernel:
            report.kernel = kernel
            self.metrics.inc(f"service.kernel.{kernel}")

    def _mark_dead(self, helper: _Helper, error: str, tb: str = "") -> None:
        """Record a crashed helper and kill it; losing the last one is a
        fallback."""
        if not helper.alive:
            return
        helper.alive = False
        helper.owed = 0
        report = self.reports[helper.index]
        report.error = report.error or error
        report.traceback = report.traceback or tb
        name = self._members[helper.index].name
        self.metrics.inc("service.worker_crashes")
        trace.event("service.worker_crash", member=name, error=error)
        obs_events.emit("worker.crash", member=name, error=error)
        kill(helper.proc, helper.conn)
        if all(self.reports[h.index].error for h in self._helpers):
            self._fall_back("all service helpers have died")

    def _fall_back(self, reason: str) -> None:
        """Retire the helpers; the primary answers every later probe
        alone, with its solver and clauses as they are."""
        if self._fallback_reason:
            return
        self._fallback_reason = reason
        trace.event("service.fallback", error=reason)
        self._retire()

    def _retire(self) -> None:
        """Cancel and quit every live helper, read the replies it still
        owes (for up to ``_CLOSE_WAIT_S``), and reap it."""
        if self._cancelled is not None:
            self._cancelled.value = self._probe_id
        live = [helper for helper in self._helpers if helper.alive]
        for helper in live:
            try:
                helper.conn.send(("quit",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.perf_counter() + _CLOSE_WAIT_S
        for helper in live:
            while helper.alive:
                remaining = max(deadline - time.perf_counter(), 0.0)
                try:
                    if not helper.conn.poll(remaining):
                        break  # still busy: terminated below
                    msg = helper.conn.recv()
                except (EOFError, OSError):
                    if helper.owed:  # died without its reply
                        self._mark_dead(helper, "worker connection closed")
                    break
                self._fold(helper, msg)
        for helper in live:
            if helper.alive:
                helper.alive = False
                kill(helper.proc, helper.conn)


def open_session(
    num_vars: int,
    clauses: list[list[int]],
    parallel: int = 1,
    members: list[PortfolioMember] | None = None,
    base: SolverConfig | None = None,
) -> SerialSession | SolverService:
    """Start the probe session of one descent.

    ``parallel <= 1`` gives a :class:`SerialSession`; it solves with
    ``members[0]`` (its config and its ``solver_factory``) when
    ``members`` is given, else with ``base`` (default
    :class:`SolverConfig`).  A proof run attaches its DRAT logger this
    way: one member whose factory attaches it before the clauses load.
    Above that a :class:`SolverService` whose primary solves with
    ``members[0]`` and whose helpers race it with the rest (default:
    ``parallel`` members diversified from ``base``).
    """
    if parallel <= 1:
        if members:
            return SerialSession(
                num_vars, clauses, members[0].config,
                solver_factory=members[0].solver_factory,
            ).start()
        return SerialSession(num_vars, clauses, base).start()
    return SolverService(
        num_vars, clauses,
        members=members or diversified_members(parallel, base=base),
        processes=parallel,
    ).start()


def solve_portfolio(
    num_vars: int,
    clauses: list[list[int]],
    parallel: int = 1,
    base: SolverConfig | None = None,
) -> tuple[ProbeOutcome, SerialSession | SolverService]:
    """Solve ``clauses`` once: open a session, probe it, close it.

    ``parallel`` and ``base`` pick the session as for
    :func:`open_session`.  No task calls this any more: verification
    solves through :func:`repro.opt.minimize_sum` with an empty
    objective.  It stays only because perfbench wraps it by name
    (``pool.race`` in ``perfbench/spans.py``) and CI's traced smokes
    fail when a wrapped name is gone; the perfbench change that drops
    that wrap deletes it.

    Returns the probe's outcome and the closed session, whose
    ``summary()``, ``solver_stats()`` and ``solver`` include the helper
    replies read at close.
    """
    session = open_session(num_vars, clauses, parallel, base=base)
    try:
        outcome = session.probe()
    finally:
        session.close()
    return outcome, session
