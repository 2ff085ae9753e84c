"""Parallel portfolio SAT solving: race diversified configurations.

A *portfolio* runs the same CNF through several differently-configured CDCL
solvers in worker processes and takes the first definitive answer.  Because
every member is a sound and complete solver, all members provably agree on
the SAT/UNSAT verdict — racing them is verdict-preserving, and on multi-core
hardware the wall time drops to the *fastest* member instead of the default
one (cf. Engels & Wille's observation that solver-strategy choice dominates
runtime on these ETCS moving-block encodings).

Determinism (the default) is achieved by decoupling the race from the
witness:

* an **UNSAT** answer is accepted from whichever member proves it first —
  the verdict is the same no matter who wins, so no nondeterminism leaks;
* a **SAT** answer's *model* is always taken from the primary member
  (index 0, the unmodified base configuration).  When another member finds
  SAT first, the losers are cancelled and the primary is left to finish, so
  the reported model — and everything decoded from it — is a pure function
  of the formula, never of scheduling jitter.

With ``deterministic=False`` the first finisher wins outright (lowest
latency, model may vary between runs).

Worker crashes never hang the run: dead processes are detected and the
surviving members still produce the answer; if *every* member dies the
portfolio falls back to solving in-process.  On platforms without ``fork``
(or with ``processes <= 1``) the portfolio degrades to the exact serial
path of the primary member.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import queue as queue_module
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Callable

from repro.obs import events as obs_events
from repro.obs import trace
from repro.sat.simplify import simplify_clauses
from repro.sat.solver import Solver
from repro.sat.proof import ProofLogger
from repro.sat.types import SolveResult, SolverConfig
from repro.testing import faults

#: Poll interval while waiting for worker results (seconds).
_POLL_S = 0.02

#: Conflicts between progress events a member emits while the event
#: stream is enabled (tests shrink this to observe delivery quickly).
_PROGRESS_EVERY = 2000

#: Large co-prime stride decorrelating the per-member derived seeds.
_SEED_STRIDE = 0x9E3779B1


class PortfolioError(RuntimeError):
    """The portfolio could not produce an answer (all members failed)."""


class PortfolioDisagreementError(PortfolioError):
    """Two members returned contradictory verdicts — a soundness bug."""


@dataclass(frozen=True)
class PortfolioMember:
    """One entry of the portfolio: a solver configuration plus knobs.

    Attributes:
        name: short label for reports ("base", "neg-phase", ...).
        config: the :class:`SolverConfig` this member solves with.
        presimplify: run the clause preprocessor before solving (skipped
            automatically when a DRAT proof is requested, because the proof's
            premises must be the original clauses).
        solver_factory: optional ``config -> Solver`` hook, used by tests to
            inject failing members; defaults to the plain constructor.
    """

    name: str
    config: SolverConfig
    presimplify: bool = False
    solver_factory: Callable[[SolverConfig], Solver] | None = field(
        default=None, compare=False
    )


def diversified_members(
    n: int,
    base: SolverConfig | None = None,
    seed: int | None = None,
) -> list[PortfolioMember]:
    """Build ``n`` diversified portfolio members.

    Member 0 is always the unmodified ``base`` configuration (so that the
    deterministic portfolio's witnesses, and the ``processes=1`` degradation,
    match the serial solver exactly).  Further members vary the random seed,
    VSIDS decay, restart cadence, phase-saving polarity, random-decision
    frequency, and preprocessing — the classic portfolio diversification
    axes.  The recipe list cycles (with reseeding) for large ``n``.
    """
    if n < 1:
        raise ValueError(f"portfolio needs at least one member, got {n}")
    base = base if base is not None else SolverConfig()
    seed = seed if seed is not None else base.random_seed

    def derived(index: int) -> int:
        return (seed + index * _SEED_STRIDE) & 0x7FFFFFFF

    recipes: list[tuple[str, dict, bool]] = [
        ("neg-phase", {"default_phase": True}, False),
        ("fast-decay", {"var_decay": 0.85, "restart_base": 50}, False),
        ("presimplify", {"default_phase": True, "var_decay": 0.99}, True),
        ("random-walk", {"random_var_freq": 0.05,
                         "use_phase_saving": False}, False),
        ("slow-restarts", {"restart_base": 500, "var_decay": 0.99}, False),
        ("jumpy", {"random_var_freq": 0.1, "restart_base": 50,
                   "default_phase": True}, False),
        ("no-saving", {"use_phase_saving": False, "var_decay": 0.9}, False),
    ]

    members = [PortfolioMember("base", base)]
    for i in range(1, n):
        name, overrides, presimplify = recipes[(i - 1) % len(recipes)]
        if i - 1 >= len(recipes):
            name = f"{name}-{(i - 1) // len(recipes) + 1}"
        config = dataclasses.replace(
            base, random_seed=derived(i), **overrides
        )
        members.append(PortfolioMember(name, config, presimplify))
    return members


@dataclass
class WorkerReport:
    """Per-member outcome, for the merged portfolio report."""

    name: str
    verdict: str = ""  # "sat" / "unsat" / "" (cancelled / still running)
    finished: bool = False
    error: str = ""
    traceback: str = ""  # full worker traceback when the member crashed
    solve_time_s: float = 0.0
    stats: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)  # the member's SolverConfig
    #: The kernel build that answered: "interpreted" / "compiled".
    kernel: str = ""


@dataclass
class PortfolioStats:
    """Merged report of one portfolio solve."""

    winner: int | None
    winner_name: str
    verdict: SolveResult
    wall_time_s: float
    processes: int
    serial_fallback: bool
    workers: list[WorkerReport] = field(default_factory=list)
    #: Fastest *other* finisher's solve time minus the winner's — how much
    #: the winner beat the field by (negative when the deterministic SAT
    #: rule picked the primary over a faster member); None without a
    #: second finisher.
    win_margin_s: float | None = None

    def merged_counters(self) -> dict:
        """Sum the solver counters over every member that reported stats."""
        totals: dict = {}
        for report in self.workers:
            for key, value in report.stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def as_dict(self) -> dict:
        return {
            "winner": self.winner,
            "winner_name": self.winner_name,
            "verdict": self.verdict.value,
            "wall_time_s": self.wall_time_s,
            "processes": self.processes,
            "serial_fallback": self.serial_fallback,
            "win_margin_s": self.win_margin_s,
            "workers": [dataclasses.asdict(w) for w in self.workers],
        }


@dataclass
class PortfolioResult:
    """Answer of :func:`solve_portfolio`.

    ``model`` is the winning member's model as a list of true literals
    (DIMACS convention) when SAT, ``unsat_core`` the failed assumption
    subset when UNSAT under assumptions, and ``proof_steps`` the winner's
    DRAT log when a proof was requested and the verdict is UNSAT.
    """

    verdict: SolveResult
    model: list[int] | None = None
    unsat_core: list[int] = field(default_factory=list)
    proof_steps: list | None = None
    stats: PortfolioStats | None = None
    _true_set: set[int] | None = field(
        default=None, repr=False, compare=False
    )

    def __bool__(self) -> bool:
        return self.verdict is SolveResult.SAT

    def true_set(self) -> set[int]:
        """The model's true variables as a set (for decoding).

        Memoized: decode/validate/report paths may each ask for the set,
        and the model never changes after the race ends.
        """
        if self.model is None:
            raise RuntimeError("no model: portfolio verdict was not SAT")
        if self._true_set is None:
            self._true_set = {lit for lit in self.model if lit > 0}
        return self._true_set


def fork_available() -> bool:
    """Whether the platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def default_processes() -> int:
    """Worker count when the caller does not specify one."""
    return min(4, os.cpu_count() or 1)


def member_config_dict(member: PortfolioMember) -> dict:
    """The member's solver configuration as a plain dict (telemetry)."""
    return dataclasses.asdict(member.config)


def _member_config(
    member: PortfolioMember, timeout_s: float | None
) -> SolverConfig:
    """The member's config with the race budget folded into its deadline.

    The solver-level wall deadline is what makes the *serial* degradation
    and worker searches honor ``timeout_s`` cooperatively instead of
    relying on the parent to terminate them.
    """
    if timeout_s is None:
        return member.config
    own = member.config.wall_deadline_s
    effective = timeout_s if own is None else min(own, timeout_s)
    return dataclasses.replace(member.config, wall_deadline_s=effective)


def _run_member(
    member: PortfolioMember,
    num_vars: int,
    clauses: list[list[int]],
    assumptions: tuple[int, ...],
    with_proof: bool,
    child_trace: bool = False,
    timeout_s: float | None = None,
) -> dict:
    """Solve one member in the current process; returns a plain dict.

    With ``child_trace`` (set by forked workers) a fresh tracer is
    installed for this process so the member's spans can be shipped back
    through the result queue and merged into the parent trace; without it
    (the serial path) spans land directly on the caller's tracer.
    """
    if child_trace and trace.enabled():
        trace.install(trace.fork_child(tid=member.name))
    if child_trace and obs_events.enabled():
        obs_events.install(obs_events.fork_child(source=member.name))
    start = time.perf_counter()
    with trace.span("portfolio.member", member=member.name) as span:
        factory = member.solver_factory or Solver
        solver = factory(_member_config(member, timeout_s))
        if obs_events.enabled():
            name = member.name

            def emit_event(kind, **args):
                obs_events.emit(kind, member=name, **args)

            def emit_progress(snapshot):
                obs_events.emit("progress", member=name, **snapshot)

            solver.on_event(emit_event)
            solver.on_progress(emit_progress, _PROGRESS_EVERY)
        logger = None
        if with_proof:
            logger = ProofLogger()
            solver.attach_proof(logger)
        work = clauses
        if member.presimplify and not with_proof:
            with trace.span("presimplify"):
                work, __ = simplify_clauses(clauses)
        solver.ensure_var(max(num_vars, 1))
        with trace.span("load", clauses=len(work)):
            for clause in work:
                solver.add_clause(clause)
        with trace.span("solve"):
            verdict = solver.solve(list(assumptions))
        span.add(verdict=verdict.value)
    outcome = {
        "verdict": verdict.value,
        "model": solver.model() if verdict is SolveResult.SAT else None,
        "core": solver.unsat_core() if verdict is SolveResult.UNSAT else [],
        "proof": (
            list(logger.steps)
            if logger is not None and verdict is SolveResult.UNSAT
            else None
        ),
        "stats": solver.stats.as_dict(),
        "kernel": solver.kernel,
        "time": time.perf_counter() - start,
    }
    if child_trace and trace.enabled():
        outcome["spans"] = trace.export_spans()
    if child_trace and obs_events.enabled():
        outcome["events"] = obs_events.drain_events()
    return outcome


def _worker(index, member, num_vars, clauses, assumptions, with_proof, out,
            reported=None, timeout_s=None):
    """Process entry point: solve and ship the outcome (or the error).

    ``reported`` (an Event) is set immediately before the message is
    queued: it tells the parent "a report is in flight, don't terminate
    me yet", which makes crash telemetry deterministic instead of racing
    the winner's answer against this worker's queue flush.
    """
    try:
        faults.on_worker_start(member.name)
        outcome = _run_member(member, num_vars, clauses, assumptions,
                              with_proof, child_trace=True,
                              timeout_s=timeout_s)
        outcome["index"] = index
        if reported is not None:
            reported.set()
        out.put(outcome)
    except BaseException as exc:  # noqa: BLE001 — must never hang the parent
        try:
            if reported is not None:
                reported.set()
            out.put({"index": index,
                     "error": f"{type(exc).__name__}: {exc}",
                     "traceback": traceback_module.format_exc()})
        except Exception:
            pass


def _record_message(msg, reports, outcomes) -> None:
    """Fold one worker message into the shared report/outcome state."""
    index = msg["index"]
    if "error" in msg:
        if not reports[index].error:
            reports[index].error = msg["error"]
            reports[index].traceback = msg.get("traceback", "")
            obs_events.emit(
                "worker.crash",
                member=reports[index].name,
                error=msg["error"],
            )
    elif index not in outcomes:
        outcomes[index] = msg
        reports[index].verdict = msg["verdict"]
        reports[index].finished = True
        reports[index].solve_time_s = msg["time"]
        reports[index].stats = msg["stats"]
        reports[index].kernel = msg.get("kernel", "")
        trace.merge(msg.get("spans"))
        obs_events.merge(msg.get("events"))


def _await_flagged_reports(out, reports, outcomes, flags) -> None:
    """Collect reports whose workers flagged them as in flight.

    A worker sets its flag immediately before queueing its message, so a
    set flag with no recorded report means the message is mid-flush.
    Waiting for it (bounded, in case the worker died mid-``put``) makes
    crash telemetry deterministic: without this, a crash report racing
    the winner's answer would be lost to ``terminate()`` and the member
    mislabelled as merely "cancelled".  Workers that never flagged are
    still solving and are not waited for.
    """
    deadline = time.perf_counter() + 1.0

    def pending():
        return [
            i for i, flag in enumerate(flags)
            if flag.is_set() and i not in outcomes and not reports[i].error
        ]

    while pending() and time.perf_counter() < deadline:
        try:
            msg = out.get(timeout=0.05)
        except queue_module.Empty:
            continue
        _record_message(msg, reports, outcomes)


def _drain_late_messages(out, reports, outcomes) -> None:
    """Record messages still queued when the race ended.

    Catches late finishes that were already flushed but not yet read —
    their stats and spans are real work worth keeping.
    """
    while True:
        try:
            msg = out.get_nowait()
        except Exception:  # Empty, or a queue torn down by terminate()
            return
        _record_message(msg, reports, outcomes)


def _win_margin(
    reports: list[WorkerReport], winner_index: int
) -> float | None:
    """Fastest other finisher's solve time minus the winner's, or None."""
    others = [
        report.solve_time_s
        for i, report in enumerate(reports)
        if i != winner_index and report.finished
    ]
    if not others:
        return None
    return min(others) - reports[winner_index].solve_time_s


def _serial_result(member, num_vars, clauses, assumptions, with_proof,
                   start, processes, *, fallback, timeout_s=None):
    """Solve in-process with one member and wrap it as a portfolio answer."""
    outcome = _run_member(member, num_vars, clauses, tuple(assumptions),
                          with_proof, timeout_s=timeout_s)
    verdict = SolveResult(outcome["verdict"])
    report = WorkerReport(
        name=member.name, verdict=outcome["verdict"], finished=True,
        solve_time_s=outcome["time"], stats=outcome["stats"],
        config=member_config_dict(member),
    )
    unknown = verdict is SolveResult.UNKNOWN
    stats = PortfolioStats(
        winner=None if unknown else 0,
        winner_name="" if unknown else member.name, verdict=verdict,
        wall_time_s=time.perf_counter() - start, processes=processes,
        serial_fallback=fallback, workers=[report],
    )
    return PortfolioResult(
        verdict=verdict, model=outcome["model"],
        unsat_core=outcome["core"], proof_steps=outcome["proof"],
        stats=stats,
    )


def solve_portfolio(
    num_vars: int,
    clauses: list[list[int]],
    assumptions: list[int] | tuple[int, ...] = (),
    members: list[PortfolioMember] | None = None,
    processes: int | None = None,
    timeout_s: float | None = None,
    with_proof: bool = False,
    deterministic: bool = True,
) -> PortfolioResult:
    """Race a portfolio of solver configurations on one CNF.

    Args:
        num_vars: number of variables in the formula.
        clauses: the CNF clauses (DIMACS-style literal lists).
        assumptions: assumption literals, as for :meth:`Solver.solve`.
        members: the portfolio; defaults to
            :func:`diversified_members(processes)`.
        processes: worker processes to race; defaults to
            :func:`default_processes`.  ``processes <= 1`` (or a platform
            without ``fork``) solves serially with the primary member — the
            exact single-solver path.
        timeout_s: overall wall-clock budget; on expiry every worker is
            cancelled and the verdict is :data:`SolveResult.UNKNOWN`.
        with_proof: ship the winner's DRAT log on UNSAT (member-level
            preprocessing is skipped so the proof premises stay intact).
        deterministic: take SAT models only from the primary member (see
            module docstring).  ``False`` races to the first finisher.

    Returns a :class:`PortfolioResult`; raises
    :class:`PortfolioDisagreementError` if two members contradict each other
    (which would mean an unsound solver) and :class:`PortfolioError` when no
    member could produce an answer and the in-process fallback failed too.
    """
    start = time.perf_counter()
    if processes is None:
        processes = default_processes()
    if members is None:
        members = diversified_members(max(processes, 1))
    if not members:
        raise ValueError("empty portfolio")
    members = list(members[: max(processes, 1)])

    if processes <= 1 or len(members) == 1 or not fork_available():
        # The serial degradation honors timeout_s cooperatively through
        # the solver's own wall deadline (nobody can terminate us here).
        return _serial_result(members[0], num_vars, clauses, assumptions,
                              with_proof, start, processes, fallback=False,
                              timeout_s=timeout_s)

    ctx = multiprocessing.get_context("fork")
    out: multiprocessing.Queue = ctx.Queue()
    flags = [ctx.Event() for __ in members]
    procs = [
        ctx.Process(
            target=_worker,
            args=(i, members[i], num_vars, clauses, tuple(assumptions),
                  with_proof, out, flags[i], timeout_s),
            daemon=True,
        )
        for i in range(len(members))
    ]
    for proc in procs:
        proc.start()

    reports = [
        WorkerReport(name=member.name, config=member_config_dict(member))
        for member in members
    ]
    outcomes: dict[int, dict] = {}
    deadline = start + timeout_s if timeout_s is not None else None
    winner_index: int | None = None
    sat_candidate: int | None = None  # lowest-index SAT seen so far
    timed_out = False
    verdicts_seen: dict[int, str] = {}

    def cancel(indices) -> None:
        for i in indices:
            if procs[i].is_alive():
                procs[i].terminate()

    try:
        while True:
            try:
                msg = out.get(timeout=_POLL_S)
            except queue_module.Empty:
                if deadline is not None and time.perf_counter() > deadline:
                    timed_out = True
                    break
                # Detect members that died without reporting (hard crash).
                for i, proc in enumerate(procs):
                    if (
                        i not in outcomes
                        and not reports[i].error
                        and not proc.is_alive()
                    ):
                        reports[i].error = (
                            f"worker died with exit code {proc.exitcode}"
                        )
                        obs_events.emit(
                            "worker.crash",
                            member=reports[i].name,
                            error=reports[i].error,
                        )
                if all(
                    i in outcomes or reports[i].error
                    for i in range(len(procs))
                ):
                    break  # everyone is accounted for, nobody answered
                continue

            index = msg["index"]
            if "error" in msg:
                reports[index].error = msg["error"]
                reports[index].traceback = msg.get("traceback", "")
                obs_events.emit(
                    "worker.crash",
                    member=reports[index].name,
                    error=msg["error"],
                )
                if all(
                    i in outcomes or reports[i].error
                    for i in range(len(procs))
                ):
                    break
                continue

            outcomes[index] = msg
            reports[index].verdict = msg["verdict"]
            reports[index].finished = True
            reports[index].solve_time_s = msg["time"]
            reports[index].stats = msg["stats"]
            reports[index].kernel = msg.get("kernel", "")
            trace.merge(msg.get("spans"))
            obs_events.merge(msg.get("events"))
            verdicts_seen[index] = msg["verdict"]
            definitive = {
                v for v in verdicts_seen.values()
                if v != SolveResult.UNKNOWN.value
            }
            if len(definitive) > 1:
                raise PortfolioDisagreementError(
                    "portfolio members disagree on the verdict: "
                    + ", ".join(
                        f"{members[i].name}={v}"
                        for i, v in sorted(verdicts_seen.items())
                    )
                )

            if msg["verdict"] == SolveResult.UNSAT.value:
                # Any member's UNSAT is everyone's UNSAT: accept and cancel.
                winner_index = index
                break
            if msg["verdict"] == SolveResult.SAT.value:
                if not deterministic or index == 0:
                    winner_index = index
                    break
                # Deterministic mode: remember the witness, free the other
                # racers, and let the primary finish so the reported model
                # does not depend on scheduling.
                if sat_candidate is None or index < sat_candidate:
                    sat_candidate = index
                cancel(
                    i for i in range(1, len(procs))
                    if i not in outcomes and not reports[i].error
                )
    finally:
        _await_flagged_reports(out, reports, outcomes, flags)
        cancel(range(len(procs)))
        for proc in procs:
            proc.join(timeout=1.0)
        _drain_late_messages(out, reports, outcomes)
        out.close()
        out.cancel_join_thread()

    if winner_index is None and sat_candidate is not None:
        # The primary died or timed out after another member proved SAT.
        winner_index = sat_candidate
    for i in range(len(procs)):
        if i != winner_index and i not in outcomes and not reports[i].error:
            reports[i].error = reports[i].error or (
                "timeout" if timed_out else "cancelled"
            )

    if winner_index is None:
        cooperative_unknown = any(
            msg["verdict"] == SolveResult.UNKNOWN.value
            for msg in outcomes.values()
        )
        if timed_out or cooperative_unknown:
            # Parent-side deadline, or every finisher gave up on its own
            # (worker-side wall deadline / conflict budget).  Re-solving
            # in-process here would ignore the budget entirely, so the
            # honest answer is UNKNOWN.
            stats = PortfolioStats(
                winner=None, winner_name="", verdict=SolveResult.UNKNOWN,
                wall_time_s=time.perf_counter() - start,
                processes=processes, serial_fallback=False, workers=reports,
            )
            return PortfolioResult(verdict=SolveResult.UNKNOWN, stats=stats)
        # Every worker crashed: the answer must still be produced — fall
        # back to solving in this process with the primary member's
        # configuration (default factory: a custom one may be what crashed).
        fallback_member = PortfolioMember(
            f"{members[0].name}-fallback", members[0].config,
            presimplify=members[0].presimplify,
        )
        try:
            result = _serial_result(
                fallback_member, num_vars, clauses, assumptions, with_proof,
                start, processes, fallback=True,
            )
        except Exception as exc:
            raise PortfolioError(
                "all portfolio workers failed and the serial fallback "
                f"raised: {exc}"
            ) from exc
        result.stats.workers = reports + result.stats.workers
        return result

    outcome = outcomes[winner_index]
    verdict = SolveResult(outcome["verdict"])
    stats = PortfolioStats(
        winner=winner_index,
        winner_name=members[winner_index].name,
        verdict=verdict,
        wall_time_s=time.perf_counter() - start,
        processes=processes,
        serial_fallback=False,
        workers=reports,
        win_margin_s=_win_margin(reports, winner_index),
    )
    return PortfolioResult(
        verdict=verdict,
        model=outcome["model"],
        unsat_core=outcome["core"],
        proof_steps=outcome["proof"],
        stats=stats,
    )
