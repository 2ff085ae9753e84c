"""Shared plumbing for the task implementations."""

from __future__ import annotations

from repro.encoding.decode import Solution
from repro.encoding.encoder import EncodingOptions, EtcsEncoding
from repro.encoding.validate import validate_solution
from repro.network.discretize import DiscreteNetwork
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.opt.result import STATUS_TIMEOUT
from repro.sat.solver import Solver
from repro.trains.schedule import Schedule


class SolutionInvalidError(AssertionError):
    """A decoded SAT solution violated the operational rules.

    This indicates a bug in the encoder (or the validator); it is raised
    rather than returned so that tests and case studies fail loudly.
    """


def build_encoding(
    net: DiscreteNetwork,
    schedule: Schedule,
    r_t_min: float,
    options: EncodingOptions | None,
    lazy: bool = False,
) -> EtcsEncoding:
    """Construct and build the base encoding.

    With ``lazy`` the cross-train families are deferred for the CEGAR
    loop (:mod:`repro.encoding.lazy`) to instantiate on demand.

    With ``options.guarded_arrivals`` every arrival selector is pinned
    true, so the timetable commitments stay enforced and the verdict
    matches the unguarded encoding — tasks gain a deadline-independent
    variable space (the gateway's warm-start requirement) without the
    diagnosis semantics, which builds its own encoding and drives the
    selectors as assumptions instead.
    """
    encoding = EtcsEncoding(net, schedule, r_t_min, options).build(lazy=lazy)
    for selector in encoding.arrival_selectors.values():
        encoding.cnf.add_unit(selector)
    return encoding


def checked_decode(encoding: EtcsEncoding, true_vars: set[int]) -> Solution:
    """Decode a model and cross-check it with the independent validator."""
    solution = encoding.decode(true_vars)
    with trace.span("validate"):
        problems = validate_solution(encoding, solution)
    if problems:
        details = "\n  ".join(problems[:20])
        raise SolutionInvalidError(
            f"decoded solution violates {len(problems)} rule(s):\n  {details}"
        )
    return solution


def record_encoding(reg: MetricsRegistry, encoding: EtcsEncoding) -> None:
    """Absorb the encoding's size metrics (per constraint family + totals)."""
    reg.absorb_encoder(encoding.family_stats)
    reg.set("encoder.vars", encoding.cnf.num_vars)
    reg.set("encoder.clauses", encoding.cnf.num_clauses)
    reg.set("encoder.t_max", encoding.t_max)
    reg.set("encoder.trains", len(encoding.runs))


def record_solver(
    reg: MetricsRegistry, solver: Solver, stats: dict | None = None
) -> None:
    """Absorb a solver's counters — or ``stats``, when the counters of a
    session that raced it are summed elsewhere — and its restart
    cadence."""
    reg.absorb_solver_stats(
        solver.stats.as_dict() if stats is None else stats
    )
    for delta in solver.stats.restart_conflict_deltas:
        reg.observe("solver.restart_conflicts", delta)


def record_session(reg: MetricsRegistry, summary: dict | None) -> None:
    """Absorb a probe session's ``summary()`` (None for a serial one):
    race counts and wins as ``portfolio.*``, and the session counters."""
    if not summary:
        return
    reg.set("portfolio.processes", summary.get("processes", 0))
    reg.inc("portfolio.races", summary.get("calls", 0))
    reg.observe("portfolio.wall_time_s", summary.get("wall_time_s", 0.0))
    for member, count in summary.get("winners", {}).items():
        reg.inc(f"portfolio.wins.{member}", count)
    service = summary.get("service")
    if service:
        # ``service.*`` / ``share.*`` session counters, including
        # ``service.worker_crashes`` for helpers that died mid-session.
        reg.merge_dict(service.get("counters", {}))
        if service.get("fallback"):
            reg.inc("service.fallbacks")


def record_descent(reg: MetricsRegistry, result) -> None:
    """Absorb a :class:`~repro.opt.DescentResult`'s counters and race
    summary."""
    reg.absorb_solver_stats(result.solver_stats)
    reg.inc("descent.solve_calls", result.solve_calls)
    status = getattr(result, "status", "")
    if status:
        reg.inc(f"descent.status.{status}")
        if status == STATUS_TIMEOUT:
            reg.inc("deadline.descent_timeouts")
    if getattr(result, "resumed", False):
        reg.inc("checkpoint.resumes")
    checkpoint = getattr(result, "checkpoint", None)
    if checkpoint:
        reg.inc("checkpoint.writes", checkpoint.get("writes", 0))
        failures = checkpoint.get("write_failures", 0)
        if failures:
            reg.inc("checkpoint.write_failures", failures)
    deadline_hits = result.solver_stats.get("deadline_hits", 0)
    if deadline_hits:
        reg.inc("deadline.solver_hits", deadline_hits)
    record_session(reg, result.portfolio)
