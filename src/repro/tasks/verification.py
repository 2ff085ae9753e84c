"""Task 1: verification of train schedules on ETCS Level 3 layouts.

Given a network, a fixed TTD/VSS layout, and a schedule (with arrival
deadlines), decide whether routes exist that realise the schedule.  SAT means
"yes, here is a witness"; UNSAT is a *proof* that no combination of routes,
speeds and waiting times works (paper §III-C, first task).

Verification is the formula with no objective, so it runs on the descent
that generation and optimization use (:func:`repro.opt.minimize_sum`)
with an empty objective: the descent's first probe and its refinement
loop are the whole solve, and a warm model that passes the descent's
own checks answers with no probe at all.
"""

from __future__ import annotations

import time

from repro.encoding.encoder import EncodingOptions
from repro.encoding.lazy import DEFAULT_LAZY_STRATEGY, LazyRefiner
from repro.network.discretize import DiscreteNetwork
from repro.network.sections import VSSLayout
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.opt.minimize import minimize_sum
from repro.opt.result import STATUS_OPTIMAL
from repro.sat import (
    PortfolioMember,
    ProofLogger,
    Solver,
    SolverConfig,
    check_rup_proof,
)
from repro.tasks.common import (
    build_encoding,
    checked_decode,
    record_descent,
    record_encoding,
)
from repro.tasks.result import TaskResult
from repro.trains.schedule import Schedule


def _logged_member(logger: ProofLogger, profile: bool) -> PortfolioMember:
    """The one member of a proof run's session: its solver logs to
    ``logger`` from before the clauses load, so a load-time conflict
    logs the empty clause."""

    def logged(config: SolverConfig) -> Solver:
        solver = Solver(config)
        solver.attach_proof(logger)
        return solver

    return PortfolioMember("proof", SolverConfig(profile=profile),
                           solver_factory=logged)


def verify_schedule(
    net: DiscreteNetwork,
    schedule: Schedule,
    r_t_min: float,
    layout: VSSLayout | None = None,
    options: EncodingOptions | None = None,
    waypoints: list[tuple[str, str, int]] | None = None,
    with_proof: bool = False,
    parallel: int = 1,
    lazy: bool = True,
    lazy_strategy: str = DEFAULT_LAZY_STRATEGY,
    profile: bool = False,
    warm_model: list[int] | None = None,
    warm_fingerprint: dict | None = None,
) -> TaskResult:
    """Verify ``schedule`` on ``layout`` (default: the pure TTD layout).

    ``waypoints`` optionally pins (train, station, step) triples exactly,
    matching the paper's triple-based schedule encoding.

    The solve is one :func:`~repro.opt.minimize_sum` call with an empty
    objective, for every mode below.

    With ``with_proof``, an UNSAT verdict is backed by a DRAT proof that is
    re-checked by the independent RUP checker; the outcome is reported in
    ``TaskResult.proof_checked``.  (Slower — the checker is deliberately
    naive; use for high-assurance runs.)  Proof logging needs the full
    clause set as fixed premises, so it forces the eager encoder, and
    the descent runs at ``parallel=1`` on one member whose solver logs
    the proof, in this process.

    ``parallel > 1`` runs the solve on a probe session
    (:func:`repro.sat.open_session`): its in-process primary, the serial
    solver, is raced by ``parallel - 1`` forked helpers with
    diversified configurations.  The verdict is provably unchanged, and
    SAT models come only from the primary.  ``parallel=1`` is exactly
    the serial path.

    ``lazy`` (the default) defers the cross-train constraint families to
    the CEGAR check in :mod:`repro.encoding.lazy` — same verdict, usually
    far fewer clauses — and the descent re-probes after every refinement
    round.  Eager verification (``lazy=False``) is one probe.
    ``lazy_strategy`` picks the refiner's grouping/selection cell (see
    :class:`repro.encoding.lazy.LazyRefiner`); every cell yields the
    same verdict.

    ``profile`` turns on the hot-path phase profiler in every solver the
    task creates (the primary and its helpers, eager or lazy); the
    attribution lands as ``profile.*`` metrics (see
    :mod:`repro.obs.profile`), with ≤5 % wall overhead.

    ``warm_model`` is a cached model from a delta-close instance (the
    solve gateway's result cache), with ``warm_fingerprint`` its
    descent fingerprint.  The descent re-checks it against this
    instance (fingerprint, one refinement round for deferred families,
    then every clause); a model that passes is the SAT verdict with zero
    solver calls (``warm_started=True``), and one that fails is dropped
    before the normal solve.  Proof runs (``with_proof``) ignore it — an
    audit-grade verdict must come from the solver.
    """
    start = time.perf_counter()
    reg = MetricsRegistry()
    use_lazy = lazy and not with_proof
    logger = ProofLogger() if with_proof else None
    with trace.span("verify", parallel=parallel, lazy=use_lazy) as task_span:
        if layout is None:
            layout = VSSLayout.pure_ttd(net)
        with trace.span("encode", lazy=use_lazy):
            encoding = build_encoding(
                net, schedule, r_t_min, options, lazy=use_lazy
            )
            encoding.pin_layout(layout)
            if waypoints:
                encoding.pin_waypoints(waypoints)
        record_encoding(reg, encoding)
        refiner = (
            LazyRefiner(encoding, strategy=lazy_strategy) if use_lazy
            else None
        )
        with trace.span("solve", lazy=use_lazy, processes=parallel):
            result = minimize_sum(
                encoding.cnf, [],
                parallel=1 if logger else parallel,
                refine=refiner.refine if refiner else None,
                profile=profile,
                warm_model=None if logger else warm_model,
                warm_fingerprint=warm_fingerprint,
                portfolio_members=(
                    [_logged_member(logger, profile)] if logger else None
                ),
            )
        record_descent(reg, result)
        if refiner is not None:
            reg.absorb_lazy(refiner.stats())
            task_span.add(lazy_rounds=refiner.rounds)
        satisfiable = result.feasible
        proof_checked = None
        if logger is not None and not satisfiable:
            with trace.span("check-proof"):
                proof_checked = check_rup_proof(
                    encoding.cnf.num_vars, encoding.cnf.clauses,
                    logger.steps,
                )
        with trace.span("decode", satisfiable=satisfiable):
            solution = (
                checked_decode(encoding, result.true_set())
                if satisfiable else None
            )
        task_span.add(satisfiable=satisfiable, warm=result.warm_started)
    runtime = time.perf_counter() - start
    reg.set("task.runtime_s", runtime)
    return TaskResult(
        task="verification",
        variables=encoding.paper_equivalent_vars(),
        satisfiable=satisfiable,
        num_sections=(
            solution.num_sections if solution else layout.num_sections
        ),
        time_steps=solution.makespan if solution else None,
        runtime_s=runtime,
        actual_vars=encoding.cnf.num_vars,
        clauses=encoding.cnf.num_clauses,
        solution=solution,
        solve_calls=result.solve_calls,
        solver_stats=result.solver_stats,
        proof_checked=proof_checked,
        portfolio=result.portfolio,
        metrics=reg.as_dict(),
        model=sorted(result.true_set()) if satisfiable else [],
        warm_started=result.warm_started,
        fingerprint=result.fingerprint,
        status=None if result.status == STATUS_OPTIMAL else result.status,
    )
