"""Task 1: verification of train schedules on ETCS Level 3 layouts.

Given a network, a fixed TTD/VSS layout, and a schedule (with arrival
deadlines), decide whether routes exist that realise the schedule.  SAT means
"yes, here is a witness"; UNSAT is a *proof* that no combination of routes,
speeds and waiting times works (paper §III-C, first task).
"""

from __future__ import annotations

import time

from repro.encoding.encoder import EncodingOptions
from repro.encoding.lazy import (
    DEFAULT_LAZY_STRATEGY,
    LazyRefiner,
    solve_lazy_verification,
)
from repro.logic.cnf import clauses_satisfied
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.opt.checkpoint import descent_fingerprint, warm_compatible
from repro.sat import (
    ProofLogger,
    SolverConfig,
    SolveResult,
    check_rup_proof,
    solve_portfolio,
)
from repro.network.discretize import DiscreteNetwork
from repro.network.sections import VSSLayout
from repro.tasks.common import (
    build_encoding,
    checked_decode,
    record_encoding,
    record_session,
    record_solver,
)
from repro.tasks.result import TaskResult
from repro.trains.schedule import Schedule


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
    warm_hints: list[int] | None = None,
    warm_fingerprint: dict | None = None,
) -> TaskResult:
    """Verify ``schedule`` on ``layout`` (default: the pure TTD layout).

    ``waypoints`` optionally pins (train, station, step) triples exactly,
    matching the paper's triple-based schedule encoding.

    With ``with_proof``, an UNSAT verdict is backed by a DRAT proof that is
    re-checked by the independent RUP checker; the outcome is reported in
    ``TaskResult.proof_checked``.  (Slower — the checker is deliberately
    naive; use for high-assurance runs.)

    ``parallel > 1`` runs the solve on a probe session
    (:func:`repro.sat.open_session`): its in-process primary, the serial
    solver, is raced by ``parallel - 1`` forked helpers with
    diversified configurations.  The verdict is provably unchanged, and
    SAT models come only from the primary.  ``parallel=1`` is exactly
    the serial path.

    ``lazy`` (the default) defers the cross-train constraint families to
    the CEGAR loop in :mod:`repro.encoding.lazy` — same verdict, usually
    far fewer clauses — and probes the session once per refinement
    round.  Eager verification (``lazy=False``) is one probe
    (:func:`repro.sat.solve_portfolio`).  Proof logging needs the full
    clause set as fixed premises, so it forces the eager encoder, and
    the proof comes from a solver in this process at every
    ``parallel``.  ``lazy_strategy`` picks the refiner's
    grouping/selection cell (see :class:`repro.encoding.lazy.LazyRefiner`);
    every cell yields the same verdict.

    ``profile`` turns on the hot-path phase profiler in every solver the
    task creates (the primary and its helpers, eager or lazy); the
    attribution lands as ``profile.*`` metrics (see
    :mod:`repro.obs.profile`), with ≤5 % wall overhead.

    ``warm_hints`` is a cached model from a delta-close instance (the
    solve gateway's result cache): the task first tries *witness
    replay* — re-certifying the hinted assignment against this
    instance's clauses (plus one lazy-refinement round for deferred
    families).  A hint that survives yields the SAT verdict with zero
    solver calls (``warm_started=True``); a hint that fails any check
    is discarded and the normal solve runs.  ``warm_fingerprint`` (the
    cached result's :func:`repro.opt.checkpoint.descent_fingerprint`)
    rejects hints from an incompatible variable space up front.  Proof
    runs (``with_proof``) never replay — an audit-grade verdict must
    come from the solver.
    """
    start = time.perf_counter()
    reg = MetricsRegistry()
    use_lazy = lazy and not with_proof
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

        fingerprint = descent_fingerprint(
            encoding.cnf.num_vars, encoding.cnf.num_clauses, [], "verify"
        )
        solve_calls = 1
        proof_checked = None
        portfolio_summary = None
        solver_stats: dict = {}
        warm_used = False
        if (
            warm_hints
            and not with_proof
            and warm_compatible(warm_fingerprint, fingerprint)
        ):
            hint_vars = {lit for lit in warm_hints if lit > 0}
            with trace.span("warm-replay") as replay_span:
                clean = True
                if use_lazy and encoding.deferred_families:
                    # Deferred constraint families are not in the clause
                    # list yet; one refinement round materialises exactly
                    # the ones the hinted model would violate.  Clauses it
                    # adds are valid constraints and stay for the fallback
                    # solve.
                    clean = (
                        LazyRefiner(encoding, strategy=lazy_strategy)
                        .refine(sorted(hint_vars)) == 0
                    )
                warm_used = clean and clauses_satisfied(
                    encoding.cnf.clauses, hint_vars
                )
                replay_span.add(accepted=warm_used)
        if warm_used:
            # Witness replay: the cached model satisfies every clause of
            # *this* instance, so SAT is certified without a solver call.
            true_vars = hint_vars
            solve_calls = 0
            reg.inc("task.warm_hits")
        elif use_lazy:
            with trace.span("solve", lazy=True, processes=parallel):
                outcome = solve_lazy_verification(
                    encoding, parallel=parallel, strategy=lazy_strategy,
                    profile=profile,
                )
            true_vars = outcome.true_vars
            solve_calls = outcome.solve_calls
            solver_stats = outcome.solver_stats
            portfolio_summary = outcome.portfolio
            record_solver(reg, outcome.solver, solver_stats)
            reg.absorb_lazy(outcome.refiner.stats())
            task_span.add(lazy_rounds=outcome.refiner.rounds)
        else:
            logger = ProofLogger() if with_proof else None
            with trace.span("solve", processes=parallel):
                answer, session = solve_portfolio(
                    encoding.cnf.num_vars, encoding.cnf.clauses, parallel,
                    base=SolverConfig(profile=True) if profile else None,
                    proof=logger,
                )
            true_vars = (
                {lit for lit in answer.model if lit > 0}
                if answer.verdict is SolveResult.SAT
                else None
            )
            solver_stats = session.solver_stats()
            portfolio_summary = session.summary()
            record_solver(reg, session.solver, solver_stats)
            if logger is not None and true_vars is None:
                with trace.span("check-proof"):
                    proof_checked = check_rup_proof(
                        encoding.cnf.num_vars, encoding.cnf.clauses,
                        logger.steps,
                    )
        record_session(reg, portfolio_summary)
        satisfiable = true_vars is not None
        with trace.span("decode", satisfiable=satisfiable):
            solution = (
                checked_decode(encoding, true_vars) if satisfiable else None
            )
        model_lits = sorted(true_vars) if satisfiable else []
        task_span.add(satisfiable=satisfiable, warm=warm_used)
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
        solve_calls=solve_calls,
        solver_stats=solver_stats,
        proof_checked=proof_checked,
        portfolio=portfolio_summary,
        metrics=reg.as_dict(),
        model=model_lits,
        warm_started=warm_used,
        fingerprint=fingerprint,
    )
