"""Task 3: schedule optimization using the potential of VSS.

Arrival deadlines are dropped; only departures and stops remain fixed.  The
solver chooses a VSS layout *and* the train routes, minimising the number of
time steps until all trains are done (paper §III-C, ``min Σ_t ¬done^t``).
Optionally the number of added borders is minimised as a secondary objective
among the makespan-optimal solutions.
"""

from __future__ import annotations

import time

from repro.encoding.encoder import EncodingOptions
from repro.encoding.lazy import DESCENT_LAZY_STRATEGY, LazyRefiner
from repro.network.discretize import DiscreteNetwork
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.opt.minimize import minimize_sum
from repro.tasks.common import (
    build_encoding,
    checked_decode,
    record_descent,
    record_encoding,
)
from repro.tasks.result import TaskResult
from repro.trains.schedule import Schedule


def optimize_schedule(
    net: DiscreteNetwork,
    schedule: Schedule,
    r_t_min: float,
    strategy: str = "linear",
    minimize_borders_secondary: bool = False,
    options: EncodingOptions | None = None,
    objective: str = "makespan",
    refine_arrivals: bool = False,
    parallel: int = 1,
    timeout_s: float | None = None,
    checkpoint_path: str | None = None,
    resume: bool = False,
    lazy: bool = False,
    lazy_strategy: str = DESCENT_LAZY_STRATEGY,
    profile: bool = False,
    warm_model: list[int] | None = None,
    warm_fingerprint: dict | None = None,
) -> TaskResult:
    """Find layout + routes optimising ``schedule`` (deadlines dropped).

    ``objective`` selects the paper's §III-C efficiency reading:

    * ``"makespan"`` (default) — ``min Σ_t ¬done^t``: minimise the number of
      steps until *all* trains are done;
    * ``"total-arrival"`` — ``min Σ_tr Σ_t ¬done_tr^t``: minimise the summed
      arrival times of the individual trains.

    ``refine_arrivals`` (with the makespan objective) lexicographically
    minimises the summed arrival times *among makespan-optimal solutions* —
    this reproduces the shape of the paper's Fig. 2b, where trains 2 and 3
    arrive well before the 7-step makespan.

    Set ``minimize_borders_secondary`` to additionally minimise VSS borders
    among objective-optimal solutions (applied last).

    The objective and these follow-ups are the stages of one
    lexicographic descent (:func:`repro.opt.minimize.minimize_sum` with
    ``then``) on one probe session: each stage's optimum is frozen with
    one unit clause, and the next stage starts from that stage's best
    model.  ``strategy`` ("linear", "binary" or "core") runs every stage;
    it defaults to "linear", because the core-guided search from below
    does not finish Nordlandsbanen's border stage in minutes.

    ``parallel > 1`` runs that session on the incremental solver service
    (:mod:`repro.sat.service`), whose in-process primary walks the
    serial search while resident helper workers race it to UNSAT
    proofs; the service keeps probing on the primary alone when it
    cannot fork or loses every helper.

    ``timeout_s`` bounds the *whole* task: the descent gets what is left
    after encoding, and stages whose budget is already spent are skipped
    (counted as ``deadline.pass_skipped``).  On expiry the task returns
    the best schedule found so far with ``status="timeout"``.
    ``checkpoint_path``/``resume`` checkpoint the *first* stage only (the
    later stages optimise different objectives and always re-run).

    ``lazy`` defers the cross-train constraint families to the CEGAR
    check (:mod:`repro.encoding.lazy`), shared by every stage; off by
    default (see :func:`generate_layout`).  ``lazy_strategy`` selects the
    refiner's grouping/selection cell (default
    :data:`~repro.encoding.lazy.DESCENT_LAZY_STRATEGY`, the matrix cell
    that wins for descents).

    ``profile`` turns on the hot-path phase profiler in every solver of
    the session; attribution lands as ``profile.*`` metrics (see
    :mod:`repro.obs.profile`).

    ``warm_model`` / ``warm_fingerprint`` seed the *first* stage with a
    cached model from a delta-close instance (the solve gateway's result
    cache; see :func:`repro.opt.minimize.minimize_sum`).
    """
    if objective not in ("makespan", "total-arrival"):
        raise ValueError(f"unknown objective {objective!r}")
    start = time.perf_counter()
    reg = MetricsRegistry()
    with trace.span(
        "optimize", objective=objective, strategy=strategy,
        parallel=parallel, lazy=lazy,
    ) as task_span:
        free_schedule = schedule.without_deadlines()
        with trace.span("encode", lazy=lazy):
            encoding = build_encoding(
                net, free_schedule, r_t_min, options, lazy=lazy
            )
            if objective == "makespan":
                objective_lits = encoding.makespan_objective()
            else:
                objective_lits = encoding.total_arrival_objective()
        record_encoding(reg, encoding)
        then: list[list[int]] = []
        if refine_arrivals and objective == "makespan":
            then.append(encoding.total_arrival_objective())
        if minimize_borders_secondary:
            then.append(encoding.border_objective())
        refiner = (
            LazyRefiner(encoding, strategy=lazy_strategy) if lazy else None
        )
        budget_s = None
        if timeout_s is not None:
            budget_s = max(timeout_s - (time.perf_counter() - start), 0.0)

        with trace.span("solve", strategy=strategy, stages=1 + len(then)):
            result = minimize_sum(
                encoding.cnf, objective_lits, strategy=strategy,
                parallel=parallel, wall_deadline_s=budget_s,
                checkpoint_path=checkpoint_path, resume=resume,
                refine=refiner.refine if refiner is not None else None,
                profile=profile,
                warm_model=warm_model,
                warm_fingerprint=warm_fingerprint,
                then=then,
            )
        record_descent(reg, result)
        if result.feasible and len(result.stages) <= len(then):
            reg.inc("deadline.pass_skipped",
                    1 + len(then) - len(result.stages))
        if refiner is not None:
            reg.absorb_lazy(refiner.stats())
        solution = None
        with trace.span("decode", satisfiable=result.feasible):
            if result.feasible:
                solution = checked_decode(encoding, result.true_set())
        task_span.add(satisfiable=result.feasible, cost=result.cost)
    runtime = time.perf_counter() - start
    reg.set("task.runtime_s", runtime)
    reported_steps = None
    if result.feasible:
        reported_steps = (
            result.cost if objective == "makespan" else solution.makespan
        )
    return TaskResult(
        task="optimization",
        variables=encoding.paper_equivalent_vars(),
        satisfiable=result.feasible,
        num_sections=(
            solution.num_sections if solution else net.num_ttds
        ),
        time_steps=reported_steps,
        runtime_s=runtime,
        actual_vars=encoding.cnf.num_vars,
        clauses=encoding.cnf.num_clauses,
        solution=solution,
        objective_value=result.cost if result.feasible else None,
        proven_optimal=result.proven_optimal,
        solve_calls=result.solve_calls,
        solver_stats=result.solver_stats,
        portfolio=result.portfolio,
        metrics=reg.as_dict(),
        status=result.status,
        lower_bound=result.lower_bound,
        upper_bound=result.upper_bound,
        resumed=result.resumed,
        model=sorted(result.true_set()) if result.feasible else [],
        warm_started=result.warm_started,
        fingerprint=result.fingerprint,
    )
