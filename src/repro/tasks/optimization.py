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
from repro.logic.totalizer import Totalizer
from repro.network.discretize import DiscreteNetwork
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.opt.maxsat import minimize_sum_core_guided
from repro.opt.minimize import minimize_sum
from repro.opt.result import STATUS_TIMEOUT
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

    ``parallel > 1`` runs the linear/binary descents (including the
    refinement and secondary passes) on the incremental solver service
    (:mod:`repro.sat.service`) — one session per descent pass — whose
    in-process primary walks the serial search while resident helper
    workers race it to UNSAT proofs; the service keeps probing on the
    primary alone when it cannot fork or loses every helper.  The
    core-guided engine stays serial.

    ``timeout_s`` bounds the *whole* task: the primary descent gets the
    remaining wall budget, each later pass gets what is left after the
    ones before it, and passes whose budget is already spent are skipped
    (counted as ``deadline.pass_skipped``).  On expiry the task returns
    the best schedule found so far with ``status="timeout"``.
    ``checkpoint_path``/``resume`` checkpoint the *primary* descent only
    (the refinement and secondary passes optimise different objectives
    and always re-run).

    ``lazy`` defers the cross-train constraint families to the CEGAR
    check (:mod:`repro.encoding.lazy`), shared by the primary and every
    follow-up pass; off by default (see :func:`generate_layout`).
    ``lazy_strategy`` selects the refiner's grouping/selection cell
    (default :data:`~repro.encoding.lazy.DESCENT_LAZY_STRATEGY`, the
    matrix cell that wins for descents).  The core-guided engine stays
    eager.

    ``profile`` turns on the hot-path phase profiler in every solver of
    every pass; attribution lands as ``profile.*`` metrics (see
    :mod:`repro.obs.profile`).

    ``warm_model`` / ``warm_fingerprint`` seed the *primary* descent
    with a cached model from a delta-close instance (the solve
    gateway's result cache; see
    :func:`repro.opt.minimize.minimize_sum`).  Follow-up passes
    optimise different objectives and always run cold.
    """
    if objective not in ("makespan", "total-arrival"):
        raise ValueError(f"unknown objective {objective!r}")
    start = time.perf_counter()
    deadline = (
        time.perf_counter() + timeout_s if timeout_s is not None else None
    )

    def remaining() -> float | None:
        if deadline is None:
            return None
        return max(deadline - time.perf_counter(), 0.0)

    reg = MetricsRegistry()
    use_lazy = lazy and strategy != "core"
    if lazy and not use_lazy:
        trace.event("lazy.unsupported", strategy=strategy)
    with trace.span(
        "optimize", objective=objective, strategy=strategy,
        parallel=parallel, lazy=use_lazy,
    ) as task_span:
        free_schedule = schedule.without_deadlines()
        with trace.span("encode", lazy=use_lazy):
            encoding = build_encoding(
                net, free_schedule, r_t_min, options, lazy=use_lazy
            )
            if objective == "makespan":
                objective_lits = encoding.makespan_objective()
            else:
                objective_lits = encoding.total_arrival_objective()
        record_encoding(reg, encoding)
        refiner = (
            LazyRefiner(encoding, strategy=lazy_strategy)
            if use_lazy else None
        )
        lazy_refine = refiner.refine if refiner is not None else None

        with trace.span("solve", phase="primary"):
            if strategy == "core":
                result = minimize_sum_core_guided(
                    encoding.cnf, objective_lits,
                    wall_deadline_s=remaining(), profile=profile,
                )
            else:
                result = minimize_sum(
                    encoding.cnf, objective_lits, strategy=strategy,
                    parallel=parallel, wall_deadline_s=remaining(),
                    checkpoint_path=checkpoint_path, resume=resume,
                    refine=lazy_refine, profile=profile,
                    warm_model=warm_model,
                    warm_fingerprint=warm_fingerprint,
                )
        record_descent(reg, result)
        solve_calls = result.solve_calls
        portfolio_summary = result.portfolio
        stats_total = dict(result.solver_stats)
        timed_out = result.status == STATUS_TIMEOUT
        was_resumed = result.resumed
        # The follow-up passes rebuild ``result`` without the gateway
        # fields; pin the primary descent's identity and warm verdict.
        warm_hit = result.warm_started
        primary_fingerprint = result.fingerprint

        def pass_budget(phase: str) -> tuple[float | None, bool]:
            """Remaining budget for a follow-up pass, or (0, True) to
            skip it because the deadline is already spent."""
            budget = remaining()
            if budget is not None and budget <= 0:
                reg.inc("deadline.pass_skipped")
                trace.event("deadline.pass_skipped", phase=phase)
                return budget, True
            return budget, False

        refine = (
            result.feasible and refine_arrivals and objective == "makespan"
        )
        if refine:
            budget, skipped = pass_budget("refine-arrivals")
            refine = not skipped
            timed_out = timed_out or skipped
        if refine:
            # Freeze the makespan, then minimise summed arrivals among
            # optima.
            if result.cost < len(objective_lits):
                totalizer = Totalizer(encoding.cnf, objective_lits)
                totalizer.assert_at_most(result.cost)
            arrival_lits = encoding.total_arrival_objective()
            with trace.span("solve", phase="refine-arrivals"):
                refined = minimize_sum(
                    encoding.cnf, arrival_lits, strategy=strategy,
                    parallel=parallel,
                    wall_deadline_s=budget, refine=lazy_refine,
                    profile=profile,
                )
            record_descent(reg, refined)
            _merge_counts(stats_total, refined.solver_stats)
            solve_calls += refined.solve_calls
            timed_out = timed_out or refined.status == STATUS_TIMEOUT
            if refined.feasible:
                # Freeze the arrival optimum so that a subsequent border
                # pass cannot trade it away.
                if refined.cost < len(arrival_lits):
                    arrival_totalizer = Totalizer(
                        encoding.cnf, arrival_lits
                    )
                    arrival_totalizer.assert_at_most(refined.cost)
                result = type(result)(
                    feasible=True,
                    cost=result.cost,
                    model=refined.model,
                    proven_optimal=result.proven_optimal
                    and refined.proven_optimal,
                    solve_calls=solve_calls,
                    strategy=result.strategy,
                    lower_bound=result.lower_bound,
                    resumed=was_resumed,
                )

        borders = result.feasible and minimize_borders_secondary
        if borders:
            budget, skipped = pass_budget("minimize-borders")
            borders = not skipped
            timed_out = timed_out or skipped
        if borders:
            # Freeze the primary optimum, then minimise borders among
            # optima.
            if result.cost < len(objective_lits):
                totalizer = Totalizer(encoding.cnf, objective_lits)
                totalizer.assert_at_most(result.cost)
            with trace.span("solve", phase="minimize-borders"):
                secondary = minimize_sum(
                    encoding.cnf, encoding.border_objective(),
                    strategy=strategy, parallel=parallel,
                    wall_deadline_s=budget, refine=lazy_refine,
                    profile=profile,
                )
            record_descent(reg, secondary)
            _merge_counts(stats_total, secondary.solver_stats)
            solve_calls += secondary.solve_calls
            timed_out = timed_out or secondary.status == STATUS_TIMEOUT
            if secondary.feasible:
                result = type(result)(
                    feasible=True,
                    cost=result.cost,
                    model=secondary.model,
                    proven_optimal=result.proven_optimal
                    and secondary.proven_optimal,
                    solve_calls=solve_calls,
                    strategy=result.strategy,
                    lower_bound=result.lower_bound,
                    resumed=was_resumed,
                )

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
        solve_calls=solve_calls,
        solver_stats=stats_total,
        portfolio=portfolio_summary,
        metrics=reg.as_dict(),
        status=STATUS_TIMEOUT if timed_out else result.status,
        lower_bound=result.lower_bound,
        upper_bound=result.upper_bound,
        resumed=result.resumed,
        model=sorted(result.true_set()) if result.feasible else [],
        warm_started=warm_hit,
        fingerprint=primary_fingerprint,
    )


def _merge_counts(total: dict, extra: dict) -> None:
    """Accumulate numeric counters from ``extra`` into ``total`` in place."""
    for key, value in extra.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if key.startswith("max_"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
