"""Task 2: generation of VSS layouts.

Given a network with its TTD sections and a schedule with deadlines, find an
assignment of the free ``border_v`` variables — i.e. a VSS layout — under
which the schedule becomes feasible, minimising the number of added virtual
borders (paper §III-C, ``min Σ border_v``).
"""

from __future__ import annotations

import time

from repro.encoding.encoder import EncodingOptions
from repro.encoding.lazy import DESCENT_LAZY_STRATEGY, LazyRefiner
from repro.network.discretize import DiscreteNetwork
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.opt.minimize import minimize_sum
from repro.opt.weighted import minimize_weighted_sum
from repro.tasks.common import (
    build_encoding,
    checked_decode,
    record_descent,
    record_encoding,
)
from repro.tasks.result import TaskResult
from repro.trains.schedule import Schedule


def generate_layout(
    net: DiscreteNetwork,
    schedule: Schedule,
    r_t_min: float,
    strategy: str = "core",
    options: EncodingOptions | None = None,
    border_costs: dict[int, int] | None = None,
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
    """Generate a minimum-VSS layout realising ``schedule``.

    ``strategy`` selects the descent: "core" (the default), "linear" or
    "binary" (see :mod:`repro.opt`).  The optimum of Table I's rows is a
    few borders, so the core-guided search from below needs fewer
    probes than a descent from the first model's cost.

    ``border_costs`` optionally maps free border vertices to positive
    integer installation costs; the objective then becomes the weighted sum
    (paper: unweighted ``min Σ border_v``).  Unlisted vertices cost 1.

    ``parallel > 1`` runs the descent, of every strategy, on the
    incremental solver service (:mod:`repro.sat.service`): member 0
    walks the serial search in process while resident helper workers,
    which keep learned clauses across probes and receive only clause
    deltas, race it to prove each probe UNSAT; the service keeps probing
    on member 0 alone when it cannot fork or loses every helper.

    ``timeout_s`` bounds the descent's wall clock: on expiry the task
    returns the best layout found so far (``status="timeout"`` with the
    proven ``lower_bound``/``upper_bound``) instead of raising.
    ``checkpoint_path`` persists the descent's proven facts to a JSONL
    file as they are found, and ``resume=True`` continues a previously
    killed run of the same strategy from that file (every strategy,
    without ``border_costs``; see :mod:`repro.opt.checkpoint`).

    ``lazy`` defers the cross-train constraint families and lets the
    descent instantiate only the violated instances via the CEGAR check
    (:mod:`repro.encoding.lazy`) — the optimum is provably unchanged.
    ``lazy_strategy`` selects the refiner's grouping/selection cell —
    the optimum is the same in every cell, but descents revisit many
    models, so coarse cells that need fewer refinement rounds win here;
    the default is :data:`~repro.encoding.lazy.DESCENT_LAZY_STRATEGY`
    (measure with ``benchmarks/bench_lazy.py``).

    ``profile`` turns on the hot-path phase profiler in every solver the
    descent creates; attribution lands as ``profile.*`` metrics (see
    :mod:`repro.obs.profile`).

    ``warm_model`` / ``warm_fingerprint`` seed the descent with a cached
    model from a delta-close instance (the solve gateway's result
    cache): after re-certification against this formula the descent
    starts from the cached layout's cost instead of an unconstrained
    probe (see :func:`repro.opt.minimize.minimize_sum`).  The weighted
    objective ignores the hint.
    """
    start = time.perf_counter()
    reg = MetricsRegistry()
    with trace.span(
        "generate", strategy=strategy, parallel=parallel, lazy=lazy
    ) as task_span:
        with trace.span("encode", lazy=lazy):
            encoding = build_encoding(
                net, schedule, r_t_min, options, lazy=lazy
            )
            objective = encoding.border_objective()
        record_encoding(reg, encoding)
        refiner = (
            LazyRefiner(encoding, strategy=lazy_strategy) if lazy else None
        )
        refine = refiner.refine if refiner is not None else None

        with trace.span("solve", strategy=strategy):
            if border_costs is not None:
                free = net.free_border_candidates()
                weighted = [
                    (var, border_costs.get(vertex, 1))
                    for var, vertex in zip(objective, free)
                ]
                result = minimize_weighted_sum(
                    encoding.cnf, weighted, strategy=strategy,
                    parallel=parallel,
                    wall_deadline_s=timeout_s, refine=refine,
                    profile=profile,
                )
            else:
                result = minimize_sum(
                    encoding.cnf, objective, strategy=strategy,
                    parallel=parallel, wall_deadline_s=timeout_s,
                    checkpoint_path=checkpoint_path, resume=resume,
                    refine=refine, profile=profile,
                    warm_model=warm_model,
                    warm_fingerprint=warm_fingerprint,
                )
        record_descent(reg, result)
        if refiner is not None:
            reg.absorb_lazy(refiner.stats())

        solution = None
        with trace.span("decode", satisfiable=result.feasible):
            if result.feasible:
                solution = checked_decode(encoding, result.true_set())
        task_span.add(satisfiable=result.feasible, cost=result.cost)
    runtime = time.perf_counter() - start
    reg.set("task.runtime_s", runtime)
    return TaskResult(
        task="generation",
        variables=encoding.paper_equivalent_vars(),
        satisfiable=result.feasible,
        num_sections=(
            solution.num_sections if solution else net.num_ttds
        ),
        time_steps=solution.makespan if solution else None,
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
