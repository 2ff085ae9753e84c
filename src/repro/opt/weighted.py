"""Weighted minimisation: ``min Σ w_i · x_i`` with positive integer weights.

Real VSS borders are not all equally cheap: a virtual border in plain track
is configuration work, one near a switch interacts with interlocking logic,
and upgrading an existing TTD boundary is free.  This engine minimises a
weighted sum of soft literals by reduction to the unweighted engines:
each literal enters the totalizer ``weight`` times (sound because the
totalizer counts true *inputs*, and duplicated inputs count multiply).

For the modest weight ranges of layout design (1-10) the duplication
blow-up is acceptable; larger weights should use stratification, which
:func:`minimize_weighted_sum` applies automatically above a threshold by
splitting weights into strata and minimising lexicographically from the
heaviest stratum down.
"""

from __future__ import annotations

import time

from repro.logic.cnf import CNF
from repro.logic.totalizer import Totalizer
from repro.opt.minimize import minimize_sum
from repro.opt.result import STATUS_TIMEOUT, MinimizeResult

#: Weights at or below this are handled by plain duplication.
_DUPLICATION_LIMIT = 16


def minimize_weighted_sum(
    cnf: CNF,
    weighted_lits: list[tuple[int, int]],
    strategy: str = "linear",
    parallel: int = 1,
    wall_deadline_s: float | None = None,
    refine=None,
    profile: bool = False,
) -> MinimizeResult:
    """Minimise ``Σ weight * [lit is true]``.

    ``weighted_lits`` is a list of ``(literal, weight)`` pairs with positive
    integer weights.  Returns a :class:`MinimizeResult` whose ``cost`` is the
    weighted optimum.  ``parallel`` is forwarded to the underlying
    :func:`minimize_sum` descents (raced on the resident solver service
    when ``parallel > 1``).
    ``wall_deadline_s`` bounds the whole minimisation; stratified runs give
    each stratum the remaining budget and propagate a timeout outcome.
    ``refine`` is the lazy-encoding check callback, forwarded to every
    underlying descent (see :func:`repro.opt.minimize.minimize_sum`);
    so is ``profile`` (the hot-path phase profiler).
    """
    for lit, weight in weighted_lits:
        if weight <= 0 or not isinstance(weight, int):
            raise ValueError(
                f"weights must be positive integers, got {weight} for {lit}"
            )

    max_weight = max((w for __, w in weighted_lits), default=0)
    if max_weight <= _DUPLICATION_LIMIT:
        duplicated = [
            lit for lit, weight in weighted_lits for __ in range(weight)
        ]
        result = minimize_sum(
            cnf, duplicated, strategy=strategy, parallel=parallel,
            wall_deadline_s=wall_deadline_s,
            refine=refine, profile=profile,
        )
        return result

    # Stratified: minimise the heavy weights first, freeze, then lighter.
    # Lexicographic-by-stratum equals the weighted optimum exactly when each
    # stratum's weight exceeds the total weight of everything lighter (the
    # classic BMO condition); otherwise the result is an upper bound and
    # ``proven_optimal`` is False.
    strata: dict[int, list[int]] = {}
    for lit, weight in weighted_lits:
        strata.setdefault(weight, []).append(lit)
    ordered = sorted(strata, reverse=True)
    bmo = all(
        weight > sum(w * len(strata[w]) for w in ordered if w < weight)
        for weight in ordered
    )
    deadline = (
        time.perf_counter() + wall_deadline_s
        if wall_deadline_s is not None else None
    )
    total_cost = 0
    last: MinimizeResult | None = None
    calls = 0
    all_optimal = True
    timed_out = False
    for weight in ordered:
        lits = strata[weight]
        remaining = None
        if deadline is not None:
            remaining = max(deadline - time.perf_counter(), 0.0)
            if remaining <= 0 and last is not None:
                # Budget spent between strata: freeze what we have.
                timed_out = True
                break
        result = minimize_sum(
            cnf, lits, strategy=strategy, parallel=parallel,
            wall_deadline_s=remaining,
            refine=refine, profile=profile,
        )
        calls += result.solve_calls
        timed_out = timed_out or result.status == STATUS_TIMEOUT
        if not result.feasible:
            # A timed-out first solve leaves feasibility open — propagate
            # the timeout status instead of claiming proven infeasibility.
            return MinimizeResult(
                feasible=False, solve_calls=calls, strategy="stratified",
                status=(STATUS_TIMEOUT if result.status == STATUS_TIMEOUT
                        else ""),
            )
        all_optimal = all_optimal and result.proven_optimal
        total_cost += weight * result.cost
        if result.cost < len(lits):
            totalizer = Totalizer(cnf, lits)
            totalizer.assert_at_most(result.cost)
        last = result
    assert last is not None
    proven = bmo and all_optimal and not timed_out
    return MinimizeResult(
        feasible=True,
        cost=total_cost,
        model=last.model,
        proven_optimal=proven,
        solve_calls=calls,
        strategy="stratified",
        status=STATUS_TIMEOUT if timed_out else "",
    )
