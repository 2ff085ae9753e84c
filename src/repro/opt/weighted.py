"""Weighted minimisation: ``min Σ w_i · x_i`` with positive integer weights.

Real VSS borders are not all equally cheap: a virtual border in plain track
is configuration work, one near a switch interacts with interlocking logic,
and upgrading an existing TTD boundary is free.  This engine minimises a
weighted sum of soft literals by reduction to the unweighted descent
(:func:`repro.opt.minimize.minimize_sum`): each literal enters the
objective ``weight`` times (sound because the descent counts true
*inputs*, and duplicated inputs count multiply).

For the modest weight ranges of layout design (1-10) the duplication
blow-up is acceptable; larger weights should use stratification, which
:func:`minimize_weighted_sum` applies automatically above a threshold by
splitting weights into strata and minimising them lexicographically,
heaviest stratum first, as the stages of one descent.
"""

from __future__ import annotations

import dataclasses

from repro.logic.cnf import CNF
from repro.opt.minimize import minimize_sum
from repro.opt.result import STATUS_TIMEOUT, DescentResult

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
) -> DescentResult:
    """Minimise ``Σ weight * [lit is true]``.

    ``weighted_lits`` is a list of ``(literal, weight)`` pairs with positive
    integer weights.  Returns a :class:`DescentResult` whose ``cost`` is the
    weighted cost of its model.  ``strategy``, ``parallel``,
    ``wall_deadline_s`` (the budget of the whole minimisation), ``refine``
    (the lazy-encoding check callback) and ``profile`` (the hot-path phase
    profiler) go to the one :func:`repro.opt.minimize.minimize_sum`
    descent, whose session solves every stratum.
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
        return minimize_sum(
            cnf, duplicated, strategy=strategy, parallel=parallel,
            wall_deadline_s=wall_deadline_s,
            refine=refine, profile=profile,
        )

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
    result = minimize_sum(
        cnf, strata[ordered[0]], strategy=strategy, parallel=parallel,
        wall_deadline_s=wall_deadline_s, refine=refine, profile=profile,
        then=[strata[weight] for weight in ordered[1:]],
    )
    if not result.feasible:
        return dataclasses.replace(result, strategy="stratified")
    true = set(result.model)
    return dataclasses.replace(
        result,
        cost=sum(weight for lit, weight in weighted_lits if lit in true),
        proven_optimal=bmo and result.proven_optimal,
        strategy="stratified",
        status=STATUS_TIMEOUT if result.status == STATUS_TIMEOUT else "",
        lower_bound=0,
        upper_bound=None,
    )
