"""Result type of the minimisation engine."""

from __future__ import annotations

from dataclasses import dataclass, field

#: The descent ran to a proven conclusion (optimum found, or the hard
#: constraints were proven infeasible).
STATUS_OPTIMAL = "optimal"
#: A model exists but optimality was not certified (budget other than the
#: wall clock ran out, e.g. a conflict limit).
STATUS_FEASIBLE = "feasible"
#: The wall-clock deadline ended the descent; the result is best-so-far.
STATUS_TIMEOUT = "timeout"
#: The first probe answered UNKNOWN before any deadline (a conflict
#: limit): feasibility is open, so the infeasible result proves nothing.
STATUS_UNKNOWN = "unknown"
#: The descent was restored from a checkpoint and ended without either
#: improving the restored bound or proving anything new.
STATUS_RESUMED = "resumed"


@dataclass
class DescentResult:
    """Anytime outcome of minimising the true literals in an objective.

    Attributes:
        feasible: whether the hard constraints are satisfiable at all.
        cost: number of objective literals true in the best model found
            (meaningless if not feasible).
        model: the best model, as the list of true literals (DIMACS style).
        proven_optimal: True when a final UNSAT step certified optimality.
        solve_calls: number of SAT solver invocations used.
        strategy: which engine produced the result.
        solver_stats: cumulative solver counters over the whole descent
            (merged across portfolio members when ``parallel > 1``).
        portfolio: summary of the portfolio races when the descent ran with
            ``parallel > 1`` (processes, calls, per-member win counts,
            cumulative wall time); None on the serial path.
        status: one of :data:`STATUS_OPTIMAL` / :data:`STATUS_FEASIBLE` /
            :data:`STATUS_TIMEOUT` / :data:`STATUS_UNKNOWN` /
            :data:`STATUS_RESUMED` — how the descent ended.
        lower_bound: largest cost proven infeasible-below (0 when nothing
            was proven); with ``proven_optimal`` it equals ``cost``.
        upper_bound: cost of the best model found (= ``cost``), or None
            when no model was found.
        resumed: the descent restarted from a checkpoint.
        checkpoint: checkpoint-writer summary (path, writes,
            write_failures, restored bounds); None when checkpointing was
            off.
        warm_started: the descent skipped its initial probe because a
            cached model from a delta-close instance re-validated
            against this formula (see :mod:`repro.gateway`).
        fingerprint: the descent's identity
            (:func:`repro.opt.checkpoint.descent_fingerprint`), recorded
            whenever checkpointing or warm-starting computed it; the
            gateway stores it with cached results so a later warm-start
            can reject incompatible instances up front.
        stages: ``(cost, proven_optimal)`` of every stage that ran, in
            priority order (one entry unless ``then`` objectives were
            given to :func:`repro.opt.minimize.minimize_sum`); empty when
            not feasible.
    """

    feasible: bool
    cost: int = 0
    model: list[int] = field(default_factory=list)
    proven_optimal: bool = False
    solve_calls: int = 0
    strategy: str = ""
    solver_stats: dict = field(default_factory=dict)
    portfolio: dict | None = None
    status: str = ""
    lower_bound: int = 0
    upper_bound: int | None = None
    resumed: bool = False
    checkpoint: dict | None = None
    warm_started: bool = False
    fingerprint: dict | None = None
    stages: list[tuple[int, bool]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.status:
            self.status = (
                STATUS_OPTIMAL if self.proven_optimal or not self.feasible
                else STATUS_FEASIBLE
            )
        if self.upper_bound is None and self.feasible:
            self.upper_bound = self.cost
        if self.proven_optimal and self.feasible:
            self.lower_bound = max(self.lower_bound, self.cost)

    def true_set(self) -> set[int]:
        """The model's true variables as a set (for decoding)."""
        return {lit for lit in self.model if lit > 0}
