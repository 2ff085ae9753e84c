"""Model-improving minimisation: linear descent and binary search.

Both strategies build one incremental totalizer over the objective literals
and then tighten its bound with unit *assumptions* — the solver keeps all its
learned clauses across iterations, which is what makes the loop cheap.

One descent loop serves every ``parallel`` setting, on the probe session
that :func:`repro.sat.service.open_session` starts: one in-process
incremental solver (:class:`~repro.sat.service.SerialSession`) at
``parallel=1``; above it a :class:`~repro.sat.service.SolverService`,
whose in-process primary walks that same serial search while resident
*incremental* helper workers race it to prove each probe UNSAT — the
CNF reaches them once, each probe ships only the assumptions plus the
clause delta, and the primary's low-LBD learned clauses feed them.
How the service degrades (the primary alone, when it cannot fork or
loses every helper) is its decision alone; the descent never sees it.

The descent is *anytime*: ``wall_deadline_s`` bounds the whole descent
(each probe gets the remaining budget, shipped all the way into the
solvers' cooperative wall-deadline checks) and an expired budget ends it
at the best model and bounds proven so far (``status="timeout"``), never
with an exception.  With ``checkpoint_path`` every proven fact is
appended to a JSONL checkpoint (:mod:`repro.opt.checkpoint`), and
``resume=True`` restarts a killed descent from its last proven bound.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.logic.cnf import CNF, clauses_satisfied
from repro.logic.totalizer import Totalizer
from repro.obs import events as obs_events
from repro.obs import trace
from repro.opt.checkpoint import (
    CheckpointState,
    DescentCheckpoint,
    descent_fingerprint,
    load_checkpoint,
    warm_compatible,
)
from repro.opt.result import (
    STATUS_FEASIBLE,
    STATUS_OPTIMAL,
    STATUS_RESUMED,
    STATUS_TIMEOUT,
    DescentResult,
)
from repro.sat.portfolio import PortfolioMember
from repro.sat.service import (
    ProbeOutcome,
    SerialSession,
    SolverService,
    open_session,
)
from repro.sat.types import SolveResult, SolverConfig


class _DescentBudget:
    """Wall-clock budget of one descent; probes get the remainder."""

    def __init__(self, wall_deadline_s: float | None):
        self.total = wall_deadline_s
        self._deadline = (
            time.perf_counter() + wall_deadline_s
            if wall_deadline_s is not None else None
        )

    def remaining(self) -> float | None:
        """Seconds left, or None when the descent is unbounded."""
        if self._deadline is None:
            return None
        return self._deadline - time.perf_counter()

    def exhausted(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def probe_budget(self, per_probe_s: float | None) -> float | None:
        """min(per-probe timeout, remaining wall budget); None = unbounded."""
        remaining = self.remaining()
        if remaining is None:
            return per_probe_s
        remaining = max(remaining, 0.0)
        if per_probe_s is None:
            return remaining
        return min(per_probe_s, remaining)


def _descent_status(
    proven: bool, timed_out: bool, resumed: bool, improved: bool
) -> str:
    if proven:
        return STATUS_OPTIMAL
    if timed_out:
        return STATUS_TIMEOUT
    if resumed and not improved:
        return STATUS_RESUMED
    return STATUS_FEASIBLE


def _note_improved(cost: int) -> None:
    """Record a bound improvement on the trace and the event stream."""
    trace.event("descent.improved", cost=cost)
    obs_events.emit("descent.improved", cost=cost)


def _note_timeout() -> None:
    """Record a descent that ended on its wall budget."""
    obs_events.emit("deadline.hit", scope="descent")


def _checkpoint_summary(
    ckpt: DescentCheckpoint | None, state: CheckpointState | None
) -> dict | None:
    if ckpt is None:
        return None
    out = ckpt.summary()
    if state is not None:
        out["restored_cost"] = state.best_cost
        out["restored_lower"] = state.lower_bound
    return out


def _replayed_result(
    state: CheckpointState, strategy: str, checkpoint_path: str
) -> DescentResult:
    """A finished checkpoint resumes to its result without any probe."""
    feasible = state.best_cost is not None
    trace.event("checkpoint.replayed", cost=state.best_cost)
    return DescentResult(
        feasible=feasible,
        cost=state.best_cost or 0,
        model=list(state.best_model),
        proven_optimal=feasible,
        solve_calls=0,
        strategy=strategy,
        status=STATUS_OPTIMAL,
        lower_bound=state.lower_bound,
        resumed=True,
        checkpoint={
            "path": checkpoint_path, "writes": 0, "write_failures": 0,
            "restored_cost": state.best_cost,
            "restored_lower": state.lower_bound,
        },
    )


def minimize_sum(
    cnf: CNF,
    objective_lits: list[int],
    strategy: str = "linear",
    on_improvement: Callable[[int], None] | None = None,
    parallel: int = 1,
    portfolio_members: list[PortfolioMember] | None = None,
    descent_timeout_s: float | None = None,
    wall_deadline_s: float | None = None,
    checkpoint_path: str | None = None,
    resume: bool = False,
    refine: Callable[[list[int]], int] | None = None,
    profile: bool = False,
    warm_model: list[int] | None = None,
    warm_fingerprint: dict | None = None,
) -> DescentResult:
    """Minimise the number of true literals among ``objective_lits``.

    The hard constraints are the clauses of ``cnf``.  Returns a
    :class:`DescentResult`; when ``feasible`` and ``proven_optimal`` are both
    True the reported cost is the exact minimum.

    ``on_improvement`` (if given) is called with each strictly better cost as
    it is discovered — useful for logging long optimisations.

    ``parallel > 1`` races every probe over that many diversified
    configurations (``portfolio_members`` overrides them) on a solver
    service started once per descent: member 0 solves in process, as
    the serial path does, and the others are resident helper workers
    that can end a probe early with an UNSAT proof; the service keeps
    probing on member 0 alone when it cannot fork or loses every
    helper.  ``parallel=1`` is exactly the serial incremental path
    (``portfolio`` is then None).  ``descent_timeout_s`` bounds
    each *bound-probing* call; ``wall_deadline_s`` bounds the whole
    descent — on expiry the result carries the best model and bounds
    found so far with ``status="timeout"``.

    ``checkpoint_path`` appends every proven fact (improving models,
    lower bounds, the in-process solver's learned unit facts, at any
    ``parallel``) to a JSONL checkpoint;
    ``resume=True`` restores the latest state from that file first —
    raising :class:`repro.opt.checkpoint.CheckpointError` when the file
    belongs to a different formula — and continues the descent from the
    restored bounds (``solve_calls`` counts only the new run's probes).

    ``refine`` hooks a lazy-encoding check into every SAT answer
    (typically :meth:`repro.encoding.lazy.LazyRefiner.refine`): it
    receives the model and returns the number of clauses it appended to
    ``cnf`` (0 = the model is clean).  The descent re-solves after every
    non-zero refinement — the session loads the refinement clauses as
    the next probe's delta — so only *clean* models are ever accepted as
    improvements, and relaxation UNSATs remain sound lower bounds.

    ``profile`` turns on the hot-path phase profiler
    (:mod:`repro.obs.profile`) in every solver the descent creates —
    ignored when ``portfolio_members`` already fixes the configuration.

    ``warm_model`` seeds the descent with a model cached from a
    delta-close instance (the solve gateway's warm-start path,
    :mod:`repro.gateway`): when it still satisfies this formula —
    re-checked literally, clause by clause, plus one ``refine`` round
    for lazily deferred families — the descent skips its initial
    unconstrained probe and descends straight from the replayed cost.
    A model that no longer satisfies is silently discarded (cold
    start).  ``warm_fingerprint`` optionally carries the cached
    descent's :func:`~repro.opt.checkpoint.descent_fingerprint`; a
    mismatch against this formula's fingerprint rejects the model
    before the clause check (variables may have been renumbered).
    Ignored while resuming from a checkpoint.
    """
    if strategy not in ("linear", "binary"):
        raise ValueError(f"unknown strategy {strategy!r}")

    fingerprint = descent_fingerprint(
        cnf.num_vars, cnf.num_clauses, objective_lits, strategy
    )
    state: CheckpointState | None = None
    ckpt: DescentCheckpoint | None = None
    if checkpoint_path:
        if resume:
            state = load_checkpoint(checkpoint_path)
            if state is not None:
                state.check(fingerprint)
                trace.event("checkpoint.resumed", cost=state.best_cost,
                            lower=state.lower_bound,
                            units=len(state.units))
                if state.done_status == STATUS_OPTIMAL:
                    return _replayed_result(state, strategy,
                                            checkpoint_path)
        ckpt = DescentCheckpoint(checkpoint_path)
        ckpt.open(fingerprint, resumed=state is not None)

    warm: CheckpointState | None = None
    if warm_model is not None and state is None:
        warm = _validated_warm_state(
            cnf, objective_lits, warm_model, warm_fingerprint,
            fingerprint, refine,
        )

    budget = _DescentBudget(wall_deadline_s)
    try:
        session = open_session(
            cnf.num_vars, cnf.clauses, parallel, portfolio_members,
            SolverConfig(profile=True) if profile else None,
        )
        try:
            result = _descend(
                session, cnf, objective_lits, strategy, on_improvement,
                descent_timeout_s, budget, ckpt, state, refine, warm,
            )
        finally:
            session.close()
        # Read after close: a service folds in the helper replies that
        # were still in flight when the last probe ended.
        result.solver_stats = session.solver_stats()
        result.portfolio = session.summary()
        result.fingerprint = fingerprint
        return result
    finally:
        if ckpt is not None:
            ckpt.close()


def _validated_warm_state(
    cnf: CNF,
    objective_lits: list[int],
    warm_model: list[int],
    warm_fingerprint: dict | None,
    fingerprint: dict,
    refine: Callable[[list[int]], int] | None,
) -> CheckpointState | None:
    """Re-certify a cached model against *this* formula, or reject it.

    The ladder: fingerprint compatibility (cheap, catches renumbered
    variables), then one lazy-refinement round (deferred families are
    not in ``cnf.clauses`` yet — clauses a dirty model provokes stay in
    the CNF, they are valid constraints either way), then the literal
    clause-by-clause check.  Only a model that passes all three seeds
    the descent.
    """
    if not warm_compatible(warm_fingerprint, fingerprint):
        trace.event("descent.warm_rejected", reason="fingerprint mismatch")
        return None
    if refine is not None and refine(warm_model) > 0:
        trace.event("descent.warm_rejected", reason="deferred violations")
        return None
    true_vars = {lit for lit in warm_model if lit > 0}
    if not clauses_satisfied(cnf.clauses, true_vars):
        trace.event("descent.warm_rejected", reason="clause check failed")
        return None
    # Cached models list true literals only; price the full assignment,
    # or negative objective literals (makespan's ``¬done``) cost nothing.
    model = [
        var if var in true_vars else -var
        for var in range(1, cnf.num_vars + 1)
    ]
    cost = _cost_counter(objective_lits)(model)
    trace.event("descent.warm_start", cost=cost)
    obs_events.emit("descent.warm_start", cost=cost)
    return CheckpointState.warm(cost, model, warm_fingerprint)


def _descend(
    session: SerialSession | SolverService,
    cnf: CNF,
    objective_lits: list[int],
    strategy: str,
    on_improvement: Callable[[int], None] | None,
    descent_timeout_s: float | None,
    budget: _DescentBudget,
    ckpt: DescentCheckpoint | None,
    state: CheckpointState | None,
    refine: Callable[[list[int]], int] | None = None,
    warm: CheckpointState | None = None,
) -> DescentResult:
    """The incremental descent over one probe session (bounds as
    assumptions on a totalizer built into the same clause list)."""
    model_cost = _cost_counter(objective_lits)
    unit_keys: set[tuple[int, ...]] = set()

    def harvest_units() -> None:
        """Persist newly proven level-0 facts (assumption-free units)
        of the session's in-process solver (a service's primary)."""
        if ckpt is None:
            return
        units = session.solver.export_learned(
            max_lbd=0, max_len=1, limit=256, skip_keys=unit_keys
        )
        ckpt.units([u[0] for u in units if len(u) == 1])

    def timed_out_on(outcome: ProbeOutcome) -> bool:
        return (
            outcome.verdict is SolveResult.UNKNOWN
            and (outcome.timed_out or budget.exhausted())
        )

    def checked_probe(
        assumptions: list[int] | tuple[int, ...] = (),
        per_probe_s: float | None = None,
    ) -> ProbeOutcome:
        """One probe plus the lazy solve→check→refine loop.

        SAT is only returned for models that satisfy every deferred
        constraint; an exhausted budget mid-refinement yields a
        timed-out UNKNOWN — a dirty model is never reported as the
        answer.
        """
        nonlocal calls
        outcome = session.probe(assumptions, budget.probe_budget(per_probe_s))
        while (
            outcome.verdict is SolveResult.SAT
            and refine is not None
            and refine(outcome.model or []) > 0
        ):
            if budget.exhausted():
                return ProbeOutcome(verdict=SolveResult.UNKNOWN,
                                    timed_out=True)
            calls += 1
            with trace.span("descent.probe", call=calls, refined=True):
                outcome = session.probe(
                    assumptions, budget.probe_budget(per_probe_s)
                )
        return outcome

    calls = 0
    resumed = state is not None
    start_state = state if state is not None else warm
    improved = False
    timed_out = False
    lower = state.lower_bound if state else 0

    def finish(feasible, cost, model, proven):
        if feasible:
            status = _descent_status(proven, timed_out, resumed, improved)
        else:
            # An UNSAT first solve is a *proven* conclusion; only a
            # timed-out one leaves feasibility genuinely open.
            status = STATUS_TIMEOUT if timed_out else STATUS_OPTIMAL
        if status == STATUS_TIMEOUT:
            _note_timeout()
        if ckpt is not None:
            ckpt.done(status, cost if feasible else None)
        return DescentResult(
            feasible=feasible,
            cost=cost,
            model=model or [],
            proven_optimal=proven,
            solve_calls=calls,
            strategy=strategy,
            status=status,
            lower_bound=lower,
            resumed=resumed,
            checkpoint=_checkpoint_summary(ckpt, state),
            warm_started=warm is not None,
        )

    def improve(model: list[int], harvest: bool = True) -> int:
        """Record an improving model; return its cost."""
        nonlocal improved
        cost = model_cost(model)
        _note_improved(cost)
        improved = True
        # Checkpoint before notifying: a callback that dies (or kills
        # the process) never loses the improvement it was told about.
        if ckpt is not None:
            ckpt.improved(cost, model, calls)
            if harvest:
                harvest_units()
        if on_improvement:
            on_improvement(cost)
        return cost

    if start_state is not None and start_state.best_cost is not None:
        best_model = list(start_state.best_model)
        best_cost = start_state.best_cost
        trace.event("descent.restored", cost=best_cost, lower=lower)
        if on_improvement:
            on_improvement(best_cost)
    else:
        calls += 1
        if budget.exhausted():
            timed_out = True
            return finish(False, 0, [], False)
        with trace.span("descent.probe", call=calls, strategy=strategy):
            first = checked_probe()
        if first.verdict is not SolveResult.SAT:
            timed_out = timed_out_on(first)
            return finish(False, 0, [], False)
        best_model = first.model or []
        best_cost = improve(best_model, harvest=False)
    if best_cost == 0 or not objective_lits:
        return finish(True, best_cost, best_model, True)

    # Build the totalizer *into the session's clause list* so bounds are
    # assumptions; the next probe loads its layers as the delta (the
    # checkpoint fingerprint was taken before this, so resumed runs
    # rebuild byte-identical totalizer literals).
    totalizer = Totalizer(cnf, objective_lits)
    if state is not None and state.units:
        # Assumption-free consequences from the killed run travel with
        # the same delta and warm-start every solver of the session.
        for lit in state.units:
            cnf.add([lit])
        trace.event("checkpoint.units_imported", count=len(state.units))

    if strategy == "linear":
        proven = False
        while best_cost > lower:
            if budget.exhausted():
                timed_out = True
                break
            calls += 1
            with trace.span("descent.probe", call=calls,
                            bound=best_cost - 1) as probe_span:
                probe = checked_probe(
                    [totalizer.bound_literal(best_cost - 1)],
                    descent_timeout_s,
                )
                probe_span.add(verdict=probe.verdict.name)
            if probe.verdict is SolveResult.SAT:
                best_model = probe.model or []
                best_cost = improve(best_model)
            elif probe.verdict is SolveResult.UNSAT:
                proven = True
                lower = best_cost
                if ckpt is not None:
                    ckpt.lower(lower, calls)
                break
            else:  # UNKNOWN under a conflict or wall budget
                timed_out = timed_out_on(probe)
                break
        if best_cost <= lower:
            proven = True
            lower = best_cost
    else:  # binary search on the bound
        low = lower
        high = best_cost
        proven = True
        while low < high:
            if budget.exhausted():
                timed_out = True
                proven = False
                break
            mid = (low + high) // 2
            calls += 1
            with trace.span("descent.probe", call=calls,
                            bound=mid) as probe_span:
                probe = checked_probe(
                    [totalizer.bound_literal(mid)], descent_timeout_s
                )
                probe_span.add(verdict=probe.verdict.name)
            if probe.verdict is SolveResult.SAT:
                best_model = probe.model or []
                high = best_cost = improve(best_model)
            elif probe.verdict is SolveResult.UNSAT:
                low = mid + 1
                if ckpt is not None:
                    ckpt.lower(low, calls)
            else:
                timed_out = timed_out_on(probe)
                proven = False
                break
        lower = max(lower, low)
        if proven:
            lower = best_cost

    return finish(True, best_cost, best_model, proven)


def _cost_counter(objective_lits: list[int]) -> Callable[[list[int]], int]:
    """Build the model→cost function for one descent.

    Precomputes the objective-literal set once (plus per-literal
    multiplicities for the weighted duplication path, where a literal
    occurs ``weight`` times), so each improvement costs one set
    intersection instead of rebuilding ``set(model)`` and re-scanning
    the objective.
    """
    objective_set = set(objective_lits)
    if len(objective_set) == len(objective_lits):
        return lambda model: len(objective_set.intersection(model))
    counts: dict[int, int] = {}
    for lit in objective_lits:
        counts[lit] = counts.get(lit, 0) + 1
    return lambda model: sum(
        counts[lit] for lit in objective_set.intersection(model)
    )
