"""Model-improving minimisation: linear descent and binary search.

Both strategies build one incremental totalizer over the objective literals
and then tighten its bound with unit *assumptions* — the solver keeps all its
learned clauses across iterations, which is what makes the loop cheap.

With ``parallel > 1`` every solve of the descent is raced over diversified
solver configurations.  Two parallel engines exist:

* ``persistent=True`` (the default on the task layer) keeps a resident
  portfolio of *incremental* workers for the whole descent
  (:class:`repro.sat.service.SolverService`): the CNF is shipped once at
  session start, each probe sends only the assumptions plus the clause
  delta, and workers keep learned clauses, activities, and phases across
  probes — racing *and* incrementality.  Low-LBD clauses harvested from
  each probe are shared between members for a warm start.
* ``persistent=False`` forks fresh workers per probe via
  :func:`repro.sat.portfolio.solve_portfolio` — every probe is a
  from-scratch solve.  This path also serves as the graceful fallback
  whenever the service cannot start (no ``fork``) or loses all its
  workers mid-descent.

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
from repro.sat.portfolio import (
    PortfolioMember,
    diversified_members,
    solve_portfolio,
)
from repro.sat.service import ProbeOutcome, ServiceError, SolverService
from repro.sat.solver import Solver
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
    solver: Solver | None = None,
    on_improvement: Callable[[int], None] | None = None,
    parallel: int = 1,
    portfolio_members: list[PortfolioMember] | None = None,
    descent_timeout_s: float | None = None,
    persistent: bool = False,
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

    ``parallel > 1`` races every solve over that many diversified
    configurations (``portfolio_members`` overrides them); with
    ``persistent=True`` the race runs on a resident incremental solver
    service that is started once per descent and falls back to the
    one-shot portfolio when unavailable.  ``descent_timeout_s`` bounds
    each *bound-probing* call; ``wall_deadline_s`` bounds the whole
    descent — on expiry the result carries the best model and bounds
    found so far with ``status="timeout"``.  ``parallel=1`` is exactly
    the serial incremental path.

    ``checkpoint_path`` appends every proven fact (improving models,
    lower bounds, learned unit facts) to a JSONL checkpoint;
    ``resume=True`` restores the latest state from that file first —
    raising :class:`repro.opt.checkpoint.CheckpointError` when the file
    belongs to a different formula — and continues the descent from the
    restored bounds (``solve_calls`` counts only the new run's probes).

    ``refine`` hooks a lazy-encoding check into every SAT answer
    (typically :meth:`repro.encoding.lazy.LazyRefiner.refine`): it
    receives the model and returns the number of clauses it appended to
    ``cnf`` (0 = the model is clean).  The descent re-solves after every
    non-zero refinement — incrementally on the serial path, as an
    O(delta) service probe or a re-hoisted one-shot race on the parallel
    paths — so only *clean* models are ever accepted as improvements,
    and relaxation UNSATs remain sound lower bounds.

    ``profile`` turns on the hot-path phase profiler
    (:mod:`repro.obs.profile`) in every solver the descent creates —
    ignored when an explicit ``solver`` or ``portfolio_members`` already
    fixes the configuration.

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
    if profile:
        if parallel > 1 and portfolio_members is None:
            portfolio_members = diversified_members(
                parallel, base=SolverConfig(profile=True)
            )
        elif parallel <= 1 and solver is None:
            solver = Solver(SolverConfig(profile=True))
    try:
        if parallel > 1:
            result = _minimize_sum_portfolio(
                cnf, objective_lits, strategy, on_improvement,
                parallel, portfolio_members, descent_timeout_s, persistent,
                budget, ckpt, state, refine, warm,
            )
        else:
            result = _minimize_sum_serial(
                cnf, objective_lits, strategy, solver, on_improvement,
                descent_timeout_s, budget, ckpt, state, refine, warm,
            )
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


def _minimize_sum_serial(
    cnf: CNF,
    objective_lits: list[int],
    strategy: str,
    solver: Solver | None,
    on_improvement: Callable[[int], None] | None,
    descent_timeout_s: float | None,
    budget: _DescentBudget,
    ckpt: DescentCheckpoint | None,
    state: CheckpointState | None,
    refine: Callable[[list[int]], int] | None = None,
    warm: CheckpointState | None = None,
) -> DescentResult:
    """The serial incremental descent (one solver, bounds as assumptions)."""
    solver = cnf.to_solver(solver)
    progress = obs_events.progress_callback()
    if progress is not None:
        solver.on_progress(progress)
    if obs_events.enabled():
        solver.on_event(obs_events.emit)
    model_cost = _cost_counter(objective_lits)
    configured_deadline = solver.config.wall_deadline_s
    unit_keys: set[tuple[int, ...]] = set()
    shipped = len(cnf.clauses)

    def ship_new() -> None:
        """Feed clauses appended to the CNF (totalizer layers, lazy
        refinements) into the incremental solver."""
        nonlocal shipped
        for clause in cnf.clauses[shipped:]:
            solver.add_clause(clause)
        shipped = len(cnf.clauses)

    def arm(per_probe_s: float | None = None) -> bool:
        """Point the solver deadline at the remaining budget.

        Returns False when the descent budget is already spent (the
        caller then stops without issuing the probe).
        """
        if budget.exhausted():
            return False
        effective = budget.probe_budget(per_probe_s)
        if effective is None:
            solver.config.wall_deadline_s = configured_deadline
        elif configured_deadline is None:
            solver.config.wall_deadline_s = effective
        else:
            solver.config.wall_deadline_s = min(configured_deadline,
                                                effective)
        return True

    def harvest_units() -> None:
        """Persist newly proven level-0 facts (assumption-free units)."""
        if ckpt is None:
            return
        units = solver.export_learned(max_lbd=0, max_len=1, limit=256,
                                      skip_keys=unit_keys)
        ckpt.units([u[0] for u in units if len(u) == 1])

    def probe_timed_out(verdict: SolveResult) -> bool:
        return (
            verdict is SolveResult.UNKNOWN
            and (solver.last_stats.deadline_hits > 0 or budget.exhausted())
        )

    def checked_solve(
        assumptions: list[int] | tuple[int, ...] = (),
        per_probe_s: float | None = None,
    ) -> SolveResult:
        """One probe plus the lazy solve→check→refine loop.

        SAT is only returned for models that satisfy every deferred
        constraint; an exhausted budget mid-refinement yields UNKNOWN —
        a dirty model is never reported as the answer.
        """
        nonlocal calls
        verdict = solver.solve(list(assumptions))
        while (
            verdict is SolveResult.SAT
            and refine is not None
            and refine(solver.model()) > 0
        ):
            ship_new()
            if not arm(per_probe_s):
                return SolveResult.UNKNOWN
            calls += 1
            with trace.span("descent.probe", call=calls, refined=True):
                verdict = solver.solve(list(assumptions))
        return verdict

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
            solver_stats=solver.stats.as_dict(),
            status=status,
            lower_bound=lower,
            resumed=resumed,
            checkpoint=_checkpoint_summary(ckpt, state),
            warm_started=warm is not None,
        )

    try:
        if start_state is not None and start_state.best_cost is not None:
            best_model = list(start_state.best_model)
            best_cost = start_state.best_cost
            trace.event("descent.restored", cost=best_cost, lower=lower)
            if on_improvement:
                on_improvement(best_cost)
        else:
            calls += 1
            if not arm():
                timed_out = True
                return finish(False, 0, [], False)
            with trace.span("descent.probe", call=calls,
                            strategy=strategy):
                verdict = checked_solve()
            if verdict is not SolveResult.SAT:
                timed_out = probe_timed_out(verdict)
                return finish(False, 0, [], False)
            best_model = solver.model()
            best_cost = model_cost(best_model)
            _note_improved(best_cost)
            improved = True
            # Checkpoint before notifying: a callback that dies (or kills
            # the process) never loses the improvement it was told about.
            if ckpt is not None:
                ckpt.improved(best_cost, best_model, calls)
            if on_improvement:
                on_improvement(best_cost)
        if best_cost == 0 or not objective_lits:
            return finish(True, best_cost, best_model, True)

        # Build the totalizer *into the same solver* so bounds are
        # assumptions (the checkpoint fingerprint was taken before this,
        # so resumed runs rebuild byte-identical totalizer literals).
        totalizer = Totalizer(cnf, objective_lits)
        ship_new()
        if state is not None and state.units:
            imported = solver.import_clauses(
                [[lit] for lit in state.units]
            )
            trace.event("checkpoint.units_imported", count=imported)

        if strategy == "linear":
            proven = False
            while best_cost > lower:
                if not arm(descent_timeout_s):
                    timed_out = True
                    break
                calls += 1
                with trace.span("descent.probe", call=calls,
                                bound=best_cost - 1) as probe_span:
                    verdict = checked_solve(
                        [totalizer.bound_literal(best_cost - 1)],
                        descent_timeout_s,
                    )
                    probe_span.add(verdict=verdict.name)
                if verdict is SolveResult.SAT:
                    best_model = solver.model()
                    best_cost = model_cost(best_model)
                    _note_improved(best_cost)
                    improved = True
                    if ckpt is not None:
                        ckpt.improved(best_cost, best_model, calls)
                        harvest_units()
                    if on_improvement:
                        on_improvement(best_cost)
                elif verdict is SolveResult.UNSAT:
                    proven = True
                    lower = best_cost
                    if ckpt is not None:
                        ckpt.lower(lower, calls)
                    break
                else:  # UNKNOWN under a conflict or wall budget
                    timed_out = probe_timed_out(verdict)
                    break
            if best_cost <= lower:
                proven = True
                lower = best_cost
        else:  # binary search on the bound
            low = lower
            high = best_cost
            proven = True
            while low < high:
                if not arm(descent_timeout_s):
                    timed_out = True
                    proven = False
                    break
                mid = (low + high) // 2
                calls += 1
                with trace.span("descent.probe", call=calls,
                                bound=mid) as probe_span:
                    verdict = checked_solve(
                        [totalizer.bound_literal(mid)], descent_timeout_s
                    )
                    probe_span.add(verdict=verdict.name)
                if verdict is SolveResult.SAT:
                    best_model = solver.model()
                    high = model_cost(best_model)
                    best_cost = high
                    _note_improved(best_cost)
                    improved = True
                    if ckpt is not None:
                        ckpt.improved(best_cost, best_model, calls)
                        harvest_units()
                    if on_improvement:
                        on_improvement(best_cost)
                elif verdict is SolveResult.UNSAT:
                    low = mid + 1
                    if ckpt is not None:
                        ckpt.lower(low, calls)
                else:
                    timed_out = probe_timed_out(verdict)
                    proven = False
                    break
            lower = max(lower, low)
            if proven:
                lower = best_cost

        return finish(True, best_cost, best_model, proven)
    finally:
        solver.config.wall_deadline_s = configured_deadline


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


def _minimize_sum_portfolio(
    cnf: CNF,
    objective_lits: list[int],
    strategy: str,
    on_improvement: Callable[[int], None] | None,
    parallel: int,
    members: list[PortfolioMember] | None,
    descent_timeout_s: float | None,
    persistent: bool,
    budget: _DescentBudget,
    ckpt: DescentCheckpoint | None,
    state: CheckpointState | None,
    refine: Callable[[list[int]], int] | None = None,
    warm: CheckpointState | None = None,
) -> DescentResult:
    """Portfolio-routed descent: every solve is a race over diversified
    configurations; the deterministic portfolio keeps the result a pure
    function of the problem (see :mod:`repro.sat.portfolio`).

    With ``persistent`` the probes run on a resident
    :class:`~repro.sat.service.SolverService`; any :class:`ServiceError`
    (fork unavailable, every worker dead) downgrades the remaining
    probes to the one-shot portfolio and is recorded in the result's
    ``portfolio["service"]`` summary.
    """
    members = members or diversified_members(parallel)
    model_cost = _cost_counter(objective_lits)
    winners: dict[str, int] = {}
    wall = 0.0
    merged: dict[str, int | float] = {}
    service: SolverService | None = None
    service_info: dict = {}
    # Hoisted clause snapshot for the one-shot path: refreshed only when
    # the CNF has grown (totalizer layers, lazy refinement clauses)
    # instead of re-copying the list on every race call.
    clause_snapshot = list(cnf.clauses)

    if persistent:
        try:
            service = SolverService(
                cnf.num_vars, cnf.clauses, members=members,
                processes=parallel,
            ).start()
        except ServiceError as exc:
            service = None
            service_info["fallback"] = str(exc)
            trace.event("service.fallback", error=str(exc))

    def downgrade(exc: ServiceError) -> None:
        """Retire the service and continue one-shot from here on."""
        nonlocal service
        assert service is not None
        service_info.update(service.summary())
        service_info["fallback"] = str(exc)
        trace.event("service.fallback", error=str(exc))
        service.close()
        service = None

    def absorb(stats: dict) -> None:
        for key, value in stats.items():
            merged[key] = merged.get(key, 0) + value

    def race(assumptions=(), timeout_s=None, bound=None):
        nonlocal wall, clause_snapshot
        if service is not None:
            try:
                outcome = service.probe(assumptions, timeout_s=timeout_s)
            except ServiceError as exc:
                downgrade(exc)
            else:
                wall += outcome.wall_time_s
                if outcome.winner_name:
                    winners[outcome.winner_name] = (
                        winners.get(outcome.winner_name, 0) + 1
                    )
                absorb(outcome.stats)
                return outcome
        if len(clause_snapshot) != len(cnf.clauses):
            clause_snapshot = list(cnf.clauses)
        with trace.span("descent.race", bound=bound) as race_span:
            result = solve_portfolio(
                cnf.num_vars, clause_snapshot, assumptions=assumptions,
                members=members, processes=parallel, timeout_s=timeout_s,
            )
            race_span.add(verdict=result.verdict.name)
        if result.stats is not None:
            wall += result.stats.wall_time_s
            if result.stats.winner_name:
                winners[result.stats.winner_name] = (
                    winners.get(result.stats.winner_name, 0) + 1
                )
            absorb(result.stats.merged_counters())
        return result

    def summary(calls: int) -> dict:
        out = {
            "processes": parallel,
            "calls": calls,
            "winners": dict(winners),
            "wall_time_s": wall,
            "persistent": persistent,
        }
        info = dict(service_info)
        if service is not None:
            info.update(service.summary())
        if info:
            out["service"] = info
        return out

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
            solver_stats=dict(merged),
            portfolio=summary(calls),
            status=status,
            lower_bound=lower,
            resumed=resumed,
            checkpoint=_checkpoint_summary(ckpt, state),
            warm_started=warm is not None,
        )

    def probe_timed_out(outcome, had_timeout: bool) -> bool:
        return (
            getattr(outcome, "timed_out", False)
            or had_timeout
            or budget.exhausted()
        )

    def checked_race(assumptions=(), per_probe_s=None, bound=None):
        """One race plus the lazy solve→check→refine loop.

        SAT outcomes are re-raced until the model is clean (the service
        ships each refinement as the next probe's delta; the one-shot
        path re-hoists its snapshot); an exhausted budget mid-refinement
        yields a timed-out UNKNOWN, never a dirty model.
        """
        nonlocal calls
        outcome = race(assumptions, budget.probe_budget(per_probe_s),
                       bound)
        while (
            outcome.verdict is SolveResult.SAT
            and refine is not None
            and refine(outcome.model or []) > 0
        ):
            if budget.exhausted():
                return ProbeOutcome(
                    verdict=SolveResult.UNKNOWN, timed_out=True
                )
            calls += 1
            outcome = race(assumptions, budget.probe_budget(per_probe_s),
                           bound)
        return outcome

    try:
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
            first_budget = budget.probe_budget(None)
            first = checked_race()
            if first.verdict is not SolveResult.SAT:
                if first.verdict is SolveResult.UNKNOWN:
                    timed_out = probe_timed_out(
                        first, first_budget is not None
                    )
                return finish(False, 0, [], False)
            best_model = first.model or []
            best_cost = model_cost(best_model)
            _note_improved(best_cost)
            improved = True
            if ckpt is not None:
                ckpt.improved(best_cost, best_model, calls)
            if on_improvement:
                on_improvement(best_cost)
        if best_cost == 0 or not objective_lits:
            return finish(True, best_cost, best_model, True)

        totalizer = Totalizer(cnf, objective_lits)
        if state is not None and state.units:
            # Assumption-free consequences from the killed run: adding
            # them to the CNF warm-starts every member (the service
            # ships them as part of the next probe's delta).
            for lit in state.units:
                cnf.add([lit])
            trace.event("checkpoint.units_imported",
                        count=len(state.units))
        # The service ships the totalizer layers as the next probe's
        # delta automatically (it holds ``cnf.clauses`` by reference);
        # the one-shot race re-hoists its snapshot when it sees the CNF
        # has grown.

        if strategy == "linear":
            proven = False
            while best_cost > lower:
                if budget.exhausted():
                    timed_out = True
                    break
                calls += 1
                probe_budget = budget.probe_budget(descent_timeout_s)
                probe = checked_race(
                    assumptions=[totalizer.bound_literal(best_cost - 1)],
                    per_probe_s=descent_timeout_s,
                    bound=best_cost - 1,
                )
                if probe.verdict is SolveResult.SAT:
                    best_model = probe.model or []
                    best_cost = model_cost(best_model)
                    _note_improved(best_cost)
                    improved = True
                    if ckpt is not None:
                        ckpt.improved(best_cost, best_model, calls)
                    if on_improvement:
                        on_improvement(best_cost)
                elif probe.verdict is SolveResult.UNSAT:
                    proven = True
                    lower = best_cost
                    if ckpt is not None:
                        ckpt.lower(lower, calls)
                    break
                else:  # timeout: keep the best-known bound
                    timed_out = probe_timed_out(
                        probe, probe_budget is not None
                    )
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
                probe_budget = budget.probe_budget(descent_timeout_s)
                probe = checked_race(
                    assumptions=[totalizer.bound_literal(mid)],
                    per_probe_s=descent_timeout_s,
                    bound=mid,
                )
                if probe.verdict is SolveResult.SAT:
                    best_model = probe.model or []
                    high = model_cost(best_model)
                    best_cost = high
                    _note_improved(best_cost)
                    improved = True
                    if ckpt is not None:
                        ckpt.improved(best_cost, best_model, calls)
                    if on_improvement:
                        on_improvement(best_cost)
                elif probe.verdict is SolveResult.UNSAT:
                    low = mid + 1
                    if ckpt is not None:
                        ckpt.lower(low, calls)
                else:
                    timed_out = probe_timed_out(
                        probe, probe_budget is not None
                    )
                    proven = False
                    break
            lower = max(lower, low)
            if proven:
                lower = best_cost

        return finish(True, best_cost, best_model, proven)
    finally:
        if service is not None:
            service.close()
