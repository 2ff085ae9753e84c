"""Model-improving minimisation: linear descent, binary search and
core-guided search, over one objective or several in priority order.

Every strategy probes one incremental solver session with unit
*assumptions* — the solver keeps all its learned clauses across
probes, which is what makes the loop cheap.  ``linear`` and ``binary``
build one totalizer over the objective literals and tighten its bound
from above; ``core`` searches from below (Fu & Malik 2006): each
objective literal ``l`` becomes a soft clause ``(¬l)`` guarded by a
selector assumption, every UNSAT core relaxes its soft clauses with
fresh blocking variables (at most one per core may fire) and raises
the lower bound by one, and the first model under the selectors is
optimal.

A lexicographic problem (the paper's §III-C "efficiency" read as, say,
makespan first and borders second) runs as *stages* on the same
session: each stage's optimum is frozen with one unit clause and the
next stage descends from the previous stage's best model.

With an empty objective the descent is a feasibility check, and that is
how verification (:mod:`repro.tasks.verification`) solves: its first
probe and that probe's lazy refinement loop are the whole solve, and a
warm model that passes the descent's checks ends it with no probe.  So
the paper's three tasks run on one loop.

One descent loop serves every ``parallel`` setting, on the probe session
that :func:`repro.sat.service.open_session` starts at the descent's
first probe: one in-process incremental solver
(:class:`~repro.sat.service.SerialSession`) at ``parallel=1``; above it
a :class:`~repro.sat.service.SolverService`, whose in-process primary
walks that same serial search while resident *incremental* helper
workers, forked once a probe outlives the primary's load, race it to
prove each probe UNSAT — the CNF reaches them once, each later probe
ships only the assumptions plus the clause delta, and the primary's
low-LBD learned clauses feed them.  A descent that ends without a probe
builds no solver and loads no clause.
How the service degrades (the primary alone, when it cannot fork or
loses every helper) is its decision alone; the descent never sees it.

The descent is *anytime*: ``wall_deadline_s`` bounds the whole descent,
every stage included (each probe gets the remaining budget, shipped
all the way into the solvers' cooperative wall-deadline checks) and an
expired budget ends it at the best model and bounds proven so far
(``status="timeout"``), never with an exception.  With
``checkpoint_path`` every proven fact of the first stage is appended to
a JSONL checkpoint (:mod:`repro.opt.checkpoint`), and ``resume=True``
restarts a killed descent from its last proven bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
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
from repro.sat.types import SolveResult, SolverConfig, SolverStats

#: A stage's model -> cost function (see :func:`_cost_counter`).
_CostFn = Callable[[list[int]], int]


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
        stages=[(state.best_cost, True)] if feasible else [],
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
    then: list[list[int]] | None = None,
) -> DescentResult:
    """Minimise the number of true literals among ``objective_lits``.

    The hard constraints are the clauses of ``cnf``.  Returns a
    :class:`DescentResult`; when ``feasible`` and ``proven_optimal`` are both
    True the reported cost is the exact minimum.  ``strategy`` is
    ``"linear"``, ``"binary"`` or ``"core"`` (see the module docstring).

    An empty ``objective_lits`` makes the descent a feasibility check
    (verification's solve): the first clean model has cost 0 and is
    optimal, an UNSAT first probe proves the formula infeasible, and a
    warm model that passes its checks ends the descent with no probe.

    ``then`` lists the later objectives of a lexicographic problem:
    after each stage its optimum is frozen with one unit clause, and the
    next objective is minimised on the same session, from the previous
    stage's best model.  The result carries the first stage's ``cost``
    and bounds, the last stage's ``model``, every stage's cost and proof
    flag (``stages``) and ``proven_optimal`` only when every stage ran
    to a proof.  An expired budget skips the stages left
    (``status="timeout"``).

    ``on_improvement`` (if given) is called with each strictly better
    first-stage cost as it is discovered — useful for logging long
    optimisations.

    ``parallel > 1`` races every probe over that many diversified
    configurations (``portfolio_members`` overrides them) on a solver
    service: member 0 solves in process, as the serial path does, and
    the others are resident helper workers, forked once a probe
    outlives member 0's initial load, that can end a probe early with
    an UNSAT proof; the service keeps probing on member 0 alone when it
    cannot fork or loses every helper.  ``parallel=1`` is exactly the
    serial incremental path (``portfolio`` is then None); there
    ``portfolio_members`` gives member 0 alone, whose
    ``solver_factory`` builds the session's solver (how a proof run
    logs DRAT).  Either
    session opens at the descent's first probe and loads the clauses as
    they stand then, in order: a descent that ends without a probe (a
    warm or restored incumbent already at its lower bound, a budget
    spent before the first probe) builds no solver and loads no clause;
    its ``solver_stats`` keys all read 0 and its ``portfolio`` is None.
    ``descent_timeout_s`` bounds
    each *bound-probing* call; ``wall_deadline_s`` bounds the whole
    descent — on expiry the result carries the best model and bounds
    found so far with ``status="timeout"``.

    ``checkpoint_path`` appends every proven first-stage fact (improving
    models, lower bounds, the in-process solver's learned unit facts,
    at any ``parallel``) to a JSONL checkpoint;
    ``resume=True`` restores the latest state from that file first —
    raising :class:`repro.opt.checkpoint.CheckpointError` when the file
    belongs to a different formula or strategy — and continues the
    descent from the restored bounds (``solve_calls`` counts only the
    new run's probes).  A resumed ``core`` descent restarts Fu–Malik
    under fresh selectors from the restored incumbent; its lower bound
    is the larger of the restored bound and its own core count.

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

    ``warm_model`` seeds the first stage with a model cached from a
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
    if strategy not in ("linear", "binary", "core"):
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
                if state.done_status == STATUS_OPTIMAL and not then:
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
        descent = _Descent(
            partial(
                open_session, cnf.num_vars, cnf.clauses, parallel,
                portfolio_members,
                SolverConfig(profile=True) if profile else None,
            ),
            cnf, strategy, descent_timeout_s, budget, refine, ckpt,
            on_improvement,
        )
        try:
            result = descent.run(
                [objective_lits, *(then or ())], state, warm
            )
        finally:
            session = descent.session
            if session is not None:
                session.close()
        if session is None:
            # No probe ran, so no solver was built: every counter is 0.
            result.solver_stats = SolverStats().as_dict()
        else:
            # Read after close: a service folds in the helper replies
            # that were still in flight when the last probe ended.
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


@dataclass
class _Stage:
    """Where one stage of a descent stands: its best model and bounds."""

    cost: int = 0
    model: list[int] = field(default_factory=list)
    lower: int = 0
    feasible: bool = True
    proven: bool = False
    timed_out: bool = False
    totalizer: Totalizer | None = None


class _Descent:
    """Every probe of one descent, on one probe session.

    The first probe opens the session with ``open_probe_session`` (so
    it loads the clauses as they stand then); a descent that never
    probes builds no solver and loads no clause.  ``ckpt`` and
    ``on_improvement`` serve the first stage only: :meth:`run` drops
    them before the later stages.
    """

    def __init__(
        self,
        open_probe_session: Callable[[], SerialSession | SolverService],
        cnf: CNF,
        strategy: str,
        descent_timeout_s: float | None,
        budget: _DescentBudget,
        refine: Callable[[list[int]], int] | None,
        ckpt: DescentCheckpoint | None,
        on_improvement: Callable[[int], None] | None,
    ):
        self._open_probe_session = open_probe_session
        #: The probe session (None until the first probe).
        self.session: SerialSession | SolverService | None = None
        self.cnf = cnf
        # The formula's own variables: the fingerprint's ``num_vars``.
        self.own_vars = cnf.num_vars
        self.strategy = strategy
        self.descent_timeout_s = descent_timeout_s
        self.budget = budget
        self.refine = refine
        self.ckpt = ckpt
        self.on_improvement = on_improvement
        self.calls = 0
        self.improved = False
        self._unit_keys: set[tuple[int, ...]] = set()

    def run(
        self,
        objectives: list[list[int]],
        state: CheckpointState | None,
        warm: CheckpointState | None,
    ) -> DescentResult:
        """Minimise ``objectives`` in order, freezing each optimum with
        one unit clause before the next stage descends from its model."""
        stage = self._first_stage(objectives[0], state, warm)
        result = self._first_result(stage, state, warm)
        self.ckpt = self.on_improvement = None
        stages = [stage]
        while stage.feasible and len(stages) < len(objectives):
            if self.budget.exhausted():
                trace.event("deadline.pass_skipped", stage=len(stages))
                break
            _freeze(self.cnf, objectives[len(stages) - 1], stage)
            lits = objectives[len(stages)]
            cost_of = _cost_counter(lits)
            stage = _Stage(cost=cost_of(stage.model), model=stage.model)
            with trace.span("descent.stage", stage=len(stages),
                            cost=stage.cost):
                self._minimize(stage, lits, cost_of)
            stages.append(stage)
        if len(objectives) > 1 and result.feasible:
            timed_out = len(stages) < len(objectives) or any(
                s.timed_out for s in stages
            )
            proven = not timed_out and all(s.proven for s in stages)
            result.model = stage.model
            result.proven_optimal = proven
            result.solve_calls = self.calls
            result.status = _descent_status(
                proven, timed_out, result.status == STATUS_RESUMED, False
            )
        if result.feasible:
            result.stages = [(s.cost, s.proven) for s in stages]
        if result.status == STATUS_TIMEOUT:
            _note_timeout()
        return result

    def _first_stage(
        self,
        lits: list[int],
        state: CheckpointState | None,
        warm: CheckpointState | None,
    ) -> _Stage:
        """The first stage: from a restored or warm incumbent, else from
        one unconstrained probe; infeasible when that finds no model."""
        stage = _Stage(lower=state.lower_bound if state else 0)
        cost_of = _cost_counter(lits)
        start = state if state is not None else warm
        if start is not None and start.best_cost is not None:
            stage.model = list(start.best_model)
            stage.cost = start.best_cost
            trace.event("descent.restored", cost=stage.cost,
                        lower=stage.lower)
            if self.on_improvement:
                self.on_improvement(stage.cost)
        else:
            if self.budget.exhausted():
                return _Stage(feasible=False, timed_out=True)
            self.calls += 1
            with trace.span("descent.probe", call=self.calls,
                            strategy=self.strategy):
                first = self._checked_probe()
            if first.verdict is not SolveResult.SAT:
                return _Stage(feasible=False,
                              timed_out=self._timed_out_on(first))
            stage.model = first.model or []
            stage.cost = self._improve(cost_of, stage.model, harvest=False)
        self._minimize(stage, lits, cost_of, state.units if state else None)
        return stage

    def _first_result(
        self,
        stage: _Stage,
        state: CheckpointState | None,
        warm: CheckpointState | None,
    ) -> DescentResult:
        """The first stage as a result; its status closes the
        checkpoint."""
        if stage.feasible:
            status = _descent_status(stage.proven, stage.timed_out,
                                     state is not None, self.improved)
        else:
            # An UNSAT first solve is a *proven* conclusion; only a
            # timed-out one leaves feasibility genuinely open.
            status = STATUS_TIMEOUT if stage.timed_out else STATUS_OPTIMAL
        if self.ckpt is not None:
            self.ckpt.done(status, stage.cost if stage.feasible else None)
        return DescentResult(
            feasible=stage.feasible,
            cost=stage.cost,
            model=stage.model,
            proven_optimal=stage.proven,
            solve_calls=self.calls,
            strategy=self.strategy,
            status=status,
            lower_bound=stage.lower,
            resumed=state is not None,
            checkpoint=_checkpoint_summary(self.ckpt, state),
            warm_started=warm is not None,
        )

    def _minimize(
        self,
        stage: _Stage,
        lits: list[int],
        cost_of: _CostFn,
        units: list[int] | None = None,
    ) -> None:
        """Descend from the stage's incumbent to its proven optimum, or
        as far as the budget reaches."""
        if stage.cost == 0 or not lits:
            stage.proven = True
            return
        if self.strategy != "core":
            # Build the totalizer *into the session's clause list* so
            # bounds are assumptions; the next probe loads its layers as
            # the delta (the checkpoint fingerprint was taken before
            # this, so resumed runs rebuild byte-identical totalizer
            # literals).
            stage.totalizer = Totalizer(self.cnf, lits)
        if units:
            # Assumption-free consequences from the killed run travel
            # with the first probe's delta and warm-start every solver
            # of the session.
            for lit in units:
                self.cnf.add([lit])
            trace.event("checkpoint.units_imported", count=len(units))
        if self.strategy == "core":
            self._core(stage, lits, cost_of)
        elif self.strategy == "linear":
            self._linear(stage, cost_of)
        else:
            self._binary(stage, cost_of)

    def _linear(self, stage: _Stage, cost_of: _CostFn) -> None:
        """SAT–UNSAT descent: probe one below the incumbent until UNSAT."""
        while stage.cost > stage.lower:
            if self.budget.exhausted():
                stage.timed_out = True
                break
            bound = stage.cost - 1
            probe = self._bound_probe(
                [stage.totalizer.bound_literal(bound)], bound=bound
            )
            if probe.verdict is SolveResult.SAT:
                stage.model = probe.model or []
                stage.cost = self._improve(cost_of, stage.model)
            elif probe.verdict is SolveResult.UNSAT:
                stage.lower = stage.cost
                if self.ckpt is not None:
                    self.ckpt.lower(stage.lower, self.calls)
                break
            else:  # UNKNOWN under a conflict or wall budget
                stage.timed_out = self._timed_out_on(probe)
                break
        if stage.cost <= stage.lower:
            stage.proven = True
            stage.lower = stage.cost

    def _binary(self, stage: _Stage, cost_of: _CostFn) -> None:
        """Binary search on the bound between the proven lower bound and
        the incumbent."""
        low = stage.lower
        stage.proven = True
        while low < stage.cost:
            if self.budget.exhausted():
                stage.timed_out = True
                stage.proven = False
                break
            mid = (low + stage.cost) // 2
            probe = self._bound_probe(
                [stage.totalizer.bound_literal(mid)], bound=mid
            )
            if probe.verdict is SolveResult.SAT:
                stage.model = probe.model or []
                stage.cost = self._improve(cost_of, stage.model)
            elif probe.verdict is SolveResult.UNSAT:
                low = mid + 1
                if self.ckpt is not None:
                    self.ckpt.lower(low, self.calls)
            else:
                stage.timed_out = self._timed_out_on(probe)
                stage.proven = False
                break
        stage.lower = max(stage.lower, low)
        if stage.proven:
            stage.lower = stage.cost

    def _core(
        self, stage: _Stage, lits: list[int], cost_of: _CostFn
    ) -> None:
        """Fu–Malik from below, under the incumbent: each UNSAT core
        raises the lower bound by one (which cannot pass the incumbent's
        cost), and the first model under the selectors is optimal.

        A resumed stage keeps its restored lower bound but starts under
        fresh selectors, so its cores count from 0 again: the bound is
        the larger of the two, never their sum."""
        cnf = self.cnf
        # selector -> (objective literal, its blocking variables so far)
        softs: dict[int, tuple[int, list[int]]] = {}
        for lit in lits:
            selector = cnf.pool.new_aux()
            cnf.add([-selector, -lit])
            softs[selector] = (lit, [])
        cores = 0
        while stage.lower < stage.cost:
            if self.budget.exhausted():
                stage.timed_out = True
                break
            probe = self._bound_probe(sorted(softs), lower=stage.lower)
            if probe.verdict is SolveResult.SAT:
                stage.model = probe.model or []
                stage.cost = self._improve(cost_of, stage.model)
                break
            if probe.verdict is not SolveResult.UNSAT:
                stage.timed_out = self._timed_out_on(probe)
                break
            cores += 1
            if cores > stage.lower:
                stage.lower = cores
                if self.ckpt is not None:
                    self.ckpt.lower(stage.lower, self.calls)
                    self._harvest_units()
            blockers: list[int] = []
            for selector in probe.unsat_core:
                if selector not in softs:
                    continue
                lit, relaxed = softs.pop(selector)
                cnf.add([-selector])  # retire the old soft clause
                blocker = cnf.pool.new_aux()
                blockers.append(blocker)
                relaxed = [*relaxed, blocker]
                fresh = cnf.pool.new_aux()
                cnf.add([-fresh, -lit, *relaxed])
                softs[fresh] = (lit, relaxed)
            # At most one blocking variable per core may fire.
            for i, blocker in enumerate(blockers):
                for other in blockers[i + 1:]:
                    cnf.add([-blocker, -other])
        if stage.cost <= stage.lower:
            stage.proven = True
            stage.lower = stage.cost

    def _improve(
        self, cost_of: _CostFn, model: list[int], harvest: bool = True
    ) -> int:
        """Record an improving model; return its cost."""
        cost = cost_of(model)
        _note_improved(cost)
        self.improved = True
        # Checkpoint before notifying: a callback that dies (or kills
        # the process) never loses the improvement it was told about.
        if self.ckpt is not None:
            self.ckpt.improved(cost, model, self.calls)
            if harvest:
                self._harvest_units()
        if self.on_improvement:
            self.on_improvement(cost)
        return cost

    def _harvest_units(self) -> None:
        """Persist newly proven level-0 facts (assumption-free units)
        of the session's in-process solver (a service's primary).

        A core descent keeps the units over the formula's own variables
        only: its selectors and blocking variables are numbered by its
        core history, which a resumed run does not repeat.  Every
        Fu–Malik clause holds with its fresh variables false, so a unit
        over the formula's variables follows from the formula alone."""
        units = self.session.solver.export_learned(
            max_lbd=0, max_len=1, limit=256, skip_keys=self._unit_keys
        )
        own = self.own_vars if self.strategy == "core" else None
        self.ckpt.units([
            u[0] for u in units
            if len(u) == 1 and (own is None or abs(u[0]) <= own)
        ])

    def _timed_out_on(self, outcome: ProbeOutcome) -> bool:
        return (
            outcome.verdict is SolveResult.UNKNOWN
            and (outcome.timed_out or self.budget.exhausted())
        )

    def _bound_probe(self, assumptions: list[int], **span) -> ProbeOutcome:
        """One counted probe of a descent loop under ``assumptions``."""
        self.calls += 1
        with trace.span("descent.probe", call=self.calls,
                        **span) as probe_span:
            probe = self._checked_probe(assumptions, self.descent_timeout_s)
            probe_span.add(verdict=probe.verdict.name)
        return probe

    def _checked_probe(
        self,
        assumptions: list[int] | tuple[int, ...] = (),
        per_probe_s: float | None = None,
    ) -> ProbeOutcome:
        """One probe plus the lazy solve→check→refine loop.

        SAT is only returned for models that satisfy every deferred
        constraint; an exhausted budget mid-refinement yields a
        timed-out UNKNOWN — a dirty model is never reported as the
        answer.
        """
        if self.session is None:
            self.session = self._open_probe_session()
        budget = self.budget
        outcome = self.session.probe(
            assumptions, budget.probe_budget(per_probe_s)
        )
        while (
            outcome.verdict is SolveResult.SAT
            and self.refine is not None
            and self.refine(outcome.model or []) > 0
        ):
            if budget.exhausted():
                return ProbeOutcome(verdict=SolveResult.UNKNOWN,
                                    timed_out=True)
            self.calls += 1
            with trace.span("descent.probe", call=self.calls, refined=True):
                outcome = self.session.probe(
                    assumptions, budget.probe_budget(per_probe_s)
                )
        return outcome


def _freeze(cnf: CNF, lits: list[int], stage: _Stage) -> None:
    """Hold the later stages to this stage's optimum: one unit clause
    on the stage's totalizer (a core stage builds one for it: its last
    selectors need not admit every optimal assignment), or one unit per
    literal when the optimum is 0."""
    if stage.cost == 0:
        for lit in lits:
            cnf.add([-lit])
    elif stage.cost < len(lits):
        totalizer = stage.totalizer or Totalizer(cnf, lits)
        cnf.add([totalizer.bound_literal(stage.cost)])


def _cost_counter(objective_lits: list[int]) -> _CostFn:
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
