"""Counterexample-guided lazy constraint generation (CEGAR).

The cross-train clause families — VSS separation, no-passing collision,
position swap — dominate the eager encoding's size, yet in any one model
almost all of their instances are trivially satisfied (the trains are
simply elsewhere).  Engels & Wille observe that lazily selecting exactly
these families is the dominant lever in moving-block train routing, and
Kolárik & Ratschan's SAT-modulo-simulations loop has the same shape:

1. build only the *structural* constraints (occupation chains, movement
   and speed, schedule, ``done`` semantics) — ``build(lazy=True)``,
2. solve the relaxation,
3. check the model against the deferred families with the clause-exact
   finders in :mod:`repro.encoding.validate`,
4. add just the violated pair instances (clauses only — the deferred
   families never create variables) and re-solve incrementally,

until the model is clean or the formula is UNSAT.  Because the relaxed
formula only ever gains clauses that the eager encoding also contains,
UNSAT answers are sound at any round; and because the finders evaluate
the exact clause semantics, a clean model satisfies the *whole* eager
formula — lazy and eager define the same set of models, hence identical
verdicts and objective optima.

:class:`LazyRefiner` is the reusable check-and-refine step (the descent
in :mod:`repro.opt.minimize` plugs it in as a ``refine`` callback);
:func:`solve_lazy_verification` is the complete loop for the plain
verification task.  It runs on the probe session of
:func:`repro.sat.service.open_session` — one in-process incremental
solver at ``parallel=1``; above it the solver service, whose in-process
primary is that same solver raced by resident helper workers — which
loads each round's new clauses as the next probe's delta and decides on
its own how to degrade.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.encoding.validate import (
    decode_positions,
    find_collision_violations,
    find_separation_violations,
    find_swap_violations,
)
from repro.obs import events as obs_events
from repro.obs import trace
from repro.sat.service import open_session
from repro.sat.solver import Solver
from repro.sat.types import SolveResult, SolverConfig


class LazyRefinementError(RuntimeError):
    """The refinement loop stopped making progress (a plumbing bug:
    the model falsifies clauses that the solver should already have)."""


#: Clause-selection strategy a fresh :class:`LazyRefiner` uses when none
#: is given: instantiate exactly the falsified instances.  Best matrix
#: cell for one-shot *verification*, where most deferred clauses are
#: never needed (``bench_lazy.py``; see ``BENCH_lazy.json``).
DEFAULT_LAZY_STRATEGY = "violation/all"

#: Strategy cell the optimisation *descents* default to: a descent
#: revisits many candidate models, so refinement rounds dominate and
#: instantiating the whole violated family up front converges fastest —
#: this cell is what recovers the historical lazy-generation slowdown
#: (``bench.lazy.generation.speedup`` < 1) in the strategy matrix.  The
#: matrix times the linear descent, not the core-guided generation
#: default.
DESCENT_LAZY_STRATEGY = "family/all"

_GROUPINGS = ("violation", "pair", "family")


def parse_lazy_strategy(strategy: str) -> tuple[str, int | None]:
    """Split ``"<grouping>/<selection>"`` into ``(grouping, first_k)``.

    Grouping picks how much of a family a violation instantiates:
    ``violation`` (just the falsified (i, j, t) instance), ``pair`` (the
    violated train pair over every time step), or ``family`` (the whole
    violated clause family).  Selection is either ``all`` (every violated
    group found this round, ``first_k = None``) or ``first-<k>`` (only
    the first k fresh groups per round).
    """
    parts = strategy.split("/")
    if len(parts) != 2:
        raise ValueError(
            f"bad lazy strategy {strategy!r}: expected "
            "'<violation|pair|family>/<all|first-k>'"
        )
    grouping, selection = parts
    if grouping not in _GROUPINGS:
        raise ValueError(
            f"bad lazy grouping {grouping!r}: expected one of {_GROUPINGS}"
        )
    if selection == "all":
        return grouping, None
    if selection.startswith("first-"):
        try:
            first_k = int(selection[len("first-"):])
        except ValueError:
            first_k = 0
        if first_k >= 1:
            return grouping, first_k
    raise ValueError(
        f"bad lazy selection {selection!r}: expected 'all' or 'first-<k>'"
    )


class LazyRefiner:
    """Check models against deferred families; add violated instances.

    One refiner accompanies one lazily-built :class:`EtcsEncoding` for
    the whole solve (verification loop or optimisation descent).  It
    appends clauses to ``encoding.cnf`` — callers ship the tail of
    ``cnf.clauses`` to their solver(s) after every :meth:`refine` that
    returns non-zero (the solver service does this automatically, since
    it holds ``cnf.clauses`` by reference).

    ``strategy`` (``"<grouping>/<selection>"``, see
    :func:`parse_lazy_strategy`) controls how a violated instance maps to
    emitted clauses.  Every cell of the matrix yields the same verdicts
    and optima — all of them reach a fixpoint exactly when the model
    satisfies every deferred clause — but they trade rounds against
    clauses: ``violation/all`` adds the fewest clauses and the most
    rounds, ``family/all`` converges almost eagerly.  The default,
    :data:`DEFAULT_LAZY_STRATEGY`, is the matrix cell that benchmarks
    best for one-shot verification; the optimisation descents default to
    :data:`DESCENT_LAZY_STRATEGY` instead, where fewer rounds win.
    """

    def __init__(self, encoding, strategy: str = DEFAULT_LAZY_STRATEGY):
        if not encoding.deferred_families:
            raise ValueError(
                "encoding has no deferred families; build(lazy=True) first"
            )
        self.encoding = encoding
        self.strategy = strategy
        self._grouping, self._first_k = parse_lazy_strategy(strategy)
        self.rounds = 0
        self.clauses_added = 0
        self.groups_added = 0
        self.violations: dict[str, int] = {
            family: 0 for family in encoding.deferred_families
        }
        self._emitted: set[tuple[str, int, int, int]] = set()

    # -- strategy expansion -------------------------------------------

    def _emit_key(self, key: tuple[str, int, int, int]) -> int:
        """Emit one (family, i, j, t) instance if still fresh."""
        if key in self._emitted:
            return 0
        self._emitted.add(key)
        family, i, j, t = key
        encoding = self.encoding
        if family == "separation":
            added = encoding.emit_separation_pair(i, j, t)
        elif family == "collision":
            added = encoding.emit_collision_pair(i, j, t)
        else:
            added = encoding.emit_swap_pair(i, j, t)
        self.groups_added += 1
        return added

    def _expand(self, key: tuple[str, int, int, int]):
        """All instance keys the strategy instantiates for ``key``."""
        family, i, j, t = key
        encoding = self.encoding
        if self._grouping == "violation":
            yield key
            return
        if self._grouping == "pair":
            last = (
                encoding.t_max if family == "separation"
                else encoding.t_max - 1
            )
            for step in range(last):
                yield (family, i, j, step)
            return
        # family: every pair instance of the violated family.  The
        # emitters bound their own (i, j, t) ranges and return 0 outside
        # them, so the loops only need to be supersets.
        n = len(encoding.runs)
        if family == "collision":
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    for step in range(encoding.t_max - 1):
                        yield (family, a, b, step)
            return
        last = encoding.t_max if family == "separation" else encoding.t_max - 1
        for a in range(n):
            for b in range(a + 1, n):
                for step in range(last):
                    yield (family, a, b, step)

    def refine(self, model: list[int]) -> int:
        """Check ``model``; emit violated instances; return clauses added.

        0 means the model satisfies every deferred constraint (clean):
        the caller's SAT answer is final.
        """
        self.rounds += 1
        encoding = self.encoding
        true_vars = {lit for lit in model if lit > 0}
        deferred = encoding.deferred_families
        with trace.span("lazy.round", round=self.rounds) as span:
            positions = decode_positions(encoding, true_vars)
            groups: list[tuple[str, int, int, int]] = []
            if "separation" in deferred:
                groups.extend(
                    ("separation", *key)
                    for key in find_separation_violations(
                        encoding, positions, true_vars
                    )
                )
            if "collision" in deferred:
                groups.extend(
                    ("collision", *key)
                    for key in find_collision_violations(encoding, positions)
                )
            if "swap" in deferred:
                groups.extend(
                    ("swap", *key)
                    for key in find_swap_violations(encoding, positions)
                )
            added = 0
            groups_before = self.groups_added
            selected = 0
            for key in groups:
                self.violations[key[0]] += 1
                if key in self._emitted:
                    continue
                if self._first_k is not None and selected >= self._first_k:
                    continue
                selected += 1
                for instance in self._expand(key):
                    added += self._emit_key(instance)
            fresh = self.groups_added - groups_before
            span.add(violations=len(groups), groups=fresh, clauses=added)
        if groups and not added:
            raise LazyRefinementError(
                "lazy refinement stalled: the model violates deferred "
                "constraints whose clauses were already emitted — a solver "
                "is being probed without the refinement clauses"
            )
        self.clauses_added += added
        if added:
            trace.event("lazy.refined", round=self.rounds, clauses=added)
        obs_events.emit(
            "lazy.round",
            round=self.rounds,
            violations=len(groups),
            clauses=added,
        )
        return added

    def stats(self) -> dict:
        """``lazy.*`` metric payload (see doc/architecture.md §7).

        The avoided clauses are priced by
        :meth:`EtcsEncoding.deferred_eager_count`, which counts them from
        the cone without emitting any.
        """
        out = {
            "lazy.rounds": self.rounds,
            "lazy.constraints_added": self.clauses_added,
            "lazy.groups_added": self.groups_added,
        }
        for family, count in sorted(self.violations.items()):
            out[f"lazy.violations.{family}"] = count
        eager = self.encoding.deferred_eager_count()
        total = sum(eager.values())
        out["lazy.eager_clauses"] = total
        out["lazy.clauses_saved"] = total - self.clauses_added
        return out


@dataclass
class LazyOutcome:
    """Answer of :func:`solve_lazy_verification`."""

    satisfiable: bool
    true_vars: set[int] | None
    refiner: LazyRefiner
    solver_stats: dict
    solve_calls: int
    #: The session's in-process solver — under a service, the
    #: primary's (for restart-cadence telemetry).
    solver: Solver | None = None
    #: Portfolio/service summary when run with ``parallel > 1``.
    portfolio: dict | None = field(default=None)


def solve_lazy_verification(
    encoding,
    parallel: int = 1,
    members=None,
    strategy: str = DEFAULT_LAZY_STRATEGY,
    profile: bool = False,
) -> LazyOutcome:
    """Run the solve→check→refine loop to a clean model or UNSAT.

    ``parallel = 1`` keeps one incremental solver in process;
    ``parallel > 1`` runs each round on the solver service (``members``
    overrides its diversified configurations): member 0 solves in
    process, as at ``parallel = 1``, while resident helper workers race
    it to an UNSAT proof, and the service keeps going on member 0 alone
    when it cannot fork or loses every helper.  Each round's new clauses
    are the next probe's delta.  ``strategy`` selects the
    refiner's clause-selection cell (see :class:`LazyRefiner`).
    ``profile`` turns on the hot-path phase profiler in every solver the
    loop creates; the resulting ``profile.*`` counters ride in
    ``solver_stats``.
    """
    refiner = LazyRefiner(encoding, strategy=strategy)
    cnf = encoding.cnf
    session = open_session(
        cnf.num_vars, cnf.clauses, parallel, members,
        SolverConfig(profile=True) if profile else None,
    )
    try:
        calls = 0
        while True:
            calls += 1
            with trace.span("lazy.solve", call=calls):
                outcome = session.probe()
            if outcome.verdict is SolveResult.UNSAT:
                true_vars = None
                break
            if outcome.verdict is not SolveResult.SAT:
                raise RuntimeError(
                    f"lazy verification solve returned {outcome.verdict!r} "
                    "without a deadline in play"
                )
            model = outcome.model or []
            if refiner.refine(model) == 0:
                true_vars = {lit for lit in model if lit > 0}
                break
    finally:
        session.close()
    # Read after close: a service folds in the helper replies that were
    # still in flight when the last probe ended.
    return LazyOutcome(
        satisfiable=true_vars is not None,
        true_vars=true_vars,
        refiner=refiner,
        solver_stats=session.solver_stats(),
        solve_calls=calls,
        solver=session.solver,
        portfolio=session.summary(),
    )
