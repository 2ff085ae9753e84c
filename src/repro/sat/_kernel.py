"""Flat-array CDCL kernel: the engine behind :class:`repro.sat.Solver`.

This module is the solver's search engine, written over plain integer
arrays instead of an object graph:

* **Clause arena** — the whole clause database lives in one flat integer
  list ``_arena``.  A clause is ``[size, meta, lit0, lit1, ...]`` at some
  offset ``ref``; clause references *are* arena offsets.  ``meta`` is
  ``-1`` for problem clauses or an ordinal into the parallel learned-
  clause arrays (``_cla_act`` activities, ``_cla_lbd`` LBDs).  A
  tombstoned (deleted) clause stores ``-size`` in its header and is
  dropped lazily the next time propagation visits one of its watchers —
  no O(n) ``watchers.remove`` scan ever happens.
* **Watcher lists with blockers** — ``_watches`` holds, per literal, a
  flat list ``[tagged_ref, blocker, tagged_ref, blocker, ...]`` where
  ``tagged_ref = ref << 1 | is_binary``.  If the blocker literal is
  satisfied the clause is skipped without touching the arena; binary
  clauses (tag bit set) are resolved entirely from the watcher pair.
* **Signed-index assignment array** — ``_assigns[_off + lit]`` is the
  value of *literal* ``lit`` (1 true, -1 false, 0 unassigned) for both
  polarities, so the hot loops pay one add + one index per literal read
  instead of the classic ``assigns[l] if l > 0 else -assigns[-l]``
  two-branch dance.
* **VSIDS heap** — the order heap is a ``heapq`` of ``(-activity,
  var)`` tuples: the C-accelerated stdlib heap beats any pure-Python
  rearrangement by an order of magnitude.  Bumps leave stale entries
  behind instead of re-keying them, so ``_heap_act[var]`` records the
  activity of the variable's *live* entry (``-1.0`` when it has none):
  backtracking pushes a variable only when that entry is missing or
  stale, which keeps one live entry per variable and the decision order
  of a heap that re-pushes every unassigned variable.

The algorithms are two-watched-literal propagation, first-UIP analysis
with recursive minimization, EVSIDS, phase saving, Luby restarts,
LBD-guided deletion, and incremental assumptions with core extraction.
With a :class:`repro.sat.proof.ProofLogger` attached, the kernel logs
every learned clause, every learned-clause deletion and the final empty
clause as a DRAT proof.  ``tests/test_sat_kernel.py`` checks answers
against independent references: models clause by clause, UNSAT answers
through :func:`repro.sat.proof.check_rup_proof`.

The module is written in the restricted subset of Python that mypyc
(and Cython in pure-Python mode) compiles: module-level functions and
one plain class, fully annotated, no dynamic class tricks.  Build the
compiled variant with ``REPRO_BUILD_KERNEL=1 pip install -e .`` (see
README); :mod:`repro.sat.kernel` picks whichever build is importable.
"""

from __future__ import annotations

import heapq
import random
import time
from typing import Any

from repro.obs.profile import PhaseProfiler
from repro.sat.luby import LubyGenerator
from repro.sat.types import (
    InvalidLiteralError,
    SolveResult,
    SolverConfig,
    SolverStats,
)

_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100

#: Arena words before a clause's literals: [size, meta].
_HEADER = 2

#: Engine kind this build reports: the mypyc/Cython extension replaces
#: this module wholesale, so a compiled ``__file__`` ends in ``.so``.
KERNEL_KIND: str = (
    "compiled" if __file__.endswith((".so", ".pyd")) else "interpreted"
)


class Kernel:
    """Array-backed CDCL engine with the :class:`~repro.sat.Solver` API.

    Instances are normally created *by* ``Solver``, which delegates its
    whole public surface here; the class is usable standalone in tests
    and benchmarks.
    """

    def __init__(self, config: SolverConfig | None = None):
        self.config: SolverConfig = config or SolverConfig()
        self.kind: str = KERNEL_KIND
        self.stats: SolverStats = SolverStats(kernel=KERNEL_KIND)
        self.last_stats: SolverStats = SolverStats(kernel=KERNEL_KIND)
        self._rng = random.Random(self.config.random_seed)
        self._progress_cb: Any = None
        self._progress_interval: int = 0
        self._event_cb: Any = None
        self._profiler: Any = (
            PhaseProfiler(self.config.profile_sample_period)
            if self.config.profile
            else None
        )

        # Literal-indexed state, centred at _off (capacity-doubled).
        self._cap: int = 16
        self._off: int = 16
        self._assigns: list[int] = [0] * (2 * 16 + 1)
        self._watches: list[list[int]] = [[] for _ in range(2 * 16 + 1)]

        # Variable-indexed state (index 0 unused).
        self._nv: int = 0
        self._level: list[int] = [0]
        self._reason: list[int] = [-1]  # arena ref or -1
        self._activity: list[float] = [0.0]
        self._saved_phase: bytearray = bytearray(
            [1 if self.config.default_phase else 0]
        )
        self._seen: bytearray = bytearray(1)

        # Clause arena and parallel learned-clause metadata.
        self._arena: list[int] = []
        self._clause_refs: list[int] = []
        self._learned_refs: list[int] = []
        self._cla_act: list[float] = []
        self._cla_lbd: list[int] = []

        # Assignment trail.
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead: int = 0

        # Activity bookkeeping; the order heap holds (-activity, var)
        # tuples, and _heap_act[var] the activity of var's live entry
        # (-1.0: none).
        self._var_inc: float = 1.0
        self._cla_inc: float = 1.0
        self._order_heap: list[tuple[float, int]] = []
        self._heap_act: list[float] = [-1.0]

        self._ok: bool = True
        self._solve_started: float = 0.0
        self._model: list[int] | None = None
        self._conflict_core: list[int] = []
        self._n_assumptions: int = 0
        self._to_clear: list[int] = []
        self._proof: Any = None  # optional ProofLogger (repro.sat.proof)

    # ------------------------------------------------------------------
    # Public interface (mirrors repro.sat.Solver)
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._nv

    @property
    def num_clauses(self) -> int:
        return len(self._clause_refs)

    @property
    def num_learned(self) -> int:
        return len(self._learned_refs)

    def attach_proof(self, logger: Any) -> None:
        """Log learned clauses, deletions and the final empty clause."""
        if self.stats.solve_calls:
            raise RuntimeError(
                "attach_proof after solve: the log would miss the "
                "clauses learned so far"
            )
        self._proof = logger

    def new_var(self) -> int:
        var = self._nv + 1
        self.ensure_var(var)
        return var

    def ensure_var(self, var: int) -> None:
        """Create the variables up to ``var`` in one step.

        Each new variable gets one heap push, never a heapify: the
        totalizer and the lazy deltas name new variables one at a time
        in the middle of a load, so a call must cost O(new variables).
        A push is O(1) here: activities are >= 0 and the new variable
        exceeds every variable in the heap, so ``(0.0, v)`` is at least
        every entry already there and stays at its leaf.
        """
        if var <= 0:
            raise InvalidLiteralError(f"variables must be positive, got {var}")
        nv = self._nv
        if var <= nv:
            return
        if var > self._cap:
            self._grow(var)
        count = var - nv
        self._level.extend([0] * count)
        self._reason.extend([-1] * count)
        self._activity.extend([0.0] * count)
        phase = 1 if self.config.default_phase else 0
        self._saved_phase.extend(bytes([phase]) * count)
        self._seen.extend(bytes(count))
        self._heap_act.extend([0.0] * count)
        heap = self._order_heap
        for v in range(nv + 1, var + 1):
            heapq.heappush(heap, (0.0, v))
        self._nv = var

    def _grow(self, need: int) -> None:
        """Re-centre the literal-indexed arrays around a larger capacity."""
        cap = self._cap
        new_cap = cap * 2
        while new_cap < need:
            new_cap *= 2
        assigns = [0] * (2 * new_cap + 1)
        assigns[new_cap - cap:new_cap + cap + 1] = self._assigns
        watches: list[list[int]] = [[] for _ in range(2 * new_cap + 1)]
        watches[new_cap - cap:new_cap + cap + 1] = self._watches
        self._assigns = assigns
        self._watches = watches
        self._cap = new_cap
        self._off = new_cap

    def add_clause(self, lits: Any) -> bool:
        return self.add_clauses((lits,))

    def add_clauses(self, clauses: Any) -> bool:
        """Load ``clauses`` in order; return False once the formula is
        UNSAT (later clauses are then ignored).

        One call loads a whole clause list with the result of adding each
        clause on its own: every literal is checked, variables grow as
        literals name them, tautologies, duplicate literals and clauses
        satisfied at level 0 are dropped, falsified literals removed, and
        a unit propagates before the next clause is read.  An empty
        clause, or a unit that propagates to a conflict, logs the empty
        clause to an attached proof.  A 2- or 3-literal clause that
        needs none of this skips the per-literal loop.
        """
        if not self._ok:
            return False
        self._backtrack(0)
        assigns = self._assigns
        watches = self._watches
        off = self._off
        nv = self._nv
        # Clause-local polarity marks (1 positive, 2 negative) in the
        # analysis scratch array, which is all zero outside a search.
        marks = self._seen
        arena = self._arena
        clause_refs = self._clause_refs
        for lits in clauses:
            # The short path: a list or tuple of 2 or 3 literals over
            # distinct variables that exist and are unassigned (all
            # assignments are at level 0 here) is stored as it stands,
            # which is what the per-literal loop would make of it.
            short = False
            size = len(lits) if isinstance(lits, (list, tuple)) else 0
            if size == 2 or size == 3:
                a = lits[0]
                b = lits[1]
                c = lits[size - 1]  # b again in a binary clause
                if (
                    isinstance(a, int)
                    and isinstance(b, int)
                    and isinstance(c, int)
                ):
                    var_a = a if a > 0 else -a
                    var_b = b if b > 0 else -b
                    var_c = c if c > 0 else -c
                    short = (
                        0 < var_a <= nv
                        and 0 < var_b <= nv
                        and 0 < var_c <= nv
                        and var_a != var_b
                        and var_a != var_c
                        and (size == 2 or var_b != var_c)
                        and assigns[off + a] == 0
                        and assigns[off + b] == 0
                        and assigns[off + c] == 0
                    )
            stored: list[int] | tuple[int, ...]
            if short:
                stored = lits
            else:
                simplified: list[int] = []
                keep = True
                for lit in lits:
                    if not isinstance(lit, int) or lit == 0:
                        for kept in simplified:
                            marks[kept if kept > 0 else -kept] = 0
                        raise InvalidLiteralError(f"invalid literal {lit!r}")
                    var = lit if lit > 0 else -lit
                    if var > nv:
                        self.ensure_var(var)
                        nv = var
                        assigns = self._assigns
                        watches = self._watches
                        off = self._off
                    mark = marks[var]
                    if mark:
                        if (mark == 1) == (lit > 0):
                            continue  # duplicate literal
                        keep = False  # tautology
                        break
                    value = assigns[off + lit]
                    if value == 1:
                        keep = False  # satisfied at level 0
                        break
                    if value == 0:
                        marks[var] = 1 if lit > 0 else 2
                        simplified.append(lit)
                for kept in simplified:
                    marks[kept if kept > 0 else -kept] = 0
                if not keep:
                    continue
                size = len(simplified)
                if size == 0:
                    self._ok = False
                    if self._proof is not None:
                        self._proof.add([])
                    return False
                if size == 1:
                    self._enqueue(simplified[0], -1)
                    if self._propagate() >= 0:
                        self._ok = False
                        if self._proof is not None:
                            self._proof.add([])
                        return False
                    continue
                stored = simplified
            lit0 = stored[0]
            lit1 = stored[1]
            ref = len(arena)
            arena.append(size)
            arena.append(-1)
            arena.extend(stored)
            clause_refs.append(ref)
            tagged = ref << 1 | (1 if size == 2 else 0)
            watchers = watches[off + lit0]
            watchers.append(tagged)
            watchers.append(lit1)
            watchers = watches[off + lit1]
            watchers.append(tagged)
            watchers.append(lit0)
        return True

    def solve(self, assumptions: Any = ()) -> SolveResult:
        start = time.perf_counter()
        self._solve_started = start
        before = self.stats.snapshot()
        self.stats.solve_calls += 1
        self._model = None
        self._conflict_core = []
        for lit in assumptions:
            self.ensure_var(lit if lit > 0 else -lit)

        if not self._ok:
            self.stats.solve_time += time.perf_counter() - start
            self.last_stats = self.stats.delta(before)
            return SolveResult.UNSAT

        self._backtrack(0)
        self._n_assumptions = len(assumptions)
        # A raising progress hook ends the search early; the solve's time,
        # profile and counters are recorded all the same.
        try:
            result = self._search(list(assumptions))
        finally:
            self._backtrack(0)
            self.stats.solve_time += time.perf_counter() - start
            if self._profiler is not None:
                self.stats.profile = self._profiler.as_counters()
            self.last_stats = self.stats.delta(before)
        return result

    def model_value(self, lit: int) -> bool | None:
        model = self._model
        if model is None:
            raise RuntimeError("no model available: last solve was not SAT")
        var = lit if lit > 0 else -lit
        if var >= len(model) or model[var] == 0:
            return None
        value = model[var] > 0
        return value if lit > 0 else not value

    def model(self) -> list[int]:
        model = self._model
        if model is None:
            raise RuntimeError("no model available: last solve was not SAT")
        return [
            var if model[var] > 0 else -var
            for var in range(1, len(model))
            if model[var] != 0
        ]

    def unsat_core(self) -> list[int]:
        return list(self._conflict_core)

    def root_literals(self) -> list[int]:
        """The level-0 trail (facts) in derivation order."""
        boundary = (
            self._trail_lim[0] if self._trail_lim else len(self._trail)
        )
        return list(self._trail[:boundary])

    def on_progress(self, callback: Any, interval_conflicts: int = 2000
                    ) -> None:
        if callback is not None and interval_conflicts < 1:
            raise ValueError(
                f"interval_conflicts must be >= 1, got {interval_conflicts}"
            )
        self._progress_cb = callback
        self._progress_interval = interval_conflicts

    def on_event(self, callback: Any) -> None:
        self._event_cb = callback

    def progress_snapshot(self) -> dict:
        return {
            "conflicts": self.stats.conflicts,
            "propagations": self.stats.propagations,
            "decisions": self.stats.decisions,
            "restarts": self.stats.restarts,
            "learned": len(self._learned_refs),
            "decision_level": len(self._trail_lim),
            "trail": len(self._trail),
            "vars": self._nv,
        }

    def export_learned(
        self,
        max_lbd: int = 4,
        max_len: int = 8,
        limit: int | None = None,
        skip_keys: set | None = None,
    ) -> list[list[int]]:
        arena = self._arena
        out: list[list[int]] = []

        def take(lits: list[int]) -> None:
            if skip_keys is not None:
                key = tuple(sorted(lits))
                if key in skip_keys:
                    return
                skip_keys.add(key)
            out.append(lits)

        boundary = (
            self._trail_lim[0] if self._trail_lim else len(self._trail)
        )
        for lit in self._trail[:boundary]:
            if limit is not None and len(out) >= limit:
                return out
            take([lit])
        for ref in self._learned_refs:
            if limit is not None and len(out) >= limit:
                break
            size = arena[ref]
            if size <= 0 or size > max_len:
                continue
            if self._cla_lbd[arena[ref + 1]] <= max_lbd:
                take(arena[ref + _HEADER:ref + _HEADER + size])
        return out

    def import_clauses(self, clauses: Any) -> int:
        count = 0
        for lits in clauses:
            self.add_clause(lits)
            count += 1
            if not self._ok:
                break
        return count

    def simplify(self) -> bool:
        if not self._ok:
            return False
        self._backtrack(0)
        if self._propagate() >= 0:
            self._ok = False
            return False
        arena = self._arena
        assigns = self._assigns
        off = self._off
        for refs in (self._clause_refs, self._learned_refs):
            kept: list[int] = []
            for ref in refs:
                size = arena[ref]
                if size <= 0:
                    continue
                satisfied = False
                for k in range(ref + _HEADER, ref + _HEADER + size):
                    if assigns[off + arena[k]] == 1:
                        satisfied = True
                        break
                if satisfied:
                    arena[ref] = -size  # tombstone, reaped lazily
                else:
                    kept.append(ref)
            refs[:] = kept
        return True

    # ------------------------------------------------------------------
    # Internal: arena and watches
    # ------------------------------------------------------------------

    def _store_learned(self, lits: list[int], lbd: int) -> int:
        """Append a learned clause to the arena; return its ref.

        (``add_clauses`` stores problem clauses inline, meta ``-1``.)
        """
        arena = self._arena
        ref = len(arena)
        meta = len(self._cla_act)
        self._cla_act.append(0.0)
        self._cla_lbd.append(lbd)
        arena.append(len(lits))
        arena.append(meta)
        arena.extend(lits)
        return ref

    def _attach(self, ref: int) -> None:
        arena = self._arena
        off = self._off
        tagged = ref << 1 | (1 if arena[ref] == 2 else 0)
        lit0 = arena[ref + _HEADER]
        lit1 = arena[ref + _HEADER + 1]
        watchers = self._watches[off + lit0]
        watchers.append(tagged)
        watchers.append(lit1)
        watchers = self._watches[off + lit1]
        watchers.append(tagged)
        watchers.append(lit0)

    # ------------------------------------------------------------------
    # Internal: assignment primitives
    # ------------------------------------------------------------------

    def _enqueue(self, lit: int, reason_ref: int) -> None:
        var = lit if lit > 0 else -lit
        off = self._off
        self._assigns[off + lit] = 1
        self._assigns[off - lit] = -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason_ref
        self._trail.append(lit)

    def _backtrack(self, target_level: int) -> None:
        if len(self._trail_lim) <= target_level:
            return
        phase_saving = self.config.use_phase_saving
        assigns = self._assigns
        off = self._off
        saved_phase = self._saved_phase
        reason = self._reason
        activity = self._activity
        heap_act = self._heap_act
        trail = self._trail
        heap = self._order_heap
        heappush = heapq.heappush
        boundary = self._trail_lim[target_level]
        for i in range(len(trail) - 1, boundary - 1, -1):
            lit = trail[i]
            var = lit if lit > 0 else -lit
            if phase_saving:
                saved_phase[var] = 1 if lit > 0 else 0
            assigns[off + lit] = 0
            assigns[off - lit] = 0
            reason[var] = -1
            act = activity[var]
            if heap_act[var] != act:
                # No live entry, or a bump made it stale.
                heap_act[var] = act
                heappush(heap, (-act, var))
        del trail[boundary:]
        del self._trail_lim[target_level:]
        self._qhead = boundary

    # ------------------------------------------------------------------
    # Internal: order heap
    # ------------------------------------------------------------------

    def _heap_rebuild(self) -> None:
        """Rebuild the heap over the unassigned variables (post-rescale)."""
        assigns = self._assigns
        off = self._off
        activity = self._activity
        heap_act = self._heap_act
        heap: list[tuple[float, int]] = []
        for var in range(1, self._nv + 1):
            if assigns[off + var] == 0:
                heap_act[var] = activity[var]
                heap.append((-activity[var], var))
            else:
                heap_act[var] = -1.0
        heapq.heapify(heap)
        self._order_heap = heap

    # ------------------------------------------------------------------
    # Internal: propagation
    # ------------------------------------------------------------------

    def _propagate(self) -> int:
        """Unit-propagate the trail; return a conflict ref or -1."""
        arena = self._arena
        assigns = self._assigns
        watches = self._watches
        trail = self._trail
        level = self._level
        reason = self._reason
        trail_lim = self._trail_lim
        off = self._off
        qhead = self._qhead
        propagations = 0
        conflict = -1
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            propagations += 1
            # Watchers of the falsified literal -p live at off - p.
            watchers = watches[off - p]
            keep = 0
            n_watchers = len(watchers)
            i = 0
            while i < n_watchers:
                tagged = watchers[i]
                blocker = watchers[i + 1]
                i += 2
                if tagged & 1:
                    # Binary clause: the blocker *is* the other literal,
                    # exactly (binary watches never move), so the whole
                    # visit resolves from the pair — and a tombstoned
                    # binary can never be reached (its true literal is
                    # the blocker at every reachable entry), so no
                    # arena deleted-check is needed here.
                    blocker_val = assigns[off + blocker]
                    watchers[keep] = tagged
                    watchers[keep + 1] = blocker
                    keep += 2
                    if blocker_val > 0:
                        continue
                    base = (tagged >> 1) + _HEADER
                    if arena[base] != blocker:
                        arena[base] = blocker
                        arena[base + 1] = -p
                    if blocker_val < 0:
                        # Conflict: keep the remaining watchers.
                        watchers[keep:n_watchers] = watchers[i:n_watchers]
                        keep += n_watchers - i
                        i = n_watchers
                        qhead = len(trail)
                        conflict = tagged >> 1
                    else:
                        var = blocker if blocker > 0 else -blocker
                        assigns[off + blocker] = 1
                        assigns[off - blocker] = -1
                        level[var] = len(trail_lim)
                        reason[var] = tagged >> 1
                        trail.append(blocker)
                    continue
                if assigns[off + blocker] > 0:
                    # Blocker satisfied: clause untouched, entry kept.
                    watchers[keep] = tagged
                    watchers[keep + 1] = blocker
                    keep += 2
                    continue
                ref = tagged >> 1
                size = arena[ref]
                if size < 0:
                    continue  # tombstone: reap the entry
                base = ref + _HEADER
                # Normalize: the falsified watch sits at position 1.
                if arena[base] == -p:
                    arena[base] = arena[base + 1]
                    arena[base + 1] = -p
                first = arena[base]
                first_val = assigns[off + first]
                if first_val > 0:
                    watchers[keep] = tagged
                    watchers[keep + 1] = first
                    keep += 2
                    continue
                # Look for a new literal to watch.
                k = base + 2
                end = base + size
                while k < end:
                    other = arena[k]
                    if assigns[off + other] >= 0:
                        arena[base + 1] = other
                        arena[k] = -p
                        other_watchers = watches[off + other]
                        other_watchers.append(tagged)
                        other_watchers.append(first)
                        break
                    k += 1
                if k < end:
                    continue
                # Clause is unit or conflicting.
                watchers[keep] = tagged
                watchers[keep + 1] = first
                keep += 2
                if first_val < 0:
                    # Conflict: keep the remaining watchers.
                    watchers[keep:n_watchers] = watchers[i:n_watchers]
                    keep += n_watchers - i
                    i = n_watchers
                    qhead = len(trail)
                    conflict = ref
                else:
                    var = first if first > 0 else -first
                    assigns[off + first] = 1
                    assigns[off - first] = -1
                    level[var] = len(trail_lim)
                    reason[var] = ref
                    trail.append(first)
            del watchers[keep:]
            if conflict >= 0:
                break
        self._qhead = qhead
        self.stats.propagations += propagations
        return conflict

    # ------------------------------------------------------------------
    # Internal: conflict analysis
    # ------------------------------------------------------------------

    def _rescale_var_activity(self) -> None:
        activity = self._activity
        for v in range(1, len(activity)):
            activity[v] *= _RESCALE_FACTOR
        self._var_inc *= _RESCALE_FACTOR
        self._heap_rebuild()

    def _bump_clause(self, meta: int) -> None:
        act = self._cla_act[meta] + self._cla_inc
        self._cla_act[meta] = act
        if act > _RESCALE_LIMIT:
            cla_act = self._cla_act
            for i in range(len(cla_act)):
                cla_act[i] *= _RESCALE_FACTOR
            self._cla_inc *= _RESCALE_FACTOR

    def _analyze(self, conflict: int) -> tuple[list[int], int, int]:
        """First-UIP conflict analysis.

        Returns ``(learned_lits, backtrack_level, lbd)`` where
        ``learned_lits[0]`` is the asserting literal.
        """
        arena = self._arena
        seen = self._seen
        level = self._level
        trail = self._trail
        activity = self._activity
        reason_of = self._reason
        current_level = len(self._trail_lim)

        learned: list[int] = [0]
        counter = 0
        p = 0
        index = len(trail) - 1
        reason = conflict
        var_inc = self._var_inc

        while True:
            if reason >= 0:
                meta = arena[reason + 1]
                if meta >= 0:
                    self._bump_clause(meta)
                base = reason + _HEADER
                start = base if p == 0 else base + 1
                for k in range(start, base + arena[reason]):
                    lit = arena[k]
                    var = lit if lit > 0 else -lit
                    if not seen[var] and level[var] > 0:
                        seen[var] = 1
                        act = activity[var] + var_inc
                        activity[var] = act
                        if act > _RESCALE_LIMIT:
                            self._rescale_var_activity()
                            var_inc = self._var_inc
                        if level[var] >= current_level:
                            counter += 1
                        else:
                            learned.append(lit)
            while True:
                p = trail[index]
                if seen[p if p > 0 else -p]:
                    break
                index -= 1
            var = p if p > 0 else -p
            seen[var] = 0
            index -= 1
            counter -= 1
            if counter == 0:
                break
            reason = reason_of[var]

        learned[0] = -p

        self._to_clear = [
            (lit if lit > 0 else -lit) for lit in learned[1:]
        ]
        for var in self._to_clear:
            seen[var] = 1
        if self.config.use_minimization and len(learned) > 1:
            learned = self._minimize(learned)

        lbd_levels: set[int] = set()
        for lit in learned:
            lbd_levels.add(level[lit if lit > 0 else -lit])
        lbd = len(lbd_levels)

        for var in self._to_clear:
            seen[var] = 0
        self._to_clear = []

        if len(learned) == 1:
            backtrack_level = 0
        else:
            max_i = 1
            max_level = level[
                learned[1] if learned[1] > 0 else -learned[1]
            ]
            for i in range(2, len(learned)):
                lit = learned[i]
                lit_level = level[lit if lit > 0 else -lit]
                if lit_level > max_level:
                    max_i = i
                    max_level = lit_level
            learned[1], learned[max_i] = learned[max_i], learned[1]
            backtrack_level = max_level
        return learned, backtrack_level, lbd

    def _minimize(self, learned: list[int]) -> list[int]:
        level = self._level
        reason = self._reason
        levels: set[int] = set()
        for lit in learned[1:]:
            levels.add(level[lit if lit > 0 else -lit])
        result = [learned[0]]
        for lit in learned[1:]:
            var = lit if lit > 0 else -lit
            if reason[var] < 0 or not self._redundant(lit, levels):
                result.append(lit)
            else:
                self.stats.minimized_literals += 1
        return result

    def _redundant(self, lit: int, levels: set[int]) -> bool:
        arena = self._arena
        seen = self._seen
        level = self._level
        reason_of = self._reason
        stack = [lit]
        marked_here: list[int] = []
        while stack:
            top = stack.pop()
            reason = reason_of[top if top > 0 else -top]
            assert reason >= 0
            base = reason + _HEADER
            for k in range(base + 1, base + arena[reason]):
                q = arena[k]
                var = q if q > 0 else -q
                if seen[var] or level[var] == 0:
                    continue
                if reason_of[var] < 0 or level[var] not in levels:
                    for v in marked_here:
                        seen[v] = 0
                    return False
                seen[var] = 1
                marked_here.append(var)
                stack.append(q)
        self._to_clear.extend(marked_here)
        return True

    # A reason-less literal above level 0 is either an assumption or a
    # unit learned while assumptions were assigned.  Such a unit follows
    # from the formula alone, so the two core builders below leave it out.
    def _analyze_final(self, failed_lit: int, assumed: set[int]
                       ) -> list[int]:
        core = [failed_lit]
        if not self._trail_lim:
            return core
        arena = self._arena
        seen = self._seen
        level = self._level
        trail = self._trail
        var0 = failed_lit if failed_lit > 0 else -failed_lit
        seen[var0] = 1
        boundary = self._trail_lim[0]
        for i in range(len(trail) - 1, boundary - 1, -1):
            lit = trail[i]
            var = lit if lit > 0 else -lit
            if not seen[var]:
                continue
            reason = self._reason[var]
            if reason < 0:
                if lit != failed_lit and lit in assumed:
                    core.append(lit)
            else:
                base = reason + _HEADER
                for k in range(base + 1, base + arena[reason]):
                    q = arena[k]
                    qvar = q if q > 0 else -q
                    if level[qvar] > 0:
                        seen[qvar] = 1
            seen[var] = 0
        seen[var0] = 0
        return core

    def _core_from_conflict(self, conflict: int, assumed: set[int]
                            ) -> list[int]:
        arena = self._arena
        seen = self._seen
        level = self._level
        trail = self._trail
        core: list[int] = []
        marked: list[int] = []
        base = conflict + _HEADER
        for k in range(base, base + arena[conflict]):
            lit = arena[k]
            var = lit if lit > 0 else -lit
            if level[var] > 0 and not seen[var]:
                seen[var] = 1
                marked.append(var)
        boundary = self._trail_lim[0]
        for i in range(len(trail) - 1, boundary - 1, -1):
            lit = trail[i]
            var = lit if lit > 0 else -lit
            if not seen[var]:
                continue
            reason = self._reason[var]
            if reason < 0:
                if lit in assumed:
                    core.append(lit)
            else:
                rbase = reason + _HEADER
                for k in range(rbase + 1, rbase + arena[reason]):
                    q = arena[k]
                    qvar = q if q > 0 else -q
                    if level[qvar] > 0 and not seen[qvar]:
                        seen[qvar] = 1
                        marked.append(qvar)
            seen[var] = 0
        for var in marked:
            seen[var] = 0
        return core

    # ------------------------------------------------------------------
    # Internal: decisions and clause deletion
    # ------------------------------------------------------------------

    def _pick_branch_var(self) -> int:
        config = self.config
        assigns = self._assigns
        off = self._off
        if (
            config.random_var_freq > 0.0
            and self._nv > 0
            and self._rng.random() < config.random_var_freq
        ):
            var = self._rng.randint(1, self._nv)
            if assigns[off + var] == 0:
                self.stats.random_decisions += 1
                return var
        if config.use_vsids:
            activity = self._activity
            heap_act = self._heap_act
            heap = self._order_heap
            heappop = heapq.heappop
            while heap:
                neg_activity, var = heappop(heap)
                if -neg_activity == activity[var]:
                    # The live entry: gone from the heap either way.
                    heap_act[var] = -1.0
                    if assigns[off + var] == 0:
                        return var
            return 0
        for var in range(1, self._nv + 1):
            if assigns[off + var] == 0:
                return var
        return 0

    def _reduce_learned(self) -> None:
        arena = self._arena
        cla_act = self._cla_act
        cla_lbd = self._cla_lbd
        refs = self._learned_refs
        locked: set[int] = set()
        reason = self._reason
        for lit in self._trail:
            ref = reason[lit if lit > 0 else -lit]
            if ref >= 0:
                locked.add(ref)
        refs.sort(
            key=lambda ref: (
                cla_lbd[arena[ref + 1]] <= 2,
                cla_act[arena[ref + 1]],
            ),
            reverse=True,
        )
        limit = len(refs) // 2
        kept: list[int] = []
        for i, ref in enumerate(refs):
            if (
                i < limit
                or cla_lbd[arena[ref + 1]] <= 2
                or ref in locked
            ):
                kept.append(ref)
            else:
                size = arena[ref]
                arena[ref] = -size  # tombstone, reaped lazily
                self.stats.deleted_clauses += 1
                if self._proof is not None:
                    self._proof.delete(
                        arena[ref + _HEADER:ref + _HEADER + size]
                    )
        self._learned_refs = kept

    # ------------------------------------------------------------------
    # Internal: main search loop
    # ------------------------------------------------------------------

    def _search(self, assumptions: list[int]) -> SolveResult:
        config = self.config
        stats = self.stats
        assigns = self._assigns
        off = self._off
        luby_gen = LubyGenerator(config.restart_base)
        restart_limit = luby_gen.next_limit() if config.use_restarts else -1
        conflicts_since_restart = 0
        total_conflict_budget = (
            config.conflict_limit if config.conflict_limit is not None else -1
        )
        deadline_at = -1.0
        if config.wall_deadline_s is not None:
            deadline_at = self._solve_started + config.wall_deadline_s
            if time.perf_counter() >= deadline_at:
                stats.deadline_hits += 1
                if self._event_cb is not None:
                    self._event_cb("deadline.hit", conflicts=stats.conflicts)
                return SolveResult.UNKNOWN
        deadline_interval = max(1, config.deadline_check_interval)
        prof = self._profiler
        events_since_check = 0
        max_learned = max(
            config.learned_clause_min_limit,
            int(len(self._clause_refs) * config.learned_clause_limit_factor),
        )

        while True:
            if prof is None:
                conflict = self._propagate()
            else:
                conflict = prof.run("propagate", self._propagate)
            if conflict >= 0:
                stats.conflicts += 1
                conflicts_since_restart += 1
                if prof is not None:
                    prof.on_conflict()
                # A level-0 conflict is recorded before anything can cut
                # the search short: propagation has moved _qhead past the
                # falsified clause, so no later solve would revisit it.
                if not self._trail_lim:
                    self._ok = False
                    if self._proof is not None:
                        self._proof.add([])
                    return SolveResult.UNSAT
                if (
                    self._progress_cb is not None
                    and stats.conflicts % self._progress_interval == 0
                ):
                    self._progress_cb(self.progress_snapshot())
                if deadline_at >= 0.0:
                    events_since_check += 1
                    if events_since_check >= deadline_interval:
                        events_since_check = 0
                        if time.perf_counter() >= deadline_at:
                            stats.deadline_hits += 1
                            if self._event_cb is not None:
                                self._event_cb(
                                    "deadline.hit",
                                    conflicts=stats.conflicts,
                                )
                            return SolveResult.UNKNOWN
                if len(self._trail_lim) <= self._n_assumptions_assigned():
                    core = self._core_from_conflict(
                        conflict, set(assumptions)
                    )
                    self._conflict_core = core
                    if not core:
                        # Learned units alone refute the formula.
                        self._ok = False
                        if self._proof is not None:
                            self._proof.add([])
                    return SolveResult.UNSAT
                if prof is None:
                    learned, backtrack_level, lbd = self._analyze(conflict)
                else:
                    learned, backtrack_level, lbd = prof.run(
                        "analyze", self._analyze, conflict
                    )
                if self._proof is not None:
                    self._proof.add(learned)
                backtrack_level_min = self._n_assumptions_assigned()
                if backtrack_level < backtrack_level_min:
                    backtrack_level = backtrack_level_min
                if prof is None:
                    self._backtrack(backtrack_level)
                else:
                    prof.run("backtrack", self._backtrack, backtrack_level)
                if len(learned) == 1:
                    self._enqueue(learned[0], -1)
                else:
                    ref = self._store_learned(learned, lbd)
                    self._learned_refs.append(ref)
                    self._attach(ref)
                    self._bump_clause(self._arena[ref + 1])
                    self._enqueue(learned[0], ref)
                stats.learned_clauses += 1
                stats.learned_literals += len(learned)
                stats.sum_lbd += lbd
                if lbd > stats.max_lbd:
                    stats.max_lbd = lbd
                self._var_inc /= config.var_decay
                self._cla_inc /= config.clause_decay
                if total_conflict_budget >= 0:
                    total_conflict_budget -= 1
                    if total_conflict_budget <= 0:
                        return SolveResult.UNKNOWN
                continue

            # No conflict.
            if (
                restart_limit >= 0
                and conflicts_since_restart >= restart_limit
            ):
                stats.restarts += 1
                stats.restart_conflict_deltas.append(conflicts_since_restart)
                if self._event_cb is not None:
                    self._event_cb(
                        "restart",
                        restarts=stats.restarts,
                        conflicts=stats.conflicts,
                        interval=conflicts_since_restart,
                    )
                conflicts_since_restart = 0
                restart_limit = luby_gen.next_limit()
                if prof is None:
                    self._backtrack(self._n_assumptions_assigned())
                else:
                    prof.run(
                        "restart",
                        self._backtrack,
                        self._n_assumptions_assigned(),
                    )
                continue

            if (
                config.use_clause_deletion
                and len(self._learned_refs) >= max_learned
            ):
                self._reduce_learned()
                max_learned = int(
                    max_learned * config.learned_clause_limit_growth
                )

            # Extend the assumption prefix before free decisions.
            level = len(self._trail_lim)
            if level < len(assumptions):
                lit = assumptions[level]
                value = assigns[off + lit]
                if value == -1:
                    self._conflict_core = self._analyze_final(
                        lit, set(assumptions)
                    )
                    return SolveResult.UNSAT
                self._trail_lim.append(len(self._trail))
                if value == 0:
                    stats.decisions += 1
                    self._enqueue(lit, -1)
                continue

            if prof is None:
                var = self._pick_branch_var()
            else:
                var = prof.run("decide", self._pick_branch_var)
            if var == 0:
                # All variables assigned: model found.
                model = [0] * (self._nv + 1)
                for v in range(1, self._nv + 1):
                    model[v] = assigns[off + v]
                self._model = model
                return SolveResult.SAT
            if deadline_at >= 0.0:
                events_since_check += 1
                if events_since_check >= deadline_interval:
                    events_since_check = 0
                    if time.perf_counter() >= deadline_at:
                        stats.deadline_hits += 1
                        if self._event_cb is not None:
                            self._event_cb(
                                "deadline.hit", conflicts=stats.conflicts
                            )
                        return SolveResult.UNKNOWN
            stats.decisions += 1
            phase = (
                self._saved_phase[var]
                if config.use_phase_saving
                else (1 if config.default_phase else 0)
            )
            self._trail_lim.append(len(self._trail))
            if len(self._trail_lim) > stats.max_decision_level:
                stats.max_decision_level = len(self._trail_lim)
            self._enqueue(var if phase else -var, -1)

    def _n_assumptions_assigned(self) -> int:
        n = len(self._trail_lim)
        return self._n_assumptions if self._n_assumptions < n else n
