"""A CDCL (conflict-driven clause learning) SAT solver.

This is a from-scratch implementation of the modern SAT solver
architecture (MiniSat lineage):

* two-watched-literal unit propagation,
* first-UIP conflict analysis with recursive clause minimization,
* EVSIDS variable activities with a lazy binary heap,
* phase saving,
* Luby-scheduled restarts,
* LBD/activity-guided learned-clause deletion,
* incremental solving under assumptions with unsat-core extraction,
* DRAT proof logging (:meth:`Solver.attach_proof`).

The solver is the satisfiability oracle substituting for Z3 in the paper's
methodology (see DESIGN.md §2).

:class:`Solver` is the public face of the flat-array engine in
:mod:`repro.sat._kernel`, which does all the work.  The only engine choice
left is the build: the interpreted source, or the mypyc extension when it
has been compiled (:func:`repro.sat.kernel.kernel_build` reports which).
The class stays a plain Python class so that callers can subclass it and
instrumentation can wrap its methods.
"""

from __future__ import annotations

from repro.sat._kernel import Kernel
from repro.sat.types import SolveResult, SolverConfig, SolverStats


class Solver:
    """An incremental CDCL SAT solver over DIMACS-style integer literals.

    Typical usage::

        solver = Solver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        result = solver.solve()
        if result:
            assert solver.model_value(2) is True

    Variables are created implicitly by the clauses that mention them, or
    explicitly via :meth:`new_var`.
    """

    def __init__(self, config: SolverConfig | None = None):
        self.config = config or SolverConfig()
        self._k = Kernel(self.config)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def kernel(self) -> str:
        """The kernel build answering this solver's queries:
        ``"interpreted"`` or ``"compiled"``."""
        return self._k.kind

    @property
    def stats(self) -> SolverStats:
        """Lifetime counters (accumulate across :meth:`solve` calls)."""
        return self._k.stats

    @property
    def last_stats(self) -> SolverStats:
        """Counters of the most recent :meth:`solve` call only."""
        return self._k.last_stats

    @property
    def num_vars(self) -> int:
        """Number of variables known to the solver."""
        return self._k.num_vars

    @property
    def num_clauses(self) -> int:
        """Number of problem (non-learned) clauses currently stored."""
        return self._k.num_clauses

    @property
    def num_learned(self) -> int:
        """Number of learned clauses currently stored."""
        return self._k.num_learned

    # ------------------------------------------------------------------
    # Formula
    # ------------------------------------------------------------------

    def attach_proof(self, logger) -> None:
        """Attach a :class:`repro.sat.proof.ProofLogger`.

        From now on every learned clause (and learned-clause deletion) is
        recorded; an unconditional UNSAT answer ends the log with the empty
        clause, yielding a complete DRAT refutation of the clauses added
        to this solver, checkable with
        :func:`repro.sat.proof.check_rup_proof`.  Raises
        :class:`RuntimeError` once the solver has solved: the clauses
        learned by then would be missing from the log.
        """
        self._k.attach_proof(logger)

    def new_var(self) -> int:
        """Create a fresh variable and return its (positive) number."""
        return self._k.new_var()

    def ensure_var(self, var: int) -> None:
        """Make sure variable ``var`` (and all below it) exist."""
        self._k.ensure_var(var)

    def add_clause(self, lits: list[int] | tuple[int, ...]) -> bool:
        """Add a clause; return False if the formula is now trivially UNSAT.

        The clause is simplified against the top-level assignment: satisfied
        clauses are dropped, falsified literals are removed, tautologies are
        ignored.  Adding an empty (or fully falsified) clause makes the solver
        permanently UNSAT.
        """
        return self._k.add_clause(lits)

    def add_clauses(self, clauses) -> bool:
        """Add many clauses in one kernel call; return False if the
        formula is now trivially UNSAT.

        The result is that of calling :meth:`add_clause` on each clause
        in order — the same checks, simplification, level-0 unit
        propagation and proof logging — but the kernel backtracks once
        and pays no per-clause call overhead, so this is the load path
        for whole formulas and clause deltas.  Clauses after the one that
        makes the formula UNSAT are ignored.
        """
        return self._k.add_clauses(clauses)

    def import_clauses(self, clauses) -> int:
        """Add clauses learned elsewhere on the same formula.

        The clauses must be logical consequences of the problem clauses
        (e.g. another solver's :meth:`export_learned` output), which makes
        adding them permanently sound.  Returns the number of clauses
        processed; stops early if the formula becomes unconditionally
        UNSAT.
        """
        return self._k.import_clauses(clauses)

    def simplify(self) -> bool:
        """Remove clauses satisfied at level 0; False if already UNSAT."""
        return self._k.simplify()

    # ------------------------------------------------------------------
    # Solving and answers
    # ------------------------------------------------------------------

    def solve(
        self, assumptions: list[int] | tuple[int, ...] = ()
    ) -> SolveResult:
        """Solve the current formula under the given assumption literals.

        Returns :data:`SolveResult.SAT`, :data:`SolveResult.UNSAT`, or
        :data:`SolveResult.UNKNOWN` (only when a configured conflict limit
        or wall deadline is exhausted).  After SAT, :meth:`model_value` reads
        the model; after UNSAT under assumptions, :meth:`unsat_core` lists
        the failed subset.
        """
        return self._k.solve(assumptions)

    def model_value(self, lit: int) -> bool | None:
        """Value of ``lit`` in the last model (None if never assigned)."""
        return self._k.model_value(lit)

    def model(self) -> list[int]:
        """The last model as a list of true literals (DIMACS convention)."""
        return self._k.model()

    def unsat_core(self) -> list[int]:
        """Subset of the assumptions responsible for the last UNSAT answer."""
        return self._k.unsat_core()

    def root_literals(self) -> list[int]:
        """The level-0 trail (facts derived unconditionally), in order."""
        return self._k.root_literals()

    def export_learned(
        self,
        max_lbd: int = 4,
        max_len: int = 8,
        limit: int | None = None,
        skip_keys: set[tuple[int, ...]] | None = None,
    ) -> list[list[int]]:
        """Harvest high-quality implied clauses for sharing.

        Returns the solver's level-0 facts (as unit clauses) followed by
        learned clauses with LBD <= ``max_lbd`` and length <= ``max_len``
        — all consequences of the problem clauses alone, so they can be
        soundly added to any solver working on the same formula
        (assumptions never leak into learned clauses: they enter the
        search as decisions and appear negated in the learned clause
        instead of being resolved away).

        ``skip_keys`` (a set of sorted-literal tuples) is consulted *and
        updated*, so repeated calls on the same set only return clauses
        not exported before.  ``limit`` bounds the number returned.
        """
        return self._k.export_learned(max_lbd, max_len, limit, skip_keys)

    # ------------------------------------------------------------------
    # Observation hooks
    # ------------------------------------------------------------------

    def on_progress(self, callback, interval_conflicts: int = 2000) -> None:
        """Invoke ``callback(snapshot)`` every ``interval_conflicts``
        conflicts during search — a periodic progress feed for long solves.

        ``snapshot`` is the dict of :meth:`progress_snapshot`.  Pass
        ``callback=None`` to detach.  The hook costs one attribute check
        per conflict when detached.
        """
        self._k.on_progress(callback, interval_conflicts)

    def on_event(self, callback) -> None:
        """Invoke ``callback(kind, **args)`` at notable search events.

        Emitted kinds: ``"restart"`` (with the conflict interval that
        triggered it) and ``"deadline.hit"`` (wall budget expired
        mid-search).  Pass None to detach; the detached hook costs one
        attribute check per event.  The observability layers attach this
        to feed the structured event stream (:mod:`repro.obs.events`) —
        the solver itself stays import-free of it.
        """
        self._k.on_event(callback)

    def progress_snapshot(self) -> dict:
        """A cheap point-in-time view of the search state."""
        return self._k.progress_snapshot()
