"""Named variable pools and CNF clause containers.

The encoder in :mod:`repro.encoding` creates thousands of variables such as
``occupies[tr=2][e=14][t=7]``; :class:`VarPool` maps such structured names to
DIMACS variable numbers and back, and :class:`CNF` accumulates clauses before
they are handed to a :class:`repro.sat.Solver`.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.sat.solver import Solver


class VarPool:
    """Allocates DIMACS variable numbers for hashable names.

    Names are arbitrary hashable keys (tuples like ``("occupies", 2, 14, 7)``
    by convention).  Anonymous auxiliary variables can be allocated with
    :meth:`new_aux` and are counted separately, so results can report
    "primary" variable counts the way the paper's Table I does.
    """

    def __init__(self) -> None:
        self._by_name: dict[Hashable, int] = {}
        self._by_index: dict[int, Hashable] = {}
        self._next = 1
        self._aux_count = 0

    @property
    def num_vars(self) -> int:
        """Total number of variables allocated (named + auxiliary)."""
        return self._next - 1

    @property
    def num_named(self) -> int:
        """Number of named (primary) variables."""
        return len(self._by_name)

    @property
    def num_aux(self) -> int:
        """Number of anonymous auxiliary variables."""
        return self._aux_count

    @property
    def names(self) -> Mapping[Hashable, int]:
        """The live name → variable table (read only; allocate through
        :meth:`var`)."""
        return self._by_name

    def var(self, name: Hashable) -> int:
        """Return the variable number for ``name``, allocating if new."""
        index = self._by_name.get(name)
        if index is None:
            index = self._next
            self._next += 1
            self._by_name[name] = index
            self._by_index[index] = name
        return index

    def lookup(self, name: Hashable) -> int | None:
        """Variable number for ``name`` if it exists, else None."""
        return self._by_name.get(name)

    def name_of(self, index: int) -> Hashable | None:
        """Name of a variable number (None for auxiliary variables)."""
        return self._by_index.get(index)

    def new_aux(self) -> int:
        """Allocate an anonymous auxiliary variable."""
        index = self._next
        self._next += 1
        self._aux_count += 1
        return index

    def __contains__(self, name: Hashable) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return self.num_vars


class CNF:
    """A growing conjunction of clauses tied to a :class:`VarPool`."""

    def __init__(self, pool: VarPool | None = None):
        self.pool = pool if pool is not None else VarPool()
        self.clauses: list[list[int]] = []

    @property
    def num_vars(self) -> int:
        return self.pool.num_vars

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def add(self, clause: Iterable[int]) -> None:
        """Add one clause (an iterable of non-zero literals)."""
        lits = list(clause)
        if 0 in lits:
            raise ValueError(f"clause contains literal 0: {lits}")
        self.clauses.append(lits)

    def add_all(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add many clauses."""
        for clause in clauses:
            self.add(clause)

    def add_unit(self, lit: int) -> None:
        """Add a unit clause fixing ``lit`` to true."""
        self.add([lit])

    def add_implication(
        self, antecedent: int, consequent: Iterable[int]
    ) -> None:
        """Add ``antecedent -> (c1 v c2 v ...)`` as one clause."""
        self.add([-antecedent, *consequent])

    def to_solver(self, solver: Solver | None = None) -> Solver:
        """Load all clauses into a solver (a fresh one by default)."""
        solver = solver if solver is not None else Solver()
        solver.ensure_var(max(self.num_vars, 1))
        solver.add_clauses(self.clauses)
        return solver

    def literals_size(self) -> int:
        """Total number of literal occurrences (encoding size measure)."""
        return sum(len(clause) for clause in self.clauses)


def clauses_satisfied(
    clauses: Iterable[Iterable[int]], true_vars: set[int]
) -> bool:
    """Whether an assignment satisfies every clause.

    ``true_vars`` is the set of variables assigned true; every other
    variable counts as false (the closed-world reading of a true-literal
    model).  This is the O(formula) certificate check behind warm
    starts: a cached model is only ever *reused* after it has been
    re-evaluated against the current clause set, so replaying a witness
    from a delta-close instance can never smuggle in a stale verdict.
    """
    for clause in clauses:
        for lit in clause:
            if (lit > 0) == (abs(lit) in true_vars):
                break
        else:
            return False
    return True
