"""Variable registry for the symbolic formulation.

Maps the paper's variable families to DIMACS numbers via a
:class:`repro.logic.VarPool`:

* ``border(v)``          — vertex ``v`` separates two VSS sections,
* ``occupies(tr, e, t)`` — train ``tr`` occupies segment ``e`` at step ``t``,
* ``done(tr, t)``        — train ``tr`` has reached its final stop by ``t``
  (the paper's ``done`` variable),
* ``gone(tr, t)``        — train ``tr`` has left the network (an encoding
  refinement: absent trains occupy nothing; see DESIGN.md §5),
* ``chain(tr, i, t)``    — auxiliary chain selectors for trains longer than
  one segment,
* ``done_all(t)``        — the paper's ``done^t`` conjunction.

A variable's name is a tuple whose first item is its family, so the
primary-variable census that the paper's Table I "Var." column reports
is counted from the pool's names when asked; creating a variable keeps
no counter.
"""

from __future__ import annotations

from repro.logic.cnf import VarPool

#: The registry's variable families, in census order.
FAMILIES = ("border", "occupies", "done", "gone", "chain", "done_all")


class VariableRegistry:
    """Typed accessors over a :class:`VarPool` plus variable census."""

    def __init__(self, pool: VarPool | None = None):
        self.pool = pool if pool is not None else VarPool()
        # The pool's name table: an existing variable costs one lookup.
        self._names = self.pool.names

    # -- creation (allocates on first use) ----------------------------------

    def border(self, vertex: int) -> int:
        name = ("border", vertex)
        var = self._names.get(name)
        return self.pool.var(name) if var is None else var

    def occupies(self, train: int, segment: int, step: int) -> int:
        name = ("occupies", train, segment, step)
        var = self._names.get(name)
        return self.pool.var(name) if var is None else var

    def done(self, train: int, step: int) -> int:
        name = ("done", train, step)
        var = self._names.get(name)
        return self.pool.var(name) if var is None else var

    def gone(self, train: int, step: int) -> int:
        name = ("gone", train, step)
        var = self._names.get(name)
        return self.pool.var(name) if var is None else var

    def chain(self, train: int, chain_index: int, step: int) -> int:
        name = ("chain", train, chain_index, step)
        var = self._names.get(name)
        return self.pool.var(name) if var is None else var

    def done_all(self, step: int) -> int:
        name = ("done_all", step)
        var = self._names.get(name)
        return self.pool.var(name) if var is None else var

    # -- lookup (no creation) ----------------------------------------------

    def lookup_occupies(
        self, train: int, segment: int, step: int
    ) -> int | None:
        return self.pool.lookup(("occupies", train, segment, step))

    def lookup_done(self, train: int, step: int) -> int | None:
        return self.pool.lookup(("done", train, step))

    def lookup_gone(self, train: int, step: int) -> int | None:
        return self.pool.lookup(("gone", train, step))

    def lookup_border(self, vertex: int) -> int | None:
        return self.pool.lookup(("border", vertex))

    # -- census (counted from the pool's names) -----------------------------

    @property
    def num_border(self) -> int:
        return self.census()["border"]

    @property
    def num_occupies(self) -> int:
        return self.census()["occupies"]

    @property
    def num_done(self) -> int:
        return self.census()["done"]

    @property
    def num_gone(self) -> int:
        return self.census()["gone"]

    @property
    def num_chain(self) -> int:
        return self.census()["chain"]

    @property
    def num_done_all(self) -> int:
        return self.census()["done_all"]

    @property
    def num_primary(self) -> int:
        """border + occupies + done: the paper's problem variables."""
        census = self.census()
        return census["border"] + census["occupies"] + census["done"]

    @property
    def num_structural(self) -> int:
        """Encoding-internal named variables (chains, gone, done_all)."""
        census = self.census()
        return census["chain"] + census["gone"] + census["done_all"]

    def census(self) -> dict[str, int]:
        """All counts, for reports: each family's named variables, then
        the pool's auxiliary and total counts."""
        census = dict.fromkeys(FAMILIES, 0)
        for name in self.pool.names:
            # A shared pool may hold names of any hashable type.
            if isinstance(name, tuple) and name and name[0] in census:
                census[name[0]] += 1
        census["aux"] = self.pool.num_aux
        census["total"] = self.pool.num_vars
        return census
