"""Interactive layout exploration on a single incremental solver.

Designers comparing VSS layout candidates (the paper's workflow in §II-B)
should not pay the encoding + solving cost from scratch per candidate.  The
:class:`LayoutExplorer` encodes the scenario once with *free* border
variables and answers per-layout feasibility queries through solver
assumptions — the solver keeps its learned clauses between queries, so a
sequence of checks is far cheaper than independent runs.
"""

from __future__ import annotations

from repro.encoding.decode import Solution
from repro.encoding.encoder import EncodingOptions, EtcsEncoding
from repro.network.discretize import DiscreteNetwork
from repro.network.sections import VSSLayout
from repro.sat import SolveResult, Solver
from repro.tasks.common import checked_decode
from repro.trains.schedule import Schedule


class LayoutExplorer:
    """Answers "does this VSS layout realise the schedule?" repeatedly.

    Example::

        explorer = LayoutExplorer(net, schedule, r_t_min=1.0)
        explorer.check(VSSLayout.pure_ttd(net))     # False
        explorer.check(VSSLayout.finest(net))       # True
        solution = explorer.last_solution           # decoded witness
    """

    def __init__(
        self,
        net: DiscreteNetwork,
        schedule: Schedule,
        r_t_min: float,
        options: EncodingOptions | None = None,
    ):
        self.net = net
        self._encoding = EtcsEncoding(net, schedule, r_t_min, options).build()
        self._solver = self._encoding.cnf.to_solver(Solver())
        self._num_base_clauses = self._encoding.cnf.num_clauses
        self.last_solution: Solution | None = None
        self.queries = 0

    def _assumptions_for(self, layout: VSSLayout) -> list[int]:
        assumptions = []
        for vertex in range(self.net.num_vertices):
            var = self._encoding.reg.border(vertex)
            assumptions.append(var if layout.is_border(vertex) else -var)
        return assumptions

    def check(self, layout: VSSLayout) -> bool:
        """Is the schedule feasible under ``layout``?

        On success, ``last_solution`` holds the decoded, validated witness.
        """
        # New clauses may have been appended to the shared CNF (e.g. by a
        # totalizer elsewhere); keep the solver in sync.
        self._solver.add_clauses(
            self._encoding.cnf.clauses[self._num_base_clauses:]
        )
        self._num_base_clauses = self._encoding.cnf.num_clauses

        self.queries += 1
        verdict = self._solver.solve(self._assumptions_for(layout))
        if verdict is not SolveResult.SAT:
            self.last_solution = None
            return False
        self.last_solution = checked_decode(
            self._encoding,
            {lit for lit in self._solver.model() if lit > 0},
        )
        return True

    def makespan_of(self, layout: VSSLayout) -> int | None:
        """Makespan of some witness under ``layout`` (None if infeasible)."""
        if not self.check(layout):
            return None
        return self.last_solution.makespan

    @property
    def solver_stats(self) -> dict:
        """Cumulative solver statistics across all queries."""
        return self._solver.stats.as_dict()
