"""Interactive layout exploration on a single probe session.

Designers comparing VSS layout candidates (the paper's workflow in §II-B)
should not pay the encoding + solving cost from scratch per candidate.  The
:class:`LayoutExplorer` encodes the scenario once with *free* border
variables and answers per-layout feasibility queries as probes of one
session (:func:`repro.sat.open_session`) under border assumptions — the
solver keeps its learned clauses between queries, so a sequence of checks
is far cheaper than independent runs.  The encoding is eager, so each query
is one probe, with no lazy refinement.
"""

from __future__ import annotations

from repro.encoding.decode import Solution
from repro.encoding.encoder import EncodingOptions
from repro.network.discretize import DiscreteNetwork
from repro.network.sections import VSSLayout
from repro.obs import trace
from repro.sat import SolveResult
from repro.sat.service import open_session
from repro.tasks.common import build_encoding, checked_decode
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
        self._encoding = build_encoding(net, schedule, r_t_min, options)
        cnf = self._encoding.cnf
        self._session = open_session(cnf.num_vars, cnf.clauses)
        self.last_solution: Solution | None = None
        self.queries = 0

    def check(self, layout: VSSLayout) -> bool:
        """Is the schedule feasible under ``layout``?

        On success, ``last_solution`` holds the decoded, validated witness.
        """
        self.queries += 1
        with trace.span("explorer.probe", call=self.queries) as span:
            outcome = self._session.probe(
                self._encoding.layout_literals(layout)
            )
            span.add(verdict=outcome.verdict.name)
        if outcome.verdict is not SolveResult.SAT:
            self.last_solution = None
            return False
        self.last_solution = checked_decode(
            self._encoding, {lit for lit in outcome.model if lit > 0}
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
        return self._session.solver_stats()
