"""Infeasibility diagnosis: *which* timetable commitments conflict?

When verification answers UNSAT, the paper's methodology proves the
schedule impossible — but a designer next wants to know *why*.  This module
answers it at the domain level: each train's arrival deadline (and stop
windows) becomes a soft commitment guarded by a solver assumption; the unsat
core names the conflicting trains, and an iterative deletion pass shrinks it
to a *minimal* conflicting set (removing any one train's commitments from it
makes the rest realisable).  Every trial is a probe of one serial probe
session (:func:`repro.sat.open_session`).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.encoding.encoder import EncodingOptions, EtcsEncoding
from repro.network.discretize import DiscreteNetwork
from repro.network.sections import VSSLayout
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.sat import SolveResult
from repro.sat.service import open_session
from repro.trains.schedule import Schedule


@dataclass
class DiagnosisResult:
    """Outcome of :func:`diagnose_infeasibility`.

    Attributes:
        feasible: True when all commitments hold together (empty diagnosis).
        conflicting_trains: minimal set of train names whose deadlines/stops
            cannot jointly be met on the layout (empty when feasible).
        relaxable: True when dropping the conflicting trains' commitments
            makes the remaining schedule realisable (sanity confirmation).
        structural: True when the infeasibility persists even with *all*
            commitments relaxed — the layout simply cannot host the runs
            within the horizon (e.g. the running example's pure-TTD
            deadlock); no deadline is to blame.
        solve_calls: probes used.
        runtime_s: wall-clock seconds.
        metrics: flat ``diagnosis.*`` metrics of the run
            (:class:`repro.obs.metrics.MetricsRegistry` export), with the
            session's solver counters as ``diagnosis.solver.*``.
    """

    feasible: bool
    conflicting_trains: list[str] = field(default_factory=list)
    relaxable: bool = False
    structural: bool = False
    solve_calls: int = 0
    runtime_s: float = 0.0
    metrics: dict = field(default_factory=dict)


def diagnose_infeasibility(
    net: DiscreteNetwork,
    schedule: Schedule,
    r_t_min: float,
    layout: VSSLayout | None = None,
    options: EncodingOptions | None = None,
) -> DiagnosisResult:
    """Find a minimal set of trains whose commitments conflict on ``layout``.

    The layout defaults to the pure TTD layout (the verification setting).
    Note that even with all commitments relaxed, trains must still complete
    their runs within the scenario horizon — if that alone is impossible the
    diagnosis reports *all* trains of the final core.  The encoding is
    eager and every trial probes one serial session, so the trains named
    never depend on timing.  A probe that answers UNKNOWN raises
    :class:`RuntimeError`.
    """
    start = time.perf_counter()
    if layout is None:
        layout = VSSLayout.pure_ttd(net)
    options = dataclasses.replace(
        options or EncodingOptions(), guarded_arrivals=True
    )
    with trace.span("diagnose"):
        encoding = EtcsEncoding(net, schedule, r_t_min, options).build()
        encoding.pin_layout(layout)
        selector_of = encoding.arrival_selectors
        all_selectors = [selector_of[i] for i in sorted(selector_of)]
        session = open_session(encoding.cnf.num_vars, encoding.cnf.clauses)
        calls = 0

        def conflicting(assumptions: list[int]) -> list[int] | None:
            """The probe's core within ``assumptions``; None when SAT."""
            nonlocal calls
            calls += 1
            with trace.span("diagnosis.probe", call=calls) as span:
                outcome = session.probe(assumptions)
                span.add(verdict=outcome.verdict.name)
            if outcome.verdict is SolveResult.UNKNOWN:
                raise RuntimeError("diagnosis probe answered UNKNOWN")
            if outcome.verdict is SolveResult.SAT:
                return None
            return [lit for lit in outcome.unsat_core if lit in assumptions]

        try:
            core = conflicting(all_selectors)
            if core is not None:
                # A conflict independent of every commitment starts from
                # them all.
                core = _shrink(core or all_selectors, conflicting)
            # Sanity: relaxing exactly the core must make the rest
            # feasible.
            relaxable = core is not None and conflicting(
                [lit for lit in all_selectors if lit not in core]
            ) is None
        finally:
            session.close()

    index_of = {selector: i for i, selector in selector_of.items()}
    trains = sorted(encoding.runs[index_of[lit]].name for lit in core or ())
    runtime = time.perf_counter() - start
    reg = MetricsRegistry()
    reg.absorb_solver_stats(session.solver_stats(), "diagnosis.solver.")
    reg.inc("diagnosis.runs")
    reg.inc("diagnosis.solve_calls", calls)
    reg.set("diagnosis.core_size", len(trains))
    reg.set("diagnosis.runtime_s", runtime)
    return DiagnosisResult(
        feasible=core is None,
        conflicting_trains=trains,
        relaxable=relaxable,
        structural=core is not None and not trains,
        solve_calls=calls,
        runtime_s=runtime,
        metrics=reg.as_dict(),
    )


def _shrink(
    core: list[int], conflicting: Callable[[list[int]], list[int] | None]
) -> list[int]:
    """Iterative deletion: drop any selector without which the rest still
    conflicts, keeping the probe's own core, until none can go."""
    while True:
        for candidate in core:
            trial = [lit for lit in core if lit != candidate]
            shrunk = conflicting(trial)
            if shrunk is not None:
                core = shrunk or trial
                break
        else:
            return core
