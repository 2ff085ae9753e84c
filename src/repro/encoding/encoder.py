"""Assembling the paper's SAT formulation (§III-B / §III-C).

:class:`EtcsEncoding` turns a railway network + schedule into CNF:

1. *Placement*: each present train occupies exactly one chain of ``l*``
   connected segments (the paper's exactly-one-chain constraint, linearised
   through chain-selector variables).
2. *Movement*: an occupied segment implies a reachable occupied segment in
   the next step (or the train has left the network).
3. *VSS separation*: two trains in the same TTD force a border between them.
4. *No passing through*: a moving train forbids other trains on the path it
   traverses, plus explicit position-swap blocking (DESIGN.md §5).
5. *Schedule*: departures, intermediate stops, arrival deadlines.
6. *Objectives*: ``min Σ border_v`` (generation) and ``min Σ_t ¬done^t``
   (optimization), exposed as soft-literal lists for :mod:`repro.opt`.

The cross-train families (separation, collision, swap) can be *deferred*
with ``build(lazy=True)``: no clause of theirs is emitted up front, and
the counterexample-guided loop in :mod:`repro.encoding.lazy` adds only
the violated pair instances via the per-pair ``emit_*_pair`` methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.encoding.cone import Cone, multi_source_distances
from repro.encoding.decode import Solution, decode_solution
from repro.encoding.variables import VariableRegistry
from repro.obs import trace
from repro.logic.cardinality import exactly_one
from repro.logic.cnf import CNF
from repro.network.discretize import DiscreteNetwork
from repro.network.paths import (
    TTDPathIndex,
    chains as enumerate_chains,
    interior_segments_of_paths,
    reachable,
)
from repro.network.sections import VSSLayout
from repro.trains.discretize import discretize_schedule
from repro.trains.schedule import Schedule, ScheduleError


@dataclass
class EncodingOptions:
    """Tunable encoding choices (the ablation benches vary these)."""

    amo: str = "ladder"  # at-most-one flavour for the placement constraint
    use_cone: bool = True  # cone-of-influence variable pruning
    add_swap_clauses: bool = True  # explicit adjacent-position swap blocking
    add_collision_clauses: bool = True  # the paper's no-passing constraint
    guarded_arrivals: bool = False  # guard deadlines by per-train selectors
    # (guarded arrivals imply cone pruning must not use the deadlines)


#: Families build(lazy=True) defers to the CEGAR loop: the cross-train
#: constraints, whose instances are mostly inactive in any one model.
LAZY_FAMILIES = ("separation", "collision", "swap")


class EtcsEncoding:
    """CNF encoding of one network/schedule scenario.

    Typical use (the task helpers in :mod:`repro.tasks` wrap this)::

        enc = EtcsEncoding(discrete_net, schedule, r_t_min=0.5)
        enc.build()
        enc.pin_layout(layout)              # verification only
        solver = enc.cnf.to_solver()
        if solver.solve():
            solution = enc.decode(set(l for l in solver.model() if l > 0))
    """

    def __init__(
        self,
        net: DiscreteNetwork,
        schedule: Schedule,
        r_t_min: float,
        options: EncodingOptions | None = None,
    ):
        self.net = net
        self.schedule = schedule
        self.r_t_min = r_t_min
        self.options = options or EncodingOptions()
        self.runs, self.t_max = discretize_schedule(net, schedule, r_t_min)
        self.cone = Cone(
            net,
            self.runs,
            self.t_max,
            self.options.use_cone,
            ignore_deadlines=self.options.guarded_arrivals,
        )
        # train index -> selector variable guarding its timetable commitments
        # (populated when options.guarded_arrivals is set).
        self.arrival_selectors: dict[int, int] = {}
        self.reg = VariableRegistry()
        self.cnf = CNF(self.reg.pool)
        self._built = False
        # Families skipped by build(lazy=True), in eager emission order;
        # () after an eager build.
        self.deferred_families: tuple[str, ...] = ()
        # Per-constraint-family encoding sizes (vars/clauses/literals added
        # by each family of build()) — the paper's §III families, measured.
        self.family_stats: dict[str, dict[str, int]] = {}
        # Earliest possible arrival step per train (departure + travel time).
        self._earliest_arrival: list[int] = []
        for run in self.runs:
            from_start = multi_source_distances(net, list(run.start_segments))
            distances = [
                from_start[g] for g in run.goal_segments if from_start[g] >= 0
            ]
            if not distances:
                raise ScheduleError(
                    f"train {run.name!r}: goal unreachable from start"
                )
            travel = math.ceil(min(distances) / run.speed_segments)
            self._earliest_arrival.append(run.departure_step + travel)
        # Caches.
        self._reach_cache: dict[int, list[list[int]]] = {}
        self._chain_cache: dict[int, list[tuple[int, ...]]] = {}
        self._interior_cache: dict[tuple[int, int, int], frozenset[int]] = {}
        self._ttd_index = TTDPathIndex(net)

    # ------------------------------------------------------------------
    # Cached graph queries
    # ------------------------------------------------------------------

    def _reach(self, speed: int) -> list[list[int]]:
        """reachable(e, speed) for every segment, cached per speed."""
        cached = self._reach_cache.get(speed)
        if cached is None:
            cached = [
                reachable(self.net, e, speed)
                for e in range(self.net.num_segments)
            ]
            self._reach_cache[speed] = cached
        return cached

    def _chains(self, length: int) -> list[tuple[int, ...]]:
        """All chains of ``length`` segments, cached per length."""
        cached = self._chain_cache.get(length)
        if cached is None:
            cached = enumerate_chains(self.net, length)
            self._chain_cache[length] = cached
        return cached

    def _interiors(self, e: int, f: int, max_edges: int) -> frozenset[int]:
        key = (e, f, max_edges)
        cached = self._interior_cache.get(key)
        if cached is None:
            cached = frozenset(
                interior_segments_of_paths(self.net, e, f, max_edges)
            )
            self._interior_cache[key] = cached
            self._interior_cache[(f, e, max_edges)] = cached
        return cached

    # ------------------------------------------------------------------
    # Building the base formulation
    # ------------------------------------------------------------------

    def build(self, lazy: bool = False) -> "EtcsEncoding":
        """Emit the base constraints.  Returns self for chaining.

        Each constraint family is traced (``encode.<family>`` spans) and
        its contribution to the encoding size recorded in
        :attr:`family_stats`.

        With ``lazy`` the cross-train families (:data:`LAZY_FAMILIES`,
        honouring the usual :class:`EncodingOptions` gates) are skipped
        and recorded in :attr:`deferred_families` instead, for
        :class:`repro.encoding.lazy.LazyRefiner` to instantiate on
        demand.  The deferred families add clauses over variables the
        eager families already create (``occupies`` over the cone,
        ``border``), so refinement never grows the variable space — safe
        for incremental solvers and already-forked service workers.
        """
        if self._built:
            raise RuntimeError("encoding already built")
        self._built = True
        enabled: list[tuple[str, Callable[[], None]]] = [
            ("separation", self._separation_constraints),
        ]
        if self.options.add_collision_clauses:
            enabled.append(("collision", self._collision_constraints))
        if self.options.add_swap_clauses:
            enabled.append(("swap", self._swap_constraints))
        families: list[tuple[str, Callable[[], None]]] = [
            ("borders", self._create_borders),
            ("placement", self._placement_constraints),
            ("departure", self._departure_constraints),
            ("movement", self._movement_constraints),
        ]
        if lazy:
            self.deferred_families = tuple(name for name, _ in enabled)
        else:
            families.extend(enabled)
        families.append(("schedule", self._goal_and_stop_constraints))
        families.append(("done", self._done_constraints))
        for name, emit in families:
            self._emit_family(name, emit)
        return self

    def _emit_family(self, name: str, emit: Callable[[], None]) -> None:
        """Run one constraint family, measuring its encoding footprint."""
        vars_before = self.cnf.num_vars
        clauses_before = self.cnf.num_clauses
        with trace.span(f"encode.{name}"):
            emit()
        added = self.cnf.clauses[clauses_before:]
        self.family_stats[name] = {
            "vars": self.cnf.num_vars - vars_before,
            "clauses": len(added),
            "literals": sum(map(len, added)),
        }

    def _create_borders(self) -> None:
        """border_v for every vertex; forced borders pinned true."""
        for vertex in range(self.net.num_vertices):
            var = self.reg.border(vertex)
            if vertex in self.net.forced_borders:
                self.cnf.add_unit(var)

    def _gone_allowed(self, train: int, step: int) -> bool:
        """May ``train`` be out of the network (post-arrival) at ``step``?"""
        return step > self._earliest_arrival[train]

    def _placement_constraints(self) -> None:
        """Exactly one chain (or absence) per train per present step."""
        for i, run in enumerate(self.runs):
            footprint = run.length_segments
            for t in range(run.departure_step, self.t_max):
                possible = self.cone.at(i, t)
                alternatives: list[int] = []
                if footprint == 1:
                    alternatives.extend(
                        self.reg.occupies(i, e, t) for e in sorted(possible)
                    )
                else:
                    alternatives.extend(
                        self._chain_placement(i, t, footprint, possible)
                    )
                if self._gone_allowed(i, t):
                    alternatives.append(self.reg.gone(i, t))
                if not alternatives:
                    # The train cannot be anywhere: trivially infeasible.
                    self.cnf.add([])
                    continue
                exactly_one(self.cnf, alternatives, amo=self.options.amo)

    def _chain_placement(
        self, i: int, t: int, footprint: int, possible: frozenset[int]
    ) -> list[int]:
        """Chain-selector linearisation for multi-segment trains."""
        covering: dict[int, list[int]] = {e: [] for e in possible}
        selectors: list[int] = []
        for chain_index, chain in enumerate(self._chains(footprint)):
            if not all(e in possible for e in chain):
                continue
            selector = self.reg.chain(i, chain_index, t)
            selectors.append(selector)
            for e in chain:
                # selector -> occupies every chain segment
                self.cnf.add([-selector, self.reg.occupies(i, e, t)])
                covering[e].append(selector)
        for e in sorted(possible):
            # occupies -> some selected chain covers the segment
            self.cnf.add(
                [-self.reg.occupies(i, e, t), *covering[e]]
            )
        return selectors

    def _departure_constraints(self) -> None:
        """At the departure step, the train's chain touches its start
        station."""
        for i, run in enumerate(self.runs):
            possible = self.cone.at(i, run.departure_step)
            lits = [
                self.reg.occupies(i, e, run.departure_step)
                for e in sorted(set(run.start_segments) & possible)
            ]
            self.cnf.add(lits)  # empty clause = infeasible, as it should be

    def _movement_constraints(self) -> None:
        """occupies(e, t) -> reachable occupied at t+1, or train gone."""
        for i, run in enumerate(self.runs):
            reach = self._reach(run.speed_segments)
            for t in range(run.departure_step, self.t_max - 1):
                possible_now = self.cone.at(i, t)
                possible_next = self.cone.at(i, t + 1)
                gone_next = (
                    self.reg.gone(i, t + 1)
                    if self._gone_allowed(i, t + 1)
                    else None
                )
                for e in possible_now:
                    consequent = [
                        self.reg.occupies(i, f, t + 1)
                        for f in reach[e]
                        if f in possible_next
                    ]
                    if gone_next is not None:
                        consequent.append(gone_next)
                    self.cnf.add(
                        [-self.reg.occupies(i, e, t), *consequent]
                    )

    def _separation_constraints(self) -> None:
        """Two trains in one TTD force a VSS border between them."""
        for i in range(len(self.runs)):
            for j in range(i + 1, len(self.runs)):
                for t in range(self.t_max):
                    self.emit_separation_pair(i, j, t)

    def emit_separation_pair(self, i: int, j: int, t: int) -> int:
        """VSS-separation clauses for the pair ``(i, j)`` at step ``t``.

        Returns the number of clauses emitted.
        """
        sink = self.cnf.add
        possible_i = self.cone.at(i, t)
        possible_j = self.cone.at(j, t)
        if not possible_i or not possible_j:
            return 0
        count = 0
        for ttd, members in self.net.ttd_segments.items():
            members_i = [e for e in members if e in possible_i]
            if not members_i:
                continue
            members_j = [e for e in members if e in possible_j]
            if not members_j:
                continue
            for e in members_i:
                occ_i = self.reg.occupies(i, e, t)
                for f in members_j:
                    occ_j = self.reg.occupies(j, f, t)
                    if e == f:
                        sink([-occ_i, -occ_j])
                        count += 1
                        continue
                    borders = [
                        self.reg.border(v)
                        for v in self._ttd_index.between(e, f)
                    ]
                    sink([-occ_i, -occ_j, *borders])
                    count += 1
        return count

    def _collision_constraints(self) -> None:
        """A moving train forbids others on the traversed path (paper
        §III-B)."""
        for i, run_i in enumerate(self.runs):
            for t in range(run_i.departure_step, self.t_max - 1):
                for j in range(len(self.runs)):
                    self.emit_collision_pair(i, j, t)

    def emit_collision_pair(self, i: int, j: int, t: int) -> int:
        """No-passing clauses for mover ``i`` vs train ``j`` over ``t``.

        Covers train ``i``'s moves from ``t`` to ``t + 1``: train ``j``
        may not sit on the traversed interior at either endpoint step.
        Returns the number of clauses emitted.
        """
        run_i = self.runs[i]
        if j == i or not run_i.departure_step <= t < self.t_max - 1:
            return 0
        sink = self.cnf.add
        occupies = self.reg.occupies
        interiors_of = self._interiors
        reach = self._reach(run_i.speed_segments)
        max_edges = run_i.speed_segments + 1
        possible_now = self.cone.at(i, t)
        possible_next = self.cone.at(i, t + 1)
        other_now = self.cone.at(j, t)
        other_next = self.cone.at(j, t + 1)
        if not other_now and not other_next:
            return 0
        # g -> (-occupies(j, g, t), -occupies(j, g, t + 1)), 0 where train
        # j cannot be on g; looked up (so created) when g is first met.
        bystander: dict[int, tuple[int, int]] = {}
        count = 0
        for e in possible_now:
            occ_e = occupies(i, e, t)
            for f in reach[e]:
                if f == e or f not in possible_next:
                    continue
                interiors = interiors_of(e, f, max_edges)
                if not interiors:
                    continue
                occ_f = occupies(i, f, t + 1)
                for g in interiors:
                    lits = bystander.get(g)
                    if lits is None:
                        lits = bystander[g] = (
                            -occupies(j, g, t) if g in other_now else 0,
                            -occupies(j, g, t + 1) if g in other_next else 0,
                        )
                    if lits[0]:
                        sink([-occ_e, -occ_f, lits[0]])
                        count += 1
                    if lits[1]:
                        sink([-occ_e, -occ_f, lits[1]])
                        count += 1
        return count

    def _swap_constraints(self) -> None:
        """Forbid two trains exchanging positions across one step.

        The paper's path constraint only covers segments *strictly between*
        the endpoints of a move, which leaves the symmetric swap
        (tr1: e->f while tr2: f->e) unconstrained; these quaternary clauses
        close that soundness gap (DESIGN.md §5).
        """
        for i in range(len(self.runs)):
            for j in range(i + 1, len(self.runs)):
                for t in range(self.t_max - 1):
                    self.emit_swap_pair(i, j, t)

    def emit_swap_pair(self, i: int, j: int, t: int) -> int:
        """Position-swap blocking for the pair ``i < j`` across step ``t``.

        Returns the number of clauses emitted.
        """
        if not 0 <= t < self.t_max - 1:
            return 0
        sink = self.cnf.add
        reach = self._reach(
            min(self.runs[i].speed_segments, self.runs[j].speed_segments)
        )
        pi_now = self.cone.at(i, t)
        pi_next = self.cone.at(i, t + 1)
        pj_now = self.cone.at(j, t)
        pj_next = self.cone.at(j, t + 1)
        if not pi_now or not pj_now:
            return 0
        count = 0
        for e in pi_now:
            if e not in pj_next:
                continue
            for f in reach[e]:
                if f == e:
                    continue
                if f not in pi_next or f not in pj_now:
                    continue
                sink(
                    [
                        -self.reg.occupies(i, e, t),
                        -self.reg.occupies(i, f, t + 1),
                        -self.reg.occupies(j, f, t),
                        -self.reg.occupies(j, e, t + 1),
                    ]
                )
                count += 1
        return count

    def _goal_and_stop_constraints(self) -> None:
        """Goal must be visited by the deadline; stops within their windows.

        With ``options.guarded_arrivals``, each train's deadline and stop
        windows are guarded by a selector literal: assuming the selector
        enforces the commitment, leaving it free relaxes it.  Completion
        within the horizon stays a hard constraint either way.
        """
        guarded = self.options.guarded_arrivals
        for i, run in enumerate(self.runs):
            guard: list[int] = []
            if guarded:
                selector = self.reg.pool.var(("arrival_sel", i))
                self.arrival_selectors[i] = selector
                guard = [-selector]
            deadline = (
                run.arrival_step
                if run.arrival_step is not None
                else self.t_max - 1
            )
            goal_set = set(run.goal_segments)
            lits = [
                self.reg.occupies(i, g, t)
                for t in range(run.departure_step, deadline + 1)
                for g in sorted(goal_set & self.cone.at(i, t))
            ]
            if guarded and run.arrival_step is not None:
                self.cnf.add(guard + lits)
                # Completion within the horizon remains hard.
                hard_lits = [
                    self.reg.occupies(i, g, t)
                    for t in range(run.departure_step, self.t_max)
                    for g in sorted(goal_set & self.cone.at(i, t))
                ]
                self.cnf.add(hard_lits)
            else:
                self.cnf.add(lits)  # empty = provably impossible deadline
            for stop in run.stops:
                stop_set = set(stop.segments)
                stop_lits = [
                    self.reg.occupies(i, s, t)
                    for t in range(
                        max(stop.earliest_step, run.departure_step),
                        stop.latest_step + 1,
                    )
                    for s in sorted(stop_set & self.cone.at(i, t))
                ]
                self.cnf.add(guard + stop_lits if guarded else stop_lits)

    def _done_constraints(self) -> None:
        """The paper's done variables, plus the gone/done linkage."""
        for i, run in enumerate(self.runs):
            goal_set = set(run.goal_segments)
            earliest = self._earliest_arrival[i]
            visit_lits: list[int] = []
            for t in range(run.departure_step, self.t_max):
                visit_lits.extend(
                    self.reg.occupies(i, g, t)
                    for g in sorted(goal_set & self.cone.at(i, t))
                )
                if t < earliest:
                    continue
                done_t = self.reg.done(i, t)
                # done -> the goal was occupied at some step <= t
                self.cnf.add([-done_t, *visit_lits])
                # Monotone: done(t) -> done(t+1)
                if t + 1 < self.t_max:
                    self.cnf.add([-done_t, self.reg.done(i, t + 1)])
                # gone(t+1) -> done(t): leaving requires having arrived
                if self._gone_allowed(i, t + 1) and t + 1 < self.t_max:
                    self.cnf.add([-self.reg.gone(i, t + 1), done_t])
            # gone is absorbing: once out, stay out.
            for t in range(self.t_max - 1):
                if self._gone_allowed(i, t) and self._gone_allowed(i, t + 1):
                    self.cnf.add(
                        [-self.reg.gone(i, t), self.reg.gone(i, t + 1)]
                    )
            # Leaving the network is physical: in the step before it
            # disappears, the train must touch a boundary-adjacent segment
            # (otherwise a blocked train could "vanish" past its blocker).
            exits = self.net.boundary_segments()
            for t in range(self.t_max):
                if not self._gone_allowed(i, t) or t == 0:
                    continue
                clause = [-self.reg.gone(i, t)]
                if self._gone_allowed(i, t - 1):
                    clause.append(self.reg.gone(i, t - 1))
                clause.extend(
                    self.reg.occupies(i, e, t - 1)
                    for e in sorted(exits & self.cone.at(i, t - 1))
                )
                self.cnf.add(clause)

    # ------------------------------------------------------------------
    # Task-specific additions
    # ------------------------------------------------------------------

    def layout_literals(self, layout: VSSLayout) -> list[int]:
        """Every vertex's border literal under ``layout``: verification
        pins them as units, the layout explorer probes them."""
        border = self.reg.border
        return [
            border(vertex) if layout.is_border(vertex) else -border(vertex)
            for vertex in range(self.net.num_vertices)
        ]

    def pin_layout(self, layout: VSSLayout) -> None:
        """Fix every border variable to the given layout (verification)."""
        for lit in self.layout_literals(layout):
            self.cnf.add_unit(lit)

    def pin_waypoints(self, waypoints: list[tuple[str, str, int]]) -> None:
        """Pin (train, station, step) triples — the paper's schedule
        encoding."""
        names = {run.name: i for i, run in enumerate(self.runs)}
        for train_name, station, step in waypoints:
            if train_name not in names:
                raise ScheduleError(f"unknown train {train_name!r}")
            i = names[train_name]
            if not 0 <= step < self.t_max:
                raise ScheduleError(f"waypoint step {step} out of range")
            segments = set(self.net.station_segments(station))
            lits = [
                self.reg.occupies(i, e, step)
                for e in sorted(segments & self.cone.at(i, step))
            ]
            self.cnf.add(lits)

    def border_objective(self) -> list[int]:
        """Soft literals for ``min Σ border_v`` (free borders only)."""
        return [
            self.reg.border(v) for v in self.net.free_border_candidates()
        ]

    def makespan_objective(self) -> list[int]:
        """Soft literals for ``min Σ_t ¬done^t`` (paper §III-C)."""
        objective: list[int] = []
        for t in range(self.t_max):
            done_all = self.reg.done_all(t)
            feasible = True
            for i in range(len(self.runs)):
                done_var = self.reg.lookup_done(i, t)
                if done_var is None:
                    feasible = False
                    break
            if not feasible:
                self.cnf.add_unit(-done_all)
            else:
                for i in range(len(self.runs)):
                    done_var = self.reg.lookup_done(i, t)
                    self.cnf.add([-done_all, done_var])
            objective.append(-done_all)
        return objective

    def total_arrival_objective(self) -> list[int]:
        """Soft literals for ``min Σ_tr Σ_t ¬done_tr^t``.

        The paper's §III-C mentions the alternative reading of "efficient":
        each single train should reach its final stop as fast as possible.
        Minimising the number of (train, step) pairs at which the train has
        not yet arrived is exactly minimising the sum of arrival steps
        (steps before a train's earliest possible arrival carry no variable
        and contribute a constant, which minimisation can ignore).
        """
        objective: list[int] = []
        for i in range(len(self.runs)):
            for t in range(self.t_max):
                done_var = self.reg.lookup_done(i, t)
                if done_var is not None:
                    objective.append(-done_var)
        return objective

    # ------------------------------------------------------------------
    # Reporting & decoding
    # ------------------------------------------------------------------

    def deferred_eager_count(self) -> dict[str, int]:
        """Clauses each *deferred* family would have emitted eagerly.

        Counted from the cone by set arithmetic, without building or
        walking a clause; against the lazy loop's
        :attr:`~repro.encoding.lazy.LazyRefiner.clauses_added` this
        prices the clauses it avoided.  Collision pricing walks the path
        interiors of every move, so the lazy tasks never call it.
        """
        counters = {
            "separation": self._count_separation,
            "collision": self._count_collision,
            "swap": self._count_swap,
        }
        return {
            family: counters[family]() for family in self.deferred_families
        }

    def _count_separation(self) -> int:
        """One clause per pair of same-TTD positions of two trains: the
        dot product of their per-TTD position counts at each step."""
        ttd_of = self.net.ttd_of
        total = 0
        for t in range(self.t_max):
            per_train: list[dict[str, int]] = []
            for i in range(len(self.runs)):
                counts: dict[str, int] = {}
                for e in self.cone.at(i, t):
                    ttd = ttd_of[e]
                    counts[ttd] = counts.get(ttd, 0) + 1
                if counts:
                    per_train.append(counts)
            for a, counts_a in enumerate(per_train):
                for counts_b in per_train[a + 1:]:
                    total += sum(
                        count * counts_b.get(ttd, 0)
                        for ttd, count in counts_a.items()
                    )
        return total

    def _count_collision(self) -> int:
        """Per mover and step, how many moves traverse each interior
        segment; each bystander position at either end step of the move
        on such a segment is one clause.

        Queries :meth:`_interiors` exactly where and in the order
        :meth:`_collision_constraints` would, because its cache holds
        whichever direction of a segment pair it meets first.
        """
        n = len(self.runs)
        total = 0
        for i, run_i in enumerate(self.runs):
            reach = self._reach(run_i.speed_segments)
            max_edges = run_i.speed_segments + 1
            for t in range(run_i.departure_step, self.t_max - 1):
                others = [
                    (self.cone.at(j, t), self.cone.at(j, t + 1))
                    for j in range(n)
                    if j != i
                    and (self.cone.at(j, t) or self.cone.at(j, t + 1))
                ]
                if not others:
                    continue
                possible_next = self.cone.at(i, t + 1)
                traversed: dict[int, int] = {}
                for e in self.cone.at(i, t):
                    for f in reach[e]:
                        if f == e or f not in possible_next:
                            continue
                        for g in self._interiors(e, f, max_edges):
                            traversed[g] = traversed.get(g, 0) + 1
                for other_now, other_next in others:
                    for g, moves in traversed.items():
                        if g in other_now:
                            total += moves
                        if g in other_next:
                            total += moves
        return total

    def _count_swap(self) -> int:
        """One clause per move ``e -> f`` of train ``i`` whose reverse
        ``f -> e`` train ``j`` can make across the same step."""
        n = len(self.runs)
        total = 0
        for i in range(n):
            for j in range(i + 1, n):
                reach = self._reach(
                    min(self.runs[i].speed_segments,
                        self.runs[j].speed_segments)
                )
                for t in range(self.t_max - 1):
                    pi_now = self.cone.at(i, t)
                    pj_now = self.cone.at(j, t)
                    if not pi_now or not pj_now:
                        continue
                    targets = self.cone.at(i, t + 1) & pj_now
                    for e in pi_now & self.cone.at(j, t + 1):
                        total += len(targets.intersection(reach[e]))
                        if e in targets:
                            total -= 1  # reach[e] holds e: no move
        return total

    def paper_equivalent_vars(self) -> int:
        """The paper's Table I "Var." count: borders + dense occupies grid."""
        return self.net.num_vertices + (
            len(self.runs) * self.net.num_segments * self.t_max
        )

    def stats(self) -> dict[str, int]:
        """Encoding-size statistics for reports."""
        census = self.reg.census()
        census["clauses"] = self.cnf.num_clauses
        census["literals"] = self.cnf.literals_size()
        census["paper_equivalent_vars"] = self.paper_equivalent_vars()
        census["t_max"] = self.t_max
        for family, sizes in self.family_stats.items():
            for key, value in sizes.items():
                census[f"family.{family}.{key}"] = value
        return census

    def decode(self, true_vars: set[int]) -> Solution:
        """Decode a model (set of true variable numbers) into a solution."""
        return decode_solution(self, true_vars)
