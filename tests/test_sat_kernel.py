"""The array kernel, checked against references that share no code with it.

:class:`repro.sat.Solver` runs on one engine, the flat-array kernel of
:mod:`repro.sat._kernel`.  Every answer below is certified
independently: a SAT model must satisfy every clause (and every
assumption), an UNSAT answer must carry a DRAT proof that
:func:`repro.sat.proof.check_rup_proof` accepts, and an unsat core must
be a subset of the assumptions that refutes the formula with a proof of
its own.  This runs on hypothesis-generated CNFs, on incremental and
assumption workloads, under non-default configurations, and on the
eager encodings of 25 fuzz scenarios.

The build a plain import loads must also stay in lockstep with the
interpreted source: under a fixed seed both produce identical verdicts,
models, cores, search counters and proof logs.  On a compiled host that
compares the mypyc extension with ``_kernel.py``; on an interpreted host
both sides run the same module, which checks that the search is
deterministic.

The overhead-only paths are held to the same standard: one
``add_clauses`` call must have the effect of one ``add_clause`` per
clause; its short path for 2- and 3-literal clauses, and one-step
variable growth, must leave exactly the kernel state of the
per-literal loader and one-at-a-time growth they replace; and the heap
that keeps one live entry per variable must search the tree of a heap
that re-pushes every unassigned variable.
"""

from __future__ import annotations

import heapq
import random
import time
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat._kernel import Kernel as BuildKernel
from repro.sat.kernel import kernel_build, load_interpreted
from repro.sat.proof import ProofLogger, check_rup_proof
from repro.sat.solver import Solver
from repro.sat.types import InvalidLiteralError, SolveResult, SolverConfig
from repro.sat.wire import pack_clauses, unpack_clauses

KERNEL_KIND = kernel_build()  # "compiled" where the mypyc build is installed


def _pair(reference=None, **config):
    """The build's solver and an interpreted-source kernel (or
    ``reference``), both logging proofs, with identical configuration."""
    reference = reference or load_interpreted().Kernel
    pair = (
        Solver(SolverConfig(**config)),
        reference(SolverConfig(**config)),
    )
    loggers = (ProofLogger(), ProofLogger())
    for engine, logger in zip(pair, loggers):
        engine.attach_proof(logger)
    return pair, loggers


def _fingerprint(engine, verdict, logger):
    """Everything lockstep promises to keep identical, in one tuple."""
    stats = engine.stats
    return (
        verdict,
        stats.propagations,
        stats.conflicts,
        stats.decisions,
        stats.restarts,
        stats.learned_clauses,
        stats.deleted_clauses,
        stats.minimized_literals,
        stats.max_decision_level,
        sorted(engine.root_literals()),
        engine.model() if verdict is SolveResult.SAT else None,
        sorted(engine.unsat_core()) if verdict is SolveResult.UNSAT else None,
        list(logger.steps),
    )


def _refutes(num_vars, clauses) -> bool:
    """Does a fresh solver refute ``clauses`` with a RUP-valid proof?"""
    solver = Solver()
    logger = ProofLogger()
    solver.attach_proof(logger)
    for lits in clauses:
        solver.add_clause(list(lits))
    return (
        solver.solve() is SolveResult.UNSAT
        and check_rup_proof(num_vars, clauses, logger.steps)
    )


def _certify(solver, verdict, logger, cnf, assumptions=()):
    """Check one answer against the formula ``cnf`` it was given."""
    assert verdict in (SolveResult.SAT, SolveResult.UNSAT)
    num_vars = max(
        [abs(lit) for lits in cnf for lit in lits]
        + [abs(lit) for lit in assumptions] + [1]
    )
    if verdict is SolveResult.SAT:
        true_lits = set(solver.model())
        for lits in cnf:
            assert any(lit in true_lits for lit in lits), lits
        assert all(lit in true_lits for lit in assumptions)
        return
    core = solver.unsat_core()
    if not core:
        assert check_rup_proof(num_vars, cnf, logger.steps)
        return
    assert set(core) <= set(assumptions)
    assert _refutes(num_vars, list(cnf) + [[lit] for lit in core])


def _assert_lockstep(cnf, assumption_rounds=((),), reference=None,
                     **config):
    (solver, source), loggers = _pair(reference, **config)
    assert solver.kernel == KERNEL_KIND
    assert source.kind == "interpreted"
    for engine in (solver, source):
        for lits in cnf:
            engine.add_clause(list(lits))
    for assumptions in assumption_rounds:
        verdict = solver.solve(list(assumptions))
        verdict_src = source.solve(list(assumptions))
        assert _fingerprint(solver, verdict, loggers[0]) == (
            _fingerprint(source, verdict_src, loggers[1])
        ), config
        _certify(solver, verdict, loggers[0], cnf, assumptions)


clauses_strategy = st.lists(
    st.lists(
        st.integers(-25, 25).filter(bool), min_size=1, max_size=5
    ),
    min_size=1,
    max_size=120,
)


class TestLockstepProperties:
    @given(clauses_strategy)
    @settings(max_examples=60, deadline=None)
    def test_random_cnfs_are_trace_identical(self, cnf):
        _assert_lockstep(cnf)

    @given(clauses_strategy, st.lists(st.integers(-25, 25).filter(bool),
                                      max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_assumption_solves_are_trace_identical(self, cnf, assumptions):
        _assert_lockstep(cnf, assumption_rounds=(assumptions, ()))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_incremental_growth_is_trace_identical(self, seed):
        rng = random.Random(seed)
        nv = rng.randint(8, 40)
        (solver, source), loggers = _pair()
        cnf: list[list[int]] = []
        for _round in range(3):
            batch = [
                [rng.randint(1, nv) * rng.choice([1, -1])
                 for __ in range(rng.choice([2, 2, 3, 3, 4]))]
                for __ in range(rng.randint(5, 40))
            ]
            assumptions = [
                rng.randint(1, nv) * rng.choice([1, -1])
                for __ in range(rng.randint(0, 2))
            ]
            cnf.extend(batch)
            for engine in (solver, source):
                for lits in batch:
                    engine.add_clause(list(lits))
            verdict = solver.solve(list(assumptions))
            verdict_src = source.solve(list(assumptions))
            assert _fingerprint(solver, verdict, loggers[0]) == (
                _fingerprint(source, verdict_src, loggers[1])
            )
            # The log spans every round: lemmas learned under earlier
            # clause sets stay consequences of the grown formula.
            _certify(solver, verdict, loggers[0], cnf, assumptions)

    def test_config_variants_stay_in_lockstep(self):
        rng = random.Random(4242)
        cnf = [
            [rng.randint(1, 30) * rng.choice([1, -1])
             for __ in range(rng.choice([2, 3, 3, 4]))]
            for __ in range(140)
        ]
        for config in (
            {"use_minimization": False},
            {"use_phase_saving": False, "default_phase": True},
            {"random_var_freq": 0.05},
            {"restart_base": 10},
            {"use_clause_deletion": False},
            {"learned_clause_limit_factor": 0.01,
             "learned_clause_min_limit": 5},
        ):
            _assert_lockstep(cnf, **config)


def _load_both(clauses, prefix=(), reserve=0, **config):
    """Two logging solvers given the same formula: one bulk-loads
    ``clauses`` in one ``add_clauses`` call, one adds them one by one.

    ``prefix`` is solved first, so the load meets learned clauses and
    level-0 facts; ``reserve`` pre-creates variables, so clauses can
    name variables both below and above ``num_vars``.
    """
    engines = (Solver(SolverConfig(**config)), Solver(SolverConfig(**config)))
    loggers = (ProofLogger(), ProofLogger())
    returns = []
    for engine, logger, bulk in zip(engines, loggers, (True, False)):
        engine.attach_proof(logger)
        if reserve:
            engine.ensure_var(reserve)
        if prefix:
            engine.add_clauses([list(lits) for lits in prefix])
            engine.solve()
        if bulk:
            returns.append(
                engine.add_clauses([list(lits) for lits in clauses])
            )
        else:
            for lits in clauses:
                ok = engine.add_clause(list(lits))
            returns.append(ok)
    return engines, loggers, returns


def _load_state(engine, logger):
    return (engine.num_vars, engine.num_clauses, engine.root_literals(),
            list(logger.steps))


bulk_batches = st.tuples(
    # Units propagate mid-batch and fix literals later clauses mention;
    # short clauses over few variables repeat and negate literals, and
    # the odd variable past 16 grows the literal arrays mid-batch.
    st.lists(st.lists(st.integers(-14, 14).filter(bool), min_size=1,
                      max_size=5), max_size=40),
    st.lists(st.lists(st.integers(-14, 14).filter(bool)
                      | st.integers(-70, 70).filter(bool),
                      min_size=1, max_size=3), min_size=1, max_size=60),
    st.none() | st.integers(0, 60),  # where an empty clause goes
    st.integers(0, 10),  # variables created before the load
    st.lists(st.integers(-14, 14).filter(bool), max_size=3),
)


class TestBulkLoad:
    """``add_clauses`` has the effect of one ``add_clause`` per clause."""

    @given(bulk_batches)
    @settings(max_examples=80, deadline=None)
    def test_bulk_matches_per_clause(self, batch):
        prefix, clauses, empty_at, reserve, assumptions = batch
        clauses = [list(lits) for lits in clauses]
        if empty_at is not None:
            clauses.insert(min(empty_at, len(clauses)), [])
        (bulk, single), loggers, returns = _load_both(
            clauses, prefix=prefix, reserve=reserve, random_var_freq=0.05,
            random_seed=11,
        )
        assert returns[0] == returns[1]
        assert _load_state(bulk, loggers[0]) == _load_state(
            single, loggers[1])
        for round_assumptions in (assumptions, ()):
            verdicts = [engine.solve(list(round_assumptions))
                        for engine in (bulk, single)]
            assert _fingerprint(bulk, verdicts[0], loggers[0]) == (
                _fingerprint(single, verdicts[1], loggers[1])
            )
            _certify(bulk, verdicts[0], loggers[0],
                     list(prefix) + clauses, round_assumptions)

    def test_variables_grow_as_literals_are_read(self):
        solver = Solver()
        solver.ensure_var(3)
        # The clause satisfied by the fact 1 stops growing at literal 1,
        # exactly as a clause added alone does; 40 arrives later.
        assert solver.add_clauses([[1], [1, 25], [2, 40, -2], [5, 6, 5]])
        assert solver.num_vars == 40
        assert solver.num_clauses == 1
        assert solver.root_literals() == [1]

    @pytest.mark.parametrize("bad", [0, 1.0, "2", None, [3]])
    def test_invalid_literals_raise(self, bad):
        for load in ("bulk", "single"):
            solver = Solver()
            with pytest.raises(InvalidLiteralError):
                if load == "bulk":
                    solver.add_clauses([[1, 2], [3, bad, 4]])
                else:
                    solver.add_clause([1, 2])
                    solver.add_clause([3, bad, 4])
            # The valid clause before it stays; the partial one is gone
            # and leaves no marks behind: -3 is a unit, not a tautology.
            assert solver.num_clauses == 1
            assert solver.num_vars == 3
            assert solver.add_clauses([[-3]])
            assert solver.root_literals() == [-3]

    def test_unsat_batch_stops_loading(self):
        solver = Solver()
        logger = ProofLogger()
        solver.attach_proof(logger)
        assert not solver.add_clauses([[1, 2], [-1], [-2], [7, 8], [0]])
        # The conflicting unit ended the load: nothing after it was read.
        assert solver.num_vars == 2
        assert logger.steps == [("a", ())]
        assert not solver.add_clauses([[3]])
        assert solver.solve() is SolveResult.UNSAT


class _PerLiteralKernel(load_interpreted().Kernel):
    """The interpreted kernel with the loader and the variable growth
    that predate the short path: every literal of every clause goes
    through the per-literal loop, and ``ensure_var`` creates variables
    one at a time.  The reference for the load path."""

    def ensure_var(self, var: int) -> None:
        if var <= 0:
            raise InvalidLiteralError(f"variables must be positive, got {var}")
        while self._nv < var:
            new = self._nv + 1
            if new > self._cap:
                self._grow(new)
            self._nv = new
            self._level.append(0)
            self._reason.append(-1)
            self._activity.append(0.0)
            self._saved_phase.append(1 if self.config.default_phase else 0)
            self._seen.append(0)
            self._heap_act.append(0.0)
            heapq.heappush(self._order_heap, (0.0, new))

    def add_clauses(self, clauses: Any) -> bool:
        if not self._ok:
            return False
        self._backtrack(0)
        assigns = self._assigns
        watches = self._watches
        off = self._off
        nv = self._nv
        marks = self._seen
        arena = self._arena
        clause_refs = self._clause_refs
        for lits in clauses:
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
            lit0 = simplified[0]
            if size == 1:
                self._enqueue(lit0, -1)
                if self._propagate() >= 0:
                    self._ok = False
                    if self._proof is not None:
                        self._proof.add([])
                    return False
                continue
            lit1 = simplified[1]
            ref = len(arena)
            arena.append(size)
            arena.append(-1)
            arena.extend(simplified)
            clause_refs.append(ref)
            tagged = ref << 1 | (1 if size == 2 else 0)
            watchers = watches[off + lit0]
            watchers.append(tagged)
            watchers.append(lit1)
            watchers = watches[off + lit1]
            watchers.append(tagged)
            watchers.append(lit0)
        return True


def _kernel_state(kernel, logger) -> dict:
    """Every array a load or a growth step writes, plus the proof log."""
    return {
        "ok": kernel._ok,
        "nv": kernel._nv,
        "cap": (kernel._cap, kernel._off),
        "assigns": list(kernel._assigns),
        "watches": [list(watchers) for watchers in kernel._watches],
        "arena": list(kernel._arena),
        "clause_refs": list(kernel._clause_refs),
        "learned_refs": list(kernel._learned_refs),
        "trail": (list(kernel._trail), list(kernel._trail_lim),
                  kernel._qhead),
        "heap": (list(kernel._order_heap), list(kernel._heap_act)),
        "vars": (list(kernel._level), list(kernel._reason),
                 list(kernel._activity), bytes(kernel._saved_phase),
                 bytes(kernel._seen)),
        "proof": list(logger.steps),
    }


def _reference_pair(**config):
    """The build's kernel and the per-literal reference, both logging
    proofs, with identical configuration."""
    pair = (BuildKernel(SolverConfig(**config)),
            _PerLiteralKernel(SolverConfig(**config)))
    loggers = (ProofLogger(), ProofLogger())
    for engine, logger in zip(pair, loggers):
        engine.attach_proof(logger)
    return pair, loggers


def _outcome(call):
    """A call's return value, or the type of the exception it raised."""
    try:
        return call()
    except Exception as exc:  # compared across the pair, not swallowed
        return type(exc)


def _assert_same_load(batch, prefix=(), reserve=0, assumptions=(),
                      **config):
    """Load ``batch`` (a factory of clause lists, called once per
    kernel) into the build's kernel and the reference after the same
    ``reserve`` and solved ``prefix``; require identical outcomes and
    state, then identical solves."""
    (kernel, reference), loggers = _reference_pair(**config)
    outcomes = []
    for engine in (kernel, reference):
        if reserve:
            engine.ensure_var(reserve)
        if prefix:
            engine.add_clauses([list(lits) for lits in prefix])
            engine.solve()
        outcomes.append(_outcome(lambda: engine.add_clauses(batch())))
    assert outcomes[0] == outcomes[1]
    assert _kernel_state(kernel, loggers[0]) == _kernel_state(
        reference, loggers[1])
    for round_assumptions in (assumptions, ()):
        verdicts = [engine.solve(list(round_assumptions))
                    for engine in (kernel, reference)]
        assert _fingerprint(kernel, verdicts[0], loggers[0]) == (
            _fingerprint(reference, verdicts[1], loggers[1]))
        assert _kernel_state(kernel, loggers[0]) == _kernel_state(
            reference, loggers[1])
    return outcomes[0]


#: Items a clause may hold besides ordinary literals: bools are ints
#: (``True`` is literal 1); the rest raise InvalidLiteralError.
ODD_ITEMS = (0, 1.0, "2", None, True)

_item = (
    st.integers(-14, 14).filter(bool)
    | st.integers(-40, 40).filter(bool)
    | st.sampled_from(ODD_ITEMS)
)

short_load_batches = st.tuples(
    # A solved prefix leaves level-0 facts, learned clauses and stale
    # heap entries behind.
    st.lists(st.lists(st.integers(-12, 12).filter(bool), min_size=1,
                      max_size=4), max_size=30),
    # Mostly 2- and 3-item clauses over few variables, so literals
    # repeat, negate each other and meet level-0 values; units fix
    # literals mid-batch; variables up to 40 lie past num_vars; rare
    # odd items; each clause a list or a tuple.
    st.lists(
        st.tuples(
            st.lists(_item, min_size=2, max_size=3)
            | st.lists(_item, min_size=1, max_size=5),
            st.booleans(),
        ),
        min_size=1, max_size=50,
    ),
    st.integers(0, 16),  # variables created before the load
    st.lists(st.integers(-14, 14).filter(bool), max_size=3),
    st.booleans(),  # default_phase
)


class TestShortLoad:
    """The short path stores what the per-literal loop it bypasses
    would: same arena words, clause refs, watcher lists, trail, order
    heap, proof log, return value and exception type."""

    @given(short_load_batches)
    @settings(max_examples=120, deadline=None)
    def test_matches_per_literal_loop(self, batch):
        prefix, clauses, reserve, assumptions, phase = batch

        def fresh():
            return [tuple(lits) if as_tuple else list(lits)
                    for lits, as_tuple in clauses]

        _assert_same_load(fresh, prefix=prefix, reserve=reserve,
                          assumptions=assumptions, default_phase=phase,
                          random_var_freq=0.05, random_seed=3)

    # One clause per exit of the short path, loaded after the fact 1,
    # the fact -2 and the clause (3 v 4), with variables 1..6 created.
    @pytest.mark.parametrize("clause", [
        [3, -5], (4, 5, -6), [-3, 4, 6],  # stored by the short path
        [5], [3, 4, 5, 6], range(5, 7),  # not 2 or 3 items / not a list
        # Repeated variables.
        [5, 5], (5, -5), [5, 6, 5], (5, -5, 6), [5, 6, -6],
        # Literals true or false at level 0.
        [1, 5], (5, -1, 6), [5, 6, 1], [2, 5], (-2, 5, 6), [5, 6, -2],
        [-2, 1], (2, -1),  # satisfied / the empty clause
        # Variables past num_vars (the last one past the capacity).
        [5, 9], (9, 5, 6), [5, 9, 6], (5, 6, 9), [5, -40],
        # Odd items.
        [5, 0], (0, 5, 6), [5, 6, 0], (5, 6, 1.0), [5, "2"],
        (None, 5, 6), [5, 6, None], [5, True], (True, 5, 6), [5, 6, True],
        [False, 5],
    ], ids=repr)
    def test_each_exit(self, clause):
        _assert_same_load(
            lambda: [[1], (-2,), [3, 4], clause, [-4, 5, 6]], reserve=6)

    def test_each_exit_after_a_solve(self):
        # The search learns the unit 1 (deciding -1 falsifies a clause),
        # which then propagates 3 at level 0.
        prefix = [[1, 2], [1, -2], [-1, 3], [4, 5, 6]]
        solver = Solver()
        solver.add_clauses(prefix)
        solver.solve()
        assert solver.root_literals() == [1, 3]
        for clause in ([1, 5], (5, -3), [-1, 5, 6], (4, 5), [5, 6, -4]):
            outcome = _assert_same_load(lambda: [clause, [4, -5]],
                                        prefix=prefix)
            assert outcome is True


class TestOneStepGrowth:
    """``ensure_var(n)`` grows to what one-at-a-time growth leaves:
    the same arrays, capacity and heap, even with stale heap entries
    from an earlier solve."""

    @given(
        st.lists(st.lists(st.integers(-10, 10).filter(bool), min_size=1,
                          max_size=4), min_size=1, max_size=30),
        # None: one new_var() call; otherwise an ensure_var target.
        st.lists(st.none() | st.integers(-2, 200), min_size=1, max_size=6),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_one_at_a_time(self, prefix, targets, phase):
        (kernel, reference), loggers = _reference_pair(default_phase=phase)
        for engine in (kernel, reference):
            engine.add_clauses([list(lits) for lits in prefix])
            engine.solve()
        for target in targets:
            if target is None:
                outcomes = [engine.new_var() for engine in
                            (kernel, reference)]
            else:
                outcomes = [_outcome(lambda: engine.ensure_var(target))
                            for engine in (kernel, reference)]
            assert outcomes[0] == outcomes[1]
            assert _kernel_state(kernel, loggers[0]) == _kernel_state(
                reference, loggers[1])
        verdicts = [engine.solve() for engine in (kernel, reference)]
        assert _fingerprint(kernel, verdicts[0], loggers[0]) == (
            _fingerprint(reference, verdicts[1], loggers[1]))


class _RepushKernel(load_interpreted().Kernel):
    """The interpreted kernel with the heap policy that predates live
    entries: every backtrack re-pushes each variable it unassigns, live
    heap entry or not.  The reference for the decision order."""

    def _backtrack(self, target_level: int) -> None:
        if len(self._trail_lim) > target_level:
            for lit in self._trail[self._trail_lim[target_level]:]:
                self._heap_act[abs(lit)] = -1.0
        super()._backtrack(target_level)


def _pigeonhole(pigeons: int) -> list[list[int]]:
    """``pigeons`` pigeons in one hole fewer: UNSAT after many
    conflicts."""
    holes = pigeons - 1

    def var(i, j):
        return i * holes + j + 1

    cnf = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                cnf.append([-var(a, j), -var(b, j)])
    return cnf


class TestLiveHeapEntry:
    """One live heap entry per variable searches the tree of a heap that
    re-pushes every unassigned variable: same counters, models, cores
    and proof logs."""

    @given(clauses_strategy, st.lists(st.integers(-25, 25).filter(bool),
                                      max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_random_cnfs(self, cnf, assumptions):
        _assert_lockstep(cnf, assumption_rounds=(assumptions, ()),
                         reference=_RepushKernel)

    @pytest.mark.parametrize("config", [
        {},
        # Fast decay rescales the activities (and rebuilds the heap)
        # every few hundred conflicts.
        {"var_decay": 0.5},
        {"random_var_freq": 0.05},
    ])
    def test_pigeonhole(self, config):
        _assert_lockstep(_pigeonhole(7), reference=_RepushKernel, **config)


def _php_conflicts() -> int:
    """Conflicts a plain solve of PHP(6, 5) takes to refute it."""
    solver = Solver()
    solver.add_clauses(_pigeonhole(6))
    assert solver.solve() is SolveResult.UNSAT
    return solver.stats.conflicts


class TestLevelZeroConflict:
    """A conflict at decision level 0 is recorded before a wall
    deadline or a progress hook can end the search: cut there, the
    falsified clause would lie behind the propagation queue, and the
    next solve would answer SAT with a model that falsifies it."""

    def _assert_refuted(self, solver, logger, verdict):
        assert verdict is SolveResult.UNSAT
        assert solver.solve() is SolveResult.UNSAT
        assert check_rup_proof(30, _pigeonhole(6), logger.steps)

    def test_deadline_at_the_level_zero_conflict(self, monkeypatch):
        last = _php_conflicts()
        solver = Solver(SolverConfig(wall_deadline_s=1e6,
                                     deadline_check_interval=1))
        logger = ProofLogger()
        solver.attach_proof(logger)
        solver.add_clauses(_pigeonhole(6))
        real_clock = time.perf_counter

        def clock() -> float:
            # The deadline expires at the refuting conflict.
            late = solver.stats.conflicts >= last
            return real_clock() + (2e6 if late else 0.0)

        monkeypatch.setattr(time, "perf_counter", clock)
        verdict = solver.solve()
        monkeypatch.undo()
        assert solver.stats.deadline_hits == 0
        self._assert_refuted(solver, logger, verdict)

    def test_raising_hook_at_the_level_zero_conflict(self):
        last = _php_conflicts()
        solver = Solver()
        logger = ProofLogger()
        solver.attach_proof(logger)
        solver.add_clauses(_pigeonhole(6))
        seen = []

        def hook(snapshot) -> None:
            seen.append(snapshot["conflicts"])
            if snapshot["conflicts"] >= last:
                raise RuntimeError("hook stops the search")

        solver.on_progress(hook, 1)
        verdict = solver.solve()
        assert seen == list(range(1, last))
        self._assert_refuted(solver, logger, verdict)


class TestLockstepFuzzScenarios:
    """The eager encodings of 25 fuzz scenarios, certified."""

    @pytest.mark.parametrize("index", range(25))
    def test_fuzz_scenario_cnf_is_trace_identical(self, index):
        from repro.scenarios.fuzz import fuzz_scenario
        from repro.tasks.common import build_encoding

        scenario = fuzz_scenario(run_seed=8, index=index)
        encoding = build_encoding(
            scenario.discretize(), scenario.schedule, scenario.r_t_min,
            None,
        )
        _assert_lockstep(encoding.cnf.clauses)


class TestKernelSelection:
    def test_build_is_reported(self):
        assert kernel_build() in ("interpreted", "compiled")

    def test_interpreted_module_always_loadable(self):
        module = load_interpreted()
        assert module.KERNEL_KIND == "interpreted"

    def test_stats_record_the_active_kernel(self):
        (solver, source), __ = _pair()
        for engine in (solver, source):
            engine.add_clause([1, 2])
            engine.solve()
        assert solver.stats.kernel == KERNEL_KIND
        assert source.stats.kernel == "interpreted"
        assert solver.stats.as_dict()[f"kernel.{KERNEL_KIND}"] == 1

    def test_attach_proof_keeps_the_kernel(self):
        cnf = [[1, 2], [-1, 2], [1, -2], [-1, -2]]
        solver = Solver()
        for lits in cnf:
            solver.add_clause(list(lits))
        logger = ProofLogger()
        solver.attach_proof(logger)
        assert solver.kernel == KERNEL_KIND
        assert solver.solve() is SolveResult.UNSAT
        assert solver.stats.as_dict()[f"kernel.{KERNEL_KIND}"] == 1
        assert check_rup_proof(2, cnf, logger.steps)

    def test_attach_proof_after_solve_raises(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.solve()
        with pytest.raises(RuntimeError):
            solver.attach_proof(ProofLogger())


class TestWireFormat:
    @given(st.lists(st.lists(st.integers(-(2 ** 30), 2 ** 30),
                             max_size=6), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, clauses):
        assert unpack_clauses(pack_clauses(clauses)) == clauses

    def test_empty_block(self):
        assert pack_clauses([]) == b""
        assert unpack_clauses(b"") == []

    def test_corrupt_buffers_rejected(self):
        with pytest.raises(ValueError):
            unpack_clauses(b"\x01")  # misaligned
        buf = pack_clauses([[1, 2, 3]])
        with pytest.raises(ValueError):
            unpack_clauses(buf[:-4])  # truncated literal
