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
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat.kernel import kernel_build, load_interpreted
from repro.sat.proof import ProofLogger, check_rup_proof
from repro.sat.solver import Solver
from repro.sat.types import SolveResult, SolverConfig
from repro.sat.wire import pack_clauses, unpack_clauses

KERNEL_KIND = kernel_build()  # "compiled" where the mypyc build is installed


def _pair(**config):
    """The build's solver and an interpreted-source kernel, both logging
    proofs, with identical configuration."""
    pair = (
        Solver(SolverConfig(**config)),
        load_interpreted().Kernel(SolverConfig(**config)),
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


def _assert_lockstep(cnf, assumption_rounds=((),), **config):
    (solver, source), loggers = _pair(**config)
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
