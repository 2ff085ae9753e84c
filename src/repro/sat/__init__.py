"""A self-contained CDCL SAT solver.

This package substitutes for the Z3 solver used in the paper: the paper's
methodology only requires a sound and complete Boolean satisfiability oracle
(plus incremental solving under assumptions, which the optimization engines
in :mod:`repro.opt` build on).

Public entry points:

* :class:`Solver` — the CDCL solver (add clauses, solve under assumptions,
  read back models and unsat cores).
* :class:`SolveResult` — SAT / UNSAT / UNKNOWN verdicts.
* :func:`open_session` — the probe session of a descent or lazy
  refinement loop: :class:`SerialSession` (one in-process incremental
  solver) at ``parallel=1``, the resident :class:`SolverService` above
  it, which falls back to a serial session when it cannot fork or loses
  its last worker.
* :func:`solve_portfolio` — one probe on a fresh session (eager
  verification), optionally logging a DRAT proof in process.
* :func:`parse_dimacs` / :func:`write_dimacs` — DIMACS CNF interchange.

The solver runs on one engine, the flat-array kernel, which also logs
DRAT proofs.  It is either interpreted or compiled with mypyc;
:func:`kernel_build` reports which build is loaded (see
:mod:`repro.sat.kernel`).
"""

from repro.sat.dimacs import parse_dimacs, parse_dimacs_file, write_dimacs
from repro.sat.kernel import kernel_build
from repro.sat.portfolio import (
    PortfolioDisagreementError,
    PortfolioMember,
    diversified_members,
)
from repro.sat.proof import ProofLogger, check_rup_proof, parse_drat
from repro.sat.service import (
    ProbeOutcome,
    SerialSession,
    ServiceError,
    SolverService,
    open_session,
    solve_portfolio,
)
from repro.sat.solver import Solver
from repro.sat.types import SolverConfig, SolverStats, SolveResult

__all__ = [
    "Solver",
    "SolveResult",
    "SolverConfig",
    "SolverStats",
    "PortfolioMember",
    "PortfolioDisagreementError",
    "diversified_members",
    "solve_portfolio",
    "SolverService",
    "SerialSession",
    "ServiceError",
    "ProbeOutcome",
    "open_session",
    "ProofLogger",
    "check_rup_proof",
    "parse_drat",
    "parse_dimacs",
    "parse_dimacs_file",
    "write_dimacs",
    "kernel_build",
]
