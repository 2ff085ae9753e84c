"""A self-contained CDCL SAT solver.

This package substitutes for the Z3 solver used in the paper: the paper's
methodology only requires a sound and complete Boolean satisfiability oracle
(plus incremental solving under assumptions, which the optimization engines
in :mod:`repro.opt` build on).

Public entry points:

* :class:`Solver` — the CDCL solver (add clauses, solve under assumptions,
  read back models and unsat cores).
* :class:`SolveResult` — SAT / UNSAT / UNKNOWN verdicts.
* :func:`solve_portfolio` / :class:`SolverService` — one-shot and
  resident-incremental parallel portfolios over diversified configs.
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
    PortfolioError,
    PortfolioMember,
    PortfolioResult,
    PortfolioStats,
    diversified_members,
    solve_portfolio,
)
from repro.sat.proof import ProofLogger, check_rup_proof, parse_drat
from repro.sat.service import (
    ProbeOutcome,
    ServiceDeadError,
    ServiceError,
    ShareConfig,
    SolverService,
)
from repro.sat.simplify import SimplifyStats, simplify_clauses
from repro.sat.solver import Solver
from repro.sat.types import SolverConfig, SolverStats, SolveResult

__all__ = [
    "Solver",
    "SolveResult",
    "SolverConfig",
    "SolverStats",
    "PortfolioMember",
    "PortfolioResult",
    "PortfolioStats",
    "PortfolioError",
    "PortfolioDisagreementError",
    "diversified_members",
    "solve_portfolio",
    "SolverService",
    "ServiceError",
    "ServiceDeadError",
    "ShareConfig",
    "ProbeOutcome",
    "ProofLogger",
    "SimplifyStats",
    "simplify_clauses",
    "check_rup_proof",
    "parse_drat",
    "parse_dimacs",
    "parse_dimacs_file",
    "write_dimacs",
    "kernel_build",
]
