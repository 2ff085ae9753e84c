"""Portfolio members: the diversified solver configurations of a session.

A *portfolio* solves one CNF with several differently-configured CDCL
solvers at once.  Every member is a sound and complete solver, so all
members agree on the SAT/UNSAT verdict, and on multi-core hardware the
time to an answer drops to the *fastest* member instead of the default
one (cf. Engels & Wille's observation that solver-strategy choice
dominates runtime on these ETCS moving-block encodings).

The races themselves run on the probe sessions of
:mod:`repro.sat.service`: member 0, the unmodified base configuration,
is the in-process *primary*, and the further members are its forked
*helpers*.  This module holds what those sessions and the batch runner
share:

* :class:`PortfolioMember` and :func:`diversified_members` — the member
  configurations;
* :class:`WorkerReport` and :func:`member_config_dict` — per-member
  telemetry;
* :class:`PortfolioDisagreementError` — two members contradicted each
  other, which would mean an unsound solver;
* :func:`fork_available` and :func:`default_processes` — the platform's
  process budget.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Callable

from repro.sat.solver import Solver
from repro.sat.types import SolverConfig

#: Large co-prime stride decorrelating the per-member derived seeds.
_SEED_STRIDE = 0x9E3779B1


class PortfolioDisagreementError(RuntimeError):
    """Two members returned contradictory verdicts — a soundness bug."""


@dataclass(frozen=True)
class PortfolioMember:
    """One entry of the portfolio: a solver configuration plus a hook.

    Attributes:
        name: short label for reports ("base", "neg-phase", ...).
        config: the :class:`SolverConfig` this member solves with.
        solver_factory: optional ``config -> Solver`` hook, used by tests to
            inject failing members; defaults to the plain constructor.
            It runs where the member solves: in a forked worker for
            service helpers, but in the calling process for member 0 of
            a :class:`~repro.sat.service.SolverService`, the in-process
            primary.
    """

    name: str
    config: SolverConfig
    solver_factory: Callable[[SolverConfig], Solver] | None = field(
        default=None, compare=False
    )


def diversified_members(
    n: int,
    base: SolverConfig | None = None,
    seed: int | None = None,
) -> list[PortfolioMember]:
    """Build ``n`` diversified portfolio members.

    Member 0 is always the unmodified ``base`` configuration (so that a
    session's primary, and with it every SAT model, matches the serial
    solver exactly).  Further members vary the random seed, VSIDS decay,
    restart cadence, phase-saving polarity and random-decision frequency
    — the classic portfolio diversification axes.  The recipe list
    cycles (with reseeding) for large ``n``.
    """
    if n < 1:
        raise ValueError(f"portfolio needs at least one member, got {n}")
    base = base if base is not None else SolverConfig()
    seed = seed if seed is not None else base.random_seed

    def derived(index: int) -> int:
        return (seed + index * _SEED_STRIDE) & 0x7FFFFFFF

    recipes: list[tuple[str, dict]] = [
        ("neg-phase", {"default_phase": True}),
        ("fast-decay", {"var_decay": 0.85, "restart_base": 50}),
        ("neg-slow-decay", {"default_phase": True, "var_decay": 0.99}),
        ("random-walk", {"random_var_freq": 0.05,
                         "use_phase_saving": False}),
        ("slow-restarts", {"restart_base": 500, "var_decay": 0.99}),
        ("jumpy", {"random_var_freq": 0.1, "restart_base": 50,
                   "default_phase": True}),
        ("no-saving", {"use_phase_saving": False, "var_decay": 0.9}),
    ]

    members = [PortfolioMember("base", base)]
    for i in range(1, n):
        name, overrides = recipes[(i - 1) % len(recipes)]
        if i - 1 >= len(recipes):
            name = f"{name}-{(i - 1) // len(recipes) + 1}"
        config = dataclasses.replace(
            base, random_seed=derived(i), **overrides
        )
        members.append(PortfolioMember(name, config))
    return members


@dataclass
class WorkerReport:
    """Per-member outcome, for a session's summary."""

    name: str
    verdict: str = ""  # "sat" / "unsat" / "" (cancelled / still running)
    finished: bool = False
    error: str = ""
    traceback: str = ""  # full worker traceback when the member crashed
    solve_time_s: float = 0.0
    stats: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)  # the member's SolverConfig
    #: The kernel build that answered: "interpreted" / "compiled".
    kernel: str = ""


def fork_available() -> bool:
    """Whether the platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def default_processes() -> int:
    """Worker count when the caller does not specify one."""
    return min(4, os.cpu_count() or 1)


def member_config_dict(member: PortfolioMember) -> dict:
    """The member's solver configuration as a plain dict (telemetry)."""
    return dataclasses.asdict(member.config)
