"""Common types for the SAT solver: results, statistics, errors.

Literals follow the DIMACS convention throughout the package: a variable is a
positive integer ``v >= 1`` and a literal is ``v`` (positive phase) or ``-v``
(negative phase).  Variable ``0`` is reserved and never used.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields


class SolveResult(enum.Enum):
    """Verdict of a :meth:`repro.sat.Solver.solve` call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        """Truthiness shortcut: ``if solver.solve(): ...`` means "is SAT"."""
        return self is SolveResult.SAT


class SatError(Exception):
    """Base class for solver usage errors."""


class InvalidLiteralError(SatError):
    """A clause contained literal 0 or a non-integer literal."""


#: High-water-mark fields (deltas report the current value).
_MAX_FIELDS = ("max_decision_level", "max_lbd")

#: Fields with bespoke snapshot/delta handling (not plain additive scalars).
_SPECIAL_FIELDS = ("profile", "kernel")


@dataclass
class SolverStats:
    """Counters accumulated over the lifetime of a solver instance.

    The counters keep accumulating across repeated :meth:`Solver.solve`
    calls on one instance; per-solve figures are obtained with
    :meth:`snapshot` before the call and :meth:`delta` after (the solver
    does this itself and publishes the result as ``Solver.last_stats``).

    Every scalar field added here is *automatically* additive (included
    in snapshot/delta/as_dict) unless listed in :data:`_MAX_FIELDS`
    (high-water marks) or :data:`_SPECIAL_FIELDS` (bespoke handling) —
    new counters cannot be silently dropped from per-solve deltas.
    """

    decisions: int = 0
    random_decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    learned_literals: int = 0  # summed length of learned clauses
    sum_lbd: int = 0  # summed LBD of learned clauses
    max_lbd: int = 0
    deleted_clauses: int = 0
    minimized_literals: int = 0
    max_decision_level: int = 0
    solve_calls: int = 0
    solve_time: float = 0.0
    #: Solve calls that ended early because ``wall_deadline_s`` expired.
    deadline_hits: int = 0
    #: Flat additive hot-path profiler counters (``propagate.time_s`` ...),
    #: published by the solver when ``SolverConfig.profile`` is on; exported
    #: by :meth:`as_dict` under ``profile.*`` keys.
    profile: dict[str, float] = field(default_factory=dict)
    #: The kernel build that produced these counters: ``"interpreted"``
    #: (pure-Python source) or ``"compiled"`` (mypyc/Cython extension).
    #: Exported by :meth:`as_dict` as ``kernel.<build> = solve_calls`` —
    #: additive like every other counter, so portfolio/service merges
    #: count the solve calls answered per build.
    kernel: str = ""

    def as_dict(self) -> dict[str, float]:
        """Return the scalar statistics as a plain dictionary.

        Profiler counters, when present, are flattened in as
        ``profile.<counter>`` keys — additive like everything else, so
        portfolio/service merges need no special casing.
        """
        out = {name: getattr(self, name) for name in _ADDITIVE_FIELDS}
        for name in _MAX_FIELDS:
            out[name] = getattr(self, name)
        for key, value in self.profile.items():
            out[f"profile.{key}"] = value
        if self.kernel:
            out[f"kernel.{self.kernel}"] = self.solve_calls
        return out

    def snapshot(self) -> "SolverStats":
        """An independent copy of the current counter values."""
        clone = SolverStats(
            **{name: getattr(self, name) for name in _ADDITIVE_FIELDS},
        )
        for name in _MAX_FIELDS:
            setattr(clone, name, getattr(self, name))
        clone.profile = dict(self.profile)
        clone.kernel = self.kernel
        return clone

    def delta(self, before: "SolverStats") -> "SolverStats":
        """Counters accumulated since ``before`` (a prior snapshot).

        Additive counters are subtracted; high-water marks
        (``max_decision_level``, ``max_lbd``) keep their current value,
        which is an upper bound for the window.  Profiler counters are
        subtracted per key, so per-probe service deltas never
        double-count profile time.
        """
        diff = SolverStats(
            **{
                name: getattr(self, name) - getattr(before, name)
                for name in _ADDITIVE_FIELDS
            },
        )
        for name in _MAX_FIELDS:
            setattr(diff, name, getattr(self, name))
        diff.profile = {
            key: value - before.profile.get(key, 0)
            for key, value in self.profile.items()
        }
        diff.kernel = self.kernel
        return diff


#: Additive SolverStats fields (snapshot deltas subtract these).  Derived
#: from the dataclass fields so that newly added counters are additive by
#: default and can never be forgotten here.
_ADDITIVE_FIELDS = tuple(
    f.name
    for f in fields(SolverStats)
    if f.name not in _MAX_FIELDS + _SPECIAL_FIELDS
)


@dataclass
class SolverConfig:
    """Tunable solver parameters.

    The defaults follow MiniSat-style folklore values; the ablation bench
    ``benchmarks/bench_solver_features.py`` measures their contribution.
    """

    var_decay: float = 0.95
    clause_decay: float = 0.999
    restart_base: int = 100
    use_restarts: bool = True
    use_vsids: bool = True
    use_phase_saving: bool = True
    use_clause_deletion: bool = True
    use_minimization: bool = True
    learned_clause_limit_factor: float = 0.33
    learned_clause_limit_growth: float = 1.1
    learned_clause_min_limit: int = 1000
    default_phase: bool = False
    random_seed: int = 91648253
    random_var_freq: float = 0.0
    conflict_limit: int | None = None
    #: Wall-clock budget of one :meth:`Solver.solve` call; the search
    #: returns :data:`SolveResult.UNKNOWN` once it expires.  None = no
    #: deadline.  Re-read at every solve, so it can be retuned between
    #: incremental calls (the descent layers set the *remaining* budget).
    wall_deadline_s: float | None = None
    #: Conflicts/decisions between wall-clock checks; the check costs one
    #: ``perf_counter`` call per interval, invisible in the solve profile.
    deadline_check_interval: int = 256
    #: Enable the hot-path phase profiler (:mod:`repro.obs.profile`):
    #: attributes search time to propagate/analyze/backtrack/decide/restart
    #: and publishes ``profile.*`` counters through :class:`SolverStats`.
    profile: bool = False
    #: Conflict intervals between timed samples when profiling (1 = time
    #: everything; the default keeps overhead well under 5%).
    profile_sample_period: int = 16
    extra_checks: bool = field(default=False, repr=False)
