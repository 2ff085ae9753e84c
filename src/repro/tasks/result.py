"""Task results: the columns of the paper's Table I, plus the solution."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields

from repro.encoding.decode import Solution


@dataclass
class TaskResult:
    """Outcome of one design/verification task.

    Attributes mirror Table I of the paper:
        task: "verification" | "generation" | "optimization".
        variables: the paper-equivalent primary variable count
            (borders + dense occupies grid).
        satisfiable: the solver's verdict.
        num_sections: TTD/VSS sections in the (resulting) layout.
        time_steps: steps until all trains reached their goals (makespan);
            None when unsatisfiable.
        runtime_s: wall-clock seconds for encoding + solving.

    Additional reproduction detail:
        actual_vars / clauses: true size of the (cone-reduced) encoding.
        solution: the decoded layout + trajectories (None if UNSAT).
        objective_value: value of the task's objective (borders added, or
            makespan), when one was optimised.
        proven_optimal: whether the optimisation loop certified optimality.
        solve_calls: SAT invocations used.
        solver_stats: cumulative solver counters.
        metrics: the run's metrics-registry payload (stable dotted keys:
            ``solver.*``, ``encoder.<family>.*``, ``portfolio.*``, ...).
        portfolio: the probe session's race summary when the task ran
            with ``parallel > 1`` (winner members, processes, wall time,
            service counters); None on the serial path, and for proof
            runs, which solve in process.

    Anytime/resilience detail (see :mod:`repro.opt.result`):
        status: how the optimisation ended — "optimal", "feasible",
            "timeout" (deadline hit; the solution is best-so-far),
            "unknown" (a probe answered UNKNOWN before any deadline, so
            "infeasible" is unproven), or "resumed"; None for tasks
            without an optimisation loop and for a proven verification
            verdict.
        lower_bound / upper_bound: proven objective bounds (meaningful
            when ``status`` is set and the task optimised something).
        resumed: the optimisation restarted from a checkpoint.

    Gateway detail (see :mod:`repro.gateway`):
        model: the accepted model's true literals, sorted ascending
            (empty when UNSAT/infeasible) — the payload a result cache
            offers delta-close instances as their ``warm_model``.
        warm_started: the task's descent started from the cached model
            passed as ``warm_model``, which re-validated against this
            instance; a verification then answers SAT with no solver
            call.
        fingerprint: the instance's descent fingerprint
            (:func:`repro.opt.checkpoint.descent_fingerprint`), used by
            the gateway cache to validate warm-starts.
    """

    task: str
    variables: int
    satisfiable: bool
    num_sections: int
    time_steps: int | None
    runtime_s: float
    actual_vars: int = 0
    clauses: int = 0
    solution: Solution | None = None
    objective_value: int | None = None
    proven_optimal: bool | None = None
    solve_calls: int = 1
    solver_stats: dict = field(default_factory=dict)
    proof_checked: bool | None = None  # UNSAT verdicts: DRAT proof validated
    portfolio: dict | None = None
    metrics: dict = field(default_factory=dict)
    status: str | None = None
    lower_bound: int = 0
    upper_bound: int | None = None
    resumed: bool = False
    model: list[int] = field(default_factory=list)
    warm_started: bool = False
    fingerprint: dict | None = None

    @property
    def stats(self) -> dict:
        """Deprecated alias for :attr:`solver_stats`.

        Kept so external callers reading ``result.stats`` keep working
        after the metrics-registry refactor; prefer :attr:`solver_stats`
        for the raw counters or :attr:`metrics` for the full registry.
        """
        warnings.warn(
            "TaskResult.stats is deprecated; use TaskResult.solver_stats "
            "or TaskResult.metrics",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.solver_stats

    def to_manifest(self) -> dict:
        """JSON-safe view for the batch manifest.

        Drops :attr:`solution` (the decoded layout does not survive a
        JSON round-trip) and :attr:`model` (thousands of literals the
        table does not need); everything Table I needs is plain data,
        so a restored result still renders its row and metrics.
        """
        return {
            f.name: getattr(self, f.name) for f in fields(self)
            if f.name not in ("solution", "model")
        }

    @classmethod
    def from_manifest(cls, payload: dict) -> "TaskResult":
        """Rebuild from :meth:`to_manifest` output (unknown keys from a
        newer writer are ignored)."""
        known = {f.name for f in fields(cls)}
        return cls(**{
            key: value for key, value in payload.items() if key in known
        })

    def table_row(self) -> tuple:
        """(task, vars, sat, sections, steps, runtime) — a Table I row."""
        return (
            self.task,
            self.variables,
            "Yes" if self.satisfiable else "No",
            self.num_sections,
            self.time_steps if self.satisfiable else None,
            self.runtime_s,
        )
