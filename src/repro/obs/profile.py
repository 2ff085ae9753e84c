"""Hot-path phase profiler for the CDCL search loop.

The ROADMAP's top open item — compiling the CDCL hot path — needs evidence
first: where does :meth:`Solver._search` actually spend its time?  This
module provides a :class:`PhaseProfiler` that attributes wall time and
operation counts to the five phases of the search loop

    propagate · analyze · backtrack · decide · restart

with *amortized* clock reads: every operation is counted (two dict
increments), but ``time.perf_counter`` is only read during *sampled
conflict intervals* — the stretch of search between two conflicts, sampled
one in every ``sample_period``.  Total per-phase time is then estimated by
scaling the sampled time by the op-count ratio, which keeps the overhead
well under 5% while the shares still sum to ~100%.

The profiler exports a flat dict of additive numeric counters (see
:meth:`PhaseProfiler.as_counters`) that rides inside ``SolverStats`` —
snapshot/delta/merge work per-key, so per-probe service deltas and
portfolio fork-merges need no special casing.  :func:`profile_summary`
derives the per-phase estimates and shares from the raw counters and
:func:`format_top` renders the ``repro top`` attribution table.

Deliberately dependency-free (stdlib only) so :mod:`repro.sat.solver` can
import it without pulling in the rest of the observability stack.
"""

from __future__ import annotations

import time

PHASES = ("propagate", "analyze", "backtrack", "decide", "restart")


class PhaseProfiler:
    """Samples per-phase wall time over conflict intervals.

    ``sample_period`` selects how often a conflict interval is timed: 1
    times everything, the default 16 reads the clock during ~6% of the
    search.  Counters are cumulative over the profiler's (= the solver's)
    lifetime; consumers diff them per solve via ``SolverStats.delta``.
    """

    __slots__ = (
        "period", "active", "intervals", "sampled_intervals",
        "counts", "sampled", "times",
    )

    def __init__(self, sample_period: int = 16) -> None:
        self.period = max(1, int(sample_period))
        # The first interval is always sampled so short solves still get
        # a timing signal.
        self.active = True
        self.intervals = 1
        self.sampled_intervals = 1
        self.counts = {phase: 0 for phase in PHASES}
        self.sampled = {phase: 0 for phase in PHASES}
        self.times = {phase: 0.0 for phase in PHASES}

    def on_conflict(self) -> None:
        """Advance to the next conflict interval; decide whether to time it."""
        self.intervals += 1
        active = (self.intervals % self.period) == 0
        if active:
            self.sampled_intervals += 1
        self.active = active

    def run(self, phase, fn, *args):
        """Count one ``phase`` operation, timing it if the interval is
        sampled, and return ``fn(*args)``."""
        self.counts[phase] += 1
        if not self.active:
            return fn(*args)
        start = time.perf_counter()
        result = fn(*args)
        self.times[phase] += time.perf_counter() - start
        self.sampled[phase] += 1
        return result

    def as_counters(self) -> dict:
        """Flat additive counters (``propagate.time_s``, ``decide.count``,
        ...) suitable for per-key snapshot/delta/merge."""
        out: dict = {
            "intervals": self.intervals,
            "sampled_intervals": self.sampled_intervals,
        }
        for phase in PHASES:
            out[f"{phase}.count"] = self.counts[phase]
            out[f"{phase}.sampled"] = self.sampled[phase]
            out[f"{phase}.time_s"] = self.times[phase]
        return out


def extract_profile(metrics: dict) -> dict:
    """Pull the profile counters out of a flat metrics/stats mapping.

    Accepts keys with or without the ``profile.`` / ``solver.profile.``
    prefixes and returns them unprefixed (``propagate.time_s`` ...).
    """
    out: dict = {}
    for key, value in metrics.items():
        for prefix in ("solver.profile.", "profile."):
            if key.startswith(prefix):
                out[key[len(prefix):]] = value
                break
        else:
            if key.partition(".")[0] in PHASES or key in (
                "intervals", "sampled_intervals"
            ):
                out[key] = value
    return out


def merge_profiles(dicts) -> dict:
    """Sum flat profile-counter dicts (portfolio/service fork-merge)."""
    merged: dict = {}
    for entry in dicts:
        if not entry:
            continue
        for key, value in entry.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            merged[key] = merged.get(key, 0) + value
    return merged


def profile_summary(counters: dict) -> dict:
    """Derive per-phase time estimates and shares from raw counters.

    Sampled time is scaled by ``count / sampled`` per phase (phases whose
    interval was never sampled keep their raw time).  Shares are the
    estimated times normalised to sum to 1.0.
    """
    phases: dict = {}
    total_est = 0.0
    for phase in PHASES:
        count = counters.get(f"{phase}.count", 0)
        sampled = counters.get(f"{phase}.sampled", 0)
        time_s = counters.get(f"{phase}.time_s", 0.0)
        est = time_s * (count / sampled) if sampled else time_s
        phases[phase] = {
            "count": count,
            "sampled": sampled,
            "time_s": time_s,
            "est_time_s": est,
        }
        total_est += est
    dominant = None
    for phase, row in phases.items():
        row["share"] = row["est_time_s"] / total_est if total_est else 0.0
        if (dominant is None
                or row["est_time_s"] > phases[dominant]["est_time_s"]):
            dominant = phase
    return {
        "phases": phases,
        "dominant": dominant,
        "total_est_s": total_est,
        "intervals": counters.get("intervals", 0),
        "sampled_intervals": counters.get("sampled_intervals", 0),
    }


def format_top(metrics: dict) -> str:
    """Render the hot-path attribution table for ``repro top``.

    ``metrics`` is a flat metrics (or solver-stats) mapping as written by
    ``--metrics``; profile keys may carry the ``profile.`` or
    ``solver.profile.`` prefix.
    """
    counters = extract_profile(metrics)
    summary = profile_summary(counters)
    if summary["total_est_s"] <= 0 and not any(
        row["count"] for row in summary["phases"].values()
    ):
        return (
            "no profile data found — rerun with --profile "
            "(and --metrics FILE) to record the hot-path attribution"
        )
    lines = ["hot-path phase attribution (estimated from sampled intervals)"]
    lines.append(
        f"  {'phase':<10} {'est time':>10} {'share':>7} "
        f"{'ops':>12} {'sampled':>9}"
    )
    ordered = sorted(
        summary["phases"].items(),
        key=lambda kv: kv[1]["est_time_s"],
        reverse=True,
    )
    for phase, row in ordered:
        lines.append(
            f"  {phase:<10} {row['est_time_s']:>9.3f}s "
            f"{row['share'] * 100:>6.1f}% {row['count']:>12d} "
            f"{row['sampled']:>9d}"
        )
    lines.append(
        f"  {'total':<10} {summary['total_est_s']:>9.3f}s "
        f"{sum(r['share'] for r in summary['phases'].values()) * 100:>6.1f}%"
    )
    if summary["dominant"]:
        lines.append(f"dominant phase: {summary['dominant']}")
    lines.append(
        f"intervals: {summary['intervals']} "
        f"(sampled {summary['sampled_intervals']})"
    )
    for key, label in (
        ("profile.props_per_s", "props/s"),
        ("profile.conflicts_per_s", "conflicts/s"),
    ):
        value = metrics.get(key, metrics.get("solver." + key))
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            lines.append(f"{label}: {value:,.0f}")
    return "\n".join(lines)
