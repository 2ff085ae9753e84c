"""Catalog of metric-key namespaces.

Every metric key in the repository is dotted — ``solver.propagations``,
``lazy.rounds``, ``profile.propagate.time_s`` — and its first component
names the subsystem that owns it.  This module is the single source of
truth for those namespaces: :data:`PREFIXES` lists every allowed first
component, and ``tests/test_obs_keys.py`` AST-scans the source tree for
literal metric registrations to keep new ``foo.*`` families from drifting
in silently.  Adding a namespace is deliberate: extend :data:`PREFIXES`
(alphabetical) with a one-line comment saying which module owns it.
"""

from __future__ import annotations

#: Allowed first components of dotted metric keys, by owning subsystem.
PREFIXES = frozenset({
    "batch",        # tasks/batch.py — parallel scenario batches
    "bench",        # benchmarks/*.py — benchmark gauges
    "checkpoint",   # opt/checkpoint.py — descent checkpoint I/O
    "deadline",     # deadline governance (solver, descents, tasks)
    "descent",      # opt/minimize.py — descent counters, every strategy
    "diagnosis",    # tasks/diagnosis.py — unsat-core diagnosis
    "encoder",      # encoding/encoder.py — encoding size counters
    "events",       # obs/events.py — event-stream bookkeeping
    "fuzz",         # scenarios/fuzz.py — fuzz-harness events
    "gateway",      # gateway/server.py — always-on solve gateway
    "lazy",         # encoding/lazy.py — CEGAR refinement counters
    "portfolio",    # tasks/common.py — probe-session race summaries
    "profile",      # obs/profile.py — hot-path phase profiler
    "retry",        # tasks/batch.py — worker retry/backoff counters
    "scenario",     # scenarios/fuzz.py — per-scenario fuzz metrics
    "service",      # sat/service.py — persistent solver service
    "share",        # sat/service.py — learned-clause exchange
    "solver",       # sat/solver.py stats via absorb_solver_stats
    "task",         # tasks/*.py — task-level runtime gauges
})


def prefix_of(key: str) -> str:
    """The namespace component of a dotted metric key."""
    return key.partition(".")[0]


def is_catalogued(key: str) -> bool:
    """Whether ``key``'s namespace is registered in :data:`PREFIXES`."""
    return prefix_of(key) in PREFIXES


def check_keys(keys) -> list[str]:
    """Return the keys whose namespace is *not* catalogued (sorted)."""
    return sorted({key for key in keys if not is_catalogued(key)})
