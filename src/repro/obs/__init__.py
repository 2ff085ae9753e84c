"""Observability: spans, metrics, events, the phase profiler, reports.

Cooperating pieces, all dependency-free and off by default:

* :mod:`repro.obs.trace` — hierarchical span tracing (``trace.span("solve")``,
  nestable, ~zero overhead when disabled) with JSONL and Chrome-trace/
  Perfetto export; worker-process spans survive ``fork`` and merge back
  into the parent trace.
* :mod:`repro.obs.metrics` — counters/gauges/histograms under stable dotted
  names, absorbing solver statistics, encoder constraint-family sizes,
  and probe-session race telemetry.
* :mod:`repro.obs.profile` — the hot-path phase profiler: attributes CDCL
  search time to propagate/analyze/backtrack/decide/restart via sampled
  conflict intervals; exported as ``profile.*`` keys and rendered by
  ``repro top``.
* :mod:`repro.obs.events` — a bounded, monotonically-sequenced structured
  event stream (restarts, clause exchange, refinement rounds, descent
  improvements, checkpoints, deadline hits, worker crashes) with JSONL
  export (``--events``) and the ``--live`` single-line renderer.
* :mod:`repro.obs.keys` — the metric-key namespace catalog guarded by a
  lint-style test.
* :mod:`repro.obs.report` — :class:`RunReport`, a human-readable
  timing/metrics breakdown (the ``repro report`` subcommand).

The CLI exposes the layer as ``--trace``/``--metrics``/``--events``/
``--profile``/``--live`` on the task subcommands; library users install a
tracer with ``trace.install(trace.Tracer())``, an event log with
``events.install(events.EventLog())``, and read ``TaskResult.metrics``.
"""

from repro.obs import events, keys, profile, trace
from repro.obs.events import EventLog, LiveLine
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    read_json,
)
from repro.obs.profile import PhaseProfiler
from repro.obs.report import RunReport
from repro.obs.trace import Tracer

__all__ = [
    "trace",
    "events",
    "keys",
    "profile",
    "Tracer",
    "EventLog",
    "LiveLine",
    "PhaseProfiler",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "read_json",
    "RunReport",
]
