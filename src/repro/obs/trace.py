"""Hierarchical span tracing with JSONL and Chrome-trace export.

The pipeline (discretize → encode → load → solve → decode → validate)
is instrumented with *spans*: named, nestable timing intervals.  Tracing is
off by default and the instrumentation points are written so that the
disabled path costs one module-global read and a no-op context manager —
measured under 2% of tier-1 wall time.

Usage::

    from repro.obs import trace

    tracer = trace.Tracer()
    trace.install(tracer)
    with trace.span("encode", trains=3):
        ...
    trace.write_jsonl(tracer.export(), "run.jsonl")
    trace.write_chrome_trace(tracer.export(), "run.trace.json")

The Chrome-trace JSON opens directly in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing``.

Timestamps are ``time.perf_counter()`` values.  On platforms with ``fork``
(the only platforms where the solver service and batch runner parallelise) the
monotonic clock is shared between parent and children, so spans recorded in
worker processes and merged back via :func:`merge` line up with the parent's
spans on one common timeline; exports normalise all timestamps against the
earliest span.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

#: Span kinds: "span" = duration, "event" = instant marker, "counter" =
#: sampled values (rendered as counter tracks by Perfetto).
KINDS = ("span", "event", "counter")


@dataclass
class Span:
    """One recorded interval (or instant/counter event)."""

    name: str
    t0: float
    t1: float
    pid: int
    tid: str
    depth: int
    path: str
    args: dict = field(default_factory=dict)
    kind: str = "span"

    def duration(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "pid": self.pid,
            "tid": self.tid,
            "depth": self.depth,
            "path": self.path,
            "args": self.args,
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        return cls(
            name=record["name"],
            t0=record["t0"],
            t1=record["t1"],
            pid=record.get("pid", 0),
            tid=str(record.get("tid", "main")),
            depth=record.get("depth", 0),
            path=record.get("path", record["name"]),
            args=record.get("args", {}),
            kind=record.get("kind", "span"),
        )


class _SpanHandle:
    """Context manager recording one span into its tracer."""

    __slots__ = ("_tracer", "_name", "_args", "_t0", "_path")

    def __init__(self, tracer: "Tracer", name: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        stack = tracer._stack
        self._path = (
            f"{stack[-1]}/{self._name}" if stack else self._name
        )
        stack.append(self._path)
        self._t0 = time.perf_counter()
        return self

    def add(self, **args) -> None:
        """Attach attributes to the span while it is open."""
        self._args.update(args)

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        tracer = self._tracer
        tracer._stack.pop()
        if exc_type is not None:
            self._args.setdefault("error", exc_type.__name__)
        tracer.spans.append(
            Span(
                name=self._name,
                t0=self._t0,
                t1=t1,
                pid=tracer.pid,
                tid=tracer.tid,
                depth=len(tracer._stack),
                path=self._path,
                args=self._args,
            )
        )
        return False


class _NoopSpan:
    """Shared do-nothing span, returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, **args) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects spans for one process (one ``tid`` track)."""

    def __init__(self, tid: str = "main"):
        self.tid = tid
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._stack: list[str] = []
        self.wall_epoch = time.time()
        self.origin = time.perf_counter()

    def span(self, name: str, **args) -> _SpanHandle:
        """Open a nested span; use as a context manager."""
        return _SpanHandle(self, name, args)

    def event(self, name: str, **args) -> None:
        """Record an instant marker (e.g. "descent improved to 3")."""
        now = time.perf_counter()
        parent = self._stack[-1] if self._stack else ""
        self.spans.append(
            Span(
                name=name,
                t0=now,
                t1=now,
                pid=self.pid,
                tid=self.tid,
                depth=len(self._stack),
                path=f"{parent}/{name}" if parent else name,
                args=args,
                kind="event",
            )
        )

    def counter(self, name: str, **values) -> None:
        """Record sampled numeric values (a Perfetto counter track)."""
        now = time.perf_counter()
        self.spans.append(
            Span(
                name=name,
                t0=now,
                t1=now,
                pid=self.pid,
                tid=self.tid,
                depth=0,
                path=name,
                args=values,
                kind="counter",
            )
        )

    def export(self) -> list[dict]:
        """The recorded spans as plain (picklable, JSON-able) dicts."""
        return [span.as_dict() for span in self.spans]

    def merge(self, records: list[dict]) -> None:
        """Absorb spans exported by another tracer (e.g. a fork child)."""
        self.spans.extend(Span.from_dict(record) for record in records)


# ----------------------------------------------------------------------
# Module-global tracer (what the instrumentation points talk to)
# ----------------------------------------------------------------------

_TRACER: Tracer | None = None


def install(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-global tracer; returns it."""
    global _TRACER
    _TRACER = tracer
    return tracer


def reset() -> None:
    """Disable tracing (the default state)."""
    global _TRACER
    _TRACER = None


def get_tracer() -> Tracer | None:
    """The installed tracer, or None when tracing is disabled."""
    return _TRACER


def enabled() -> bool:
    """Whether tracing is currently on."""
    return _TRACER is not None


def span(name: str, **args):
    """Open a span on the global tracer (no-op when tracing is off)."""
    tracer = _TRACER
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **args)


def event(name: str, **args) -> None:
    """Record an instant event on the global tracer (no-op when off)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.event(name, **args)


def counter(name: str, **values) -> None:
    """Record counter samples on the global tracer (no-op when off)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.counter(name, **values)


def merge(records: list[dict] | None) -> None:
    """Merge exported child spans into the global tracer (no-op when off)."""
    tracer = _TRACER
    if tracer is not None and records:
        tracer.merge(records)


def export_spans() -> list[dict]:
    """Export the global tracer's spans ([] when tracing is off)."""
    tracer = _TRACER
    return tracer.export() if tracer is not None else []


def fork_child(tid: str) -> Tracer:
    """Fresh tracer for a worker process; install in the child, export,
    and :func:`merge` the result back in the parent."""
    return Tracer(tid=tid)


# ----------------------------------------------------------------------
# Serialisation: JSONL and Chrome trace format
# ----------------------------------------------------------------------


def write_jsonl(records: list[dict], path: str) -> None:
    """Write spans as JSON Lines (one span object per line)."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


def read_jsonl(path: str) -> list[dict]:
    """Read spans written by :func:`write_jsonl`."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def to_chrome_trace(records: list[dict]) -> dict:
    """Convert span dicts to the Chrome trace event format.

    The result is a ``{"traceEvents": [...]}`` object accepted by Perfetto
    and ``chrome://tracing``.  Timestamps are microseconds relative to the
    earliest span, so parent and merged-worker spans share one timeline.
    """
    if records:
        base = min(record["t0"] for record in records)
    else:
        base = 0.0
    events = []
    for record in records:
        kind = record.get("kind", "span")
        ts = (record["t0"] - base) * 1e6
        common = {
            "name": record["name"],
            "pid": record.get("pid", 0),
            "tid": str(record.get("tid", "main")),
            "ts": ts,
        }
        if kind == "counter":
            events.append(
                {**common, "ph": "C", "args": record.get("args", {})}
            )
        elif kind == "event":
            events.append(
                {
                    **common,
                    "ph": "i",
                    "s": "t",
                    "args": record.get("args", {}),
                }
            )
        else:
            events.append(
                {
                    **common,
                    "ph": "X",
                    "dur": (record["t1"] - record["t0"]) * 1e6,
                    "args": {
                        **record.get("args", {}),
                        "path": record.get("path", record["name"]),
                    },
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(records: list[dict], path: str) -> None:
    """Write spans as a Chrome-trace JSON file (open in Perfetto)."""
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(records), handle)
