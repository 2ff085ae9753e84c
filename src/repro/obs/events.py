"""Bounded, monotonically-sequenced structured event stream.

Where :mod:`repro.obs.trace` records *how long* things took, this module
records *what happened*: restarts, learned-clause export/import, lazy
refinement rounds, descent bound improvements, checkpoint writes, deadline
hits, worker crashes.  Events are kept in a bounded ring (oldest dropped
first, with a drop counter) and exported as JSON Lines via ``--events``.

The module-global API mirrors :mod:`repro.obs.trace`: instrumentation
points call :func:`emit` (one global read + no-op when disabled), the CLI
installs an :class:`EventLog` around a run, and the solver service's
forked helpers install a fresh child log via :func:`fork_child`, ship
:meth:`EventLog.drain` output in their reply dicts, and the
parent absorbs it with :func:`merge`.  Timestamps are ``perf_counter``
values on the fork-shared monotonic clock, so :meth:`EventLog.export`
can re-sequence the merged stream into one monotone order.

An optional ``listener`` receives every locally-emitted *and* merged event
record; the ``--live`` single-line progress renderer (:class:`LiveLine` +
:func:`live_listener`) is built on it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import deque

#: Default ring capacity; generous for real runs, small enough to bound
#: worker→parent reply payloads.
DEFAULT_CAPACITY = 10000


class EventLog:
    """Bounded ring of structured events for one process."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        source: str = "main",
        listener=None,
    ):
        self.capacity = max(1, int(capacity))
        self.source = source
        self.pid = os.getpid()
        self.listener = listener
        self.dropped = 0
        self._seq = 0
        self._events: deque = deque()

    def __len__(self) -> int:
        return len(self._events)

    def emit(self, kind: str, **args) -> None:
        """Record one event (and notify the listener, if any)."""
        self._seq += 1
        record = {
            "seq": self._seq,
            "t": time.perf_counter(),
            "kind": kind,
            "source": self.source,
            "pid": self.pid,
            "args": args,
        }
        self._append(record)

    def _append(self, record: dict) -> None:
        if len(self._events) >= self.capacity:
            self._events.popleft()
            self.dropped += 1
        self._events.append(record)
        if self.listener is not None:
            try:
                self.listener(record)
            except Exception:
                pass

    def merge(self, records) -> None:
        """Absorb events drained from a child log (fork worker)."""
        for record in records or ():
            self._append(dict(record))

    def export(self) -> list[dict]:
        """All retained events, re-sequenced monotonically by timestamp.

        Merged worker events interleave with the parent's on the shared
        ``perf_counter`` timeline; ``seq`` is rewritten to the global
        monotone order (ties broken by arrival order).
        """
        ordered = sorted(
            self._events, key=lambda record: record.get("t", 0.0)
        )
        out = []
        for index, record in enumerate(ordered, start=1):
            clone = dict(record)
            clone["seq"] = index
            out.append(clone)
        return out

    def drain(self) -> list[dict]:
        """Export raw retained events and clear the ring (worker side:
        ship per-probe deltas without re-sending history)."""
        out = [dict(record) for record in self._events]
        self._events.clear()
        return out

    def counts(self) -> dict:
        """Per-kind event counts (for metrics / quick summaries)."""
        out: dict = {}
        for record in self._events:
            key = record.get("kind", "?")
            out[key] = out.get(key, 0) + 1
        return out


# ----------------------------------------------------------------------
# Module-global log (what the instrumentation points talk to)
# ----------------------------------------------------------------------

_LOG: EventLog | None = None


def install(log: EventLog) -> EventLog:
    """Install ``log`` as the process-global event log; returns it."""
    global _LOG
    _LOG = log
    return log


def reset() -> None:
    """Disable event recording (the default state)."""
    global _LOG
    _LOG = None


def get_log() -> EventLog | None:
    """The installed log, or None when events are disabled."""
    return _LOG


def enabled() -> bool:
    """Whether event recording is currently on."""
    return _LOG is not None


def emit(kind: str, **args) -> None:
    """Emit an event on the global log (no-op when disabled)."""
    log = _LOG
    if log is not None:
        log.emit(kind, **args)


def merge(records) -> None:
    """Merge drained child events into the global log (no-op when off)."""
    log = _LOG
    if log is not None and records:
        log.merge(records)


def export_events() -> list[dict]:
    """Export the global log's events ([] when disabled)."""
    log = _LOG
    return log.export() if log is not None else []


def drain_events() -> list[dict]:
    """Drain the global log (worker side; [] when disabled)."""
    log = _LOG
    return log.drain() if log is not None else []


def fork_child(source: str, capacity: int = DEFAULT_CAPACITY) -> EventLog:
    """Fresh log for a worker process; install in the child, ship
    :meth:`EventLog.drain` output in the outcome, :func:`merge` in the
    parent."""
    return EventLog(capacity=capacity, source=source)


# ----------------------------------------------------------------------
# JSONL I/O
# ----------------------------------------------------------------------


def write_jsonl(records: list[dict], path: str) -> None:
    """Write events as JSON Lines (one event object per line)."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


def read_jsonl(path: str) -> list[dict]:
    """Read events written by :func:`write_jsonl`."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# ----------------------------------------------------------------------
# Live single-line progress renderer (--live)
# ----------------------------------------------------------------------


class LiveLine:
    """Single-line carriage-return progress renderer for a terminal.

    Writes throttled ``\\r``-prefixed updates to ``stream`` (stderr by
    default), padding with spaces so a shorter line fully overwrites a
    longer one, and finishes with a newline on :meth:`close`.
    """

    def __init__(self, stream=None, min_interval_s: float = 0.1):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self._last_len = 0
        self._last_write = 0.0
        self._wrote = False

    def update(self, text: str, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._last_write < self.min_interval_s:
            return
        self._last_write = now
        pad = " " * max(0, self._last_len - len(text))
        try:
            self.stream.write("\r" + text + pad)
            self.stream.flush()
        except Exception:
            return
        self._last_len = len(text)
        self._wrote = True

    def close(self) -> None:
        if self._wrote:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except Exception:
                pass
            self._wrote = False


def live_listener(line: LiveLine, label: str = "run"):
    """Event listener rendering progress/descent events onto ``line``.

    Tracks the latest solver progress snapshot, best descent cost, lazy
    refinement round, and notable one-off events (deadline hits, crashes)
    and renders them as one summary line.
    """
    state = {
        "conflicts": 0, "propagations": 0, "restarts": 0,
        "cost": None, "round": None, "note": None, "probes": 0,
    }

    def render(force: bool = False) -> None:
        parts = [
            f"{label}:",
            f"conflicts {state['conflicts']:,}",
            f"props {state['propagations']:,}",
            f"restarts {state['restarts']:,}",
        ]
        if state["probes"]:
            parts.append(f"probes {state['probes']}")
        if state["cost"] is not None:
            parts.append(f"best {state['cost']}")
        if state["round"] is not None:
            parts.append(f"round {state['round']}")
        if state["note"]:
            parts.append(f"[{state['note']}]")
        line.update(" ".join(parts), force=force)

    def on_event(record: dict) -> None:
        kind = record.get("kind", "")
        args = record.get("args", {})
        if kind == "progress":
            for key in ("conflicts", "propagations", "restarts"):
                value = args.get(key)
                if isinstance(value, (int, float)):
                    state[key] = max(state[key], int(value))
            render()
        elif kind == "descent.improved":
            state["cost"] = args.get("cost", state["cost"])
            render(force=True)
        elif kind == "lazy.round":
            state["round"] = args.get("round", state["round"])
            render(force=True)
        elif kind == "probe.done":
            state["probes"] += 1
            render()
        elif kind in ("deadline.hit", "worker.crash"):
            state["note"] = kind
            render(force=True)
        elif kind == "fuzz.scenario":
            state["note"] = (
                f"scenario {args.get('index', '?')}/{args.get('count', '?')}"
            )
            render(force=True)

    return on_event


def progress_callback(interval_conflicts: int = 2000):
    """An ``on_progress``-shaped hook forwarding solver snapshots to the
    trace counter track and the event stream, or None when both are off.

    Serial call sites attach this to their solver; fork workers build
    their own (the enabled state is checked at attach time).
    """
    from repro.obs import trace

    trace_on = trace.enabled()
    events_on = enabled()
    if not (trace_on or events_on):
        return None

    def hook(snapshot: dict) -> None:
        if trace_on:
            trace.counter("solver.progress", **snapshot)
        if events_on:
            emit("progress", **snapshot)

    return hook
