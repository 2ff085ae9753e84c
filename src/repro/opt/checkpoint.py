"""JSONL descent checkpoints: every proven bound survives a kill.

A long SAT–UNSAT descent is a staircase of facts — "a model with cost 9
exists", "cost 4 is infeasible" — each paid for with real solver time.
This module persists those facts *as they are proven*, one JSON record
per line, so a descent killed at any point can resume from its last
proven bound instead of re-proving the whole staircase:

``header``
    problem fingerprint (variable/clause counts, objective digest,
    strategy) guarding against resuming onto a different formula.
``improved``
    a better model: its cost and true-literal list.
``lower``
    a proven lower bound (an UNSAT probe at ``bound - 1``, or a
    core-guided descent's core count).
``units``
    level-0 facts harvested from the solver — assumption-free
    consequences of the formula, safe to re-add on resume for a warm
    start (see :meth:`Solver.export_learned`).  A core-guided descent
    keeps only the units over the formula's own variables (at most the
    fingerprint's ``num_vars``): its selectors are numbered by a core
    history that a resumed run does not repeat.
``done``
    the descent finished; resuming replays the result without probing.

Appends are flushed per record, so a SIGKILL loses at most the record
being written — and the loader tolerates a torn trailing line.  Write
failures (full disk, yanked volume) disable the writer after counting
the failure; they never take the descent down with them.
"""

from __future__ import annotations

import json
import zlib

from repro.obs import events as obs_events
from repro.obs import trace
from repro.testing import faults

#: Bump when the record layout changes incompatibly.
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint exists but cannot be resumed from."""


#: Fingerprint keys that pin the *variable space* of an instance.  A
#: cached model is a list of variable numbers; replaying it on another
#: instance is only meaningful when both number their variables
#: identically, which (deterministic :class:`repro.logic.cnf.VarPool`)
#: the variable count pins.  Clause counts are deliberately excluded:
#: delta-close instances differ in clauses, and the warm-start paths
#: re-certify the model clause-by-clause anyway.
WARM_COMPAT_KEYS = ("version", "num_vars")


def warm_compatible(cached: dict | None, current: dict) -> bool:
    """Whether a cached fingerprint's model maps onto ``current``.

    Compares only :data:`WARM_COMPAT_KEYS` (via
    :meth:`CheckpointState.check`).  A missing cached fingerprint
    passes — the clause-level re-certification downstream remains the
    actual soundness gate.
    """
    if not cached:
        return True
    reduce = lambda fp: {k: fp.get(k) for k in WARM_COMPAT_KEYS}  # noqa: E731
    try:
        CheckpointState(reduce(cached)).check(reduce(current))
    except CheckpointError:
        return False
    return True


def descent_fingerprint(
    num_vars: int,
    num_clauses: int,
    objective_lits: list[int],
    strategy: str,
) -> dict:
    """Identity of one descent: resuming requires an exact match.

    The variable/clause counts are taken *before* the totalizer is
    built; together with the objective digest they pin the formula, and
    — because :class:`repro.logic.cnf.VarPool` numbers auxiliaries
    deterministically — also pin every totalizer literal a checkpointed
    record refers to.
    """
    digest = zlib.crc32(
        ",".join(str(lit) for lit in objective_lits).encode()
    )
    return {
        "version": FORMAT_VERSION,
        "num_vars": num_vars,
        "num_clauses": num_clauses,
        "objective_crc": digest,
        "objective_len": len(objective_lits),
        "strategy": strategy,
    }


class CheckpointState:
    """Folded view of a checkpoint file (what a resume starts from)."""

    def __init__(self, fingerprint: dict):
        self.fingerprint = fingerprint
        self.best_cost: int | None = None
        self.best_model: list[int] = []
        self.lower_bound: int = 0
        self.units: list[int] = []
        self.probes: int = 0  # probes recorded by the previous run(s)
        self.done_status: str | None = None

    @classmethod
    def warm(cls, cost: int, model: list[int],
             fingerprint: dict | None = None) -> "CheckpointState":
        """A warm-start seed that is *not* a resume.

        The solve gateway (:mod:`repro.gateway`) replays a cached model
        from a delta-close instance as the descent's starting incumbent:
        the descent then skips its initial unconstrained probe and
        descends straight from ``cost``.  Unlike a checkpoint resume it
        carries no lower bound and no learned units — those are facts
        about a *different* formula and would be unsound to replay.
        """
        state = cls(dict(fingerprint or {}))
        state.best_cost = cost
        state.best_model = list(model)
        return state

    def check(self, fingerprint: dict) -> None:
        """Raise :class:`CheckpointError` unless the fingerprints match."""
        if self.fingerprint != fingerprint:
            diffs = sorted(
                key for key in set(self.fingerprint) | set(fingerprint)
                if self.fingerprint.get(key) != fingerprint.get(key)
            )
            raise CheckpointError(
                "checkpoint belongs to a different descent "
                f"(mismatched: {', '.join(diffs)})"
            )


def load_checkpoint(path: str) -> CheckpointState | None:
    """Fold a checkpoint file into a :class:`CheckpointState`.

    Returns None when the file is missing or empty.  Undecodable lines
    (a record torn by a kill mid-write) are skipped; a file whose first
    intact record is not a header raises :class:`CheckpointError`.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        return None
    state: CheckpointState | None = None
    seen_units: set[int] = set()
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn trailing line from a kill mid-append
        kind = record.get("type")
        if state is None:
            if kind != "header":
                raise CheckpointError(
                    f"checkpoint {path!r} does not start with a header"
                )
            state = CheckpointState(record.get("fingerprint", {}))
            continue
        if kind == "improved":
            cost = record.get("cost")
            if state.best_cost is None or cost < state.best_cost:
                state.best_cost = cost
                state.best_model = list(record.get("model", []))
            state.probes += 1
        elif kind == "lower":
            state.lower_bound = max(state.lower_bound,
                                    int(record.get("bound", 0)))
            state.probes += 1
        elif kind == "units":
            for lit in record.get("lits", []):
                if lit not in seen_units:
                    seen_units.add(lit)
                    state.units.append(lit)
        elif kind == "done":
            state.done_status = record.get("status")
        # "resumed" markers and unknown kinds are informational only.
    return state


class DescentCheckpoint:
    """Append-only JSONL writer for one descent's proven facts.

    Failure policy: any :class:`OSError` while opening or writing counts
    as a ``write_failure``, disables the writer, and is reported through
    a ``checkpoint.write_failed`` trace event — the descent itself never
    sees the exception.
    """

    def __init__(self, path: str):
        self.path = path
        self.writes = 0
        self.write_failures = 0
        self._seq = 0
        self._handle = None
        self._disabled = False

    def open(self, fingerprint: dict, resumed: bool) -> None:
        """Start writing: truncate fresh, or append a resume marker."""
        try:
            if resumed:
                self._handle = open(self.path, "a", encoding="utf-8")
                self._write({"type": "resumed"})
            else:
                self._handle = open(self.path, "w", encoding="utf-8")
                self._write({"type": "header", "fingerprint": fingerprint})
        except OSError as exc:
            self._fail(exc)

    def improved(self, cost: int, model: list[int], probe: int) -> None:
        self._write({"type": "improved", "cost": cost, "probe": probe,
                     "model": model})

    def lower(self, bound: int, probe: int) -> None:
        self._write({"type": "lower", "bound": bound, "probe": probe})

    def units(self, lits: list[int]) -> None:
        if lits:
            self._write({"type": "units", "lits": lits})

    def done(self, status: str, cost: int | None) -> None:
        self._write({"type": "done", "status": status, "cost": cost})

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def summary(self) -> dict:
        """Writer counters for the result payload / metrics registry."""
        return {
            "path": self.path,
            "writes": self.writes,
            "write_failures": self.write_failures,
        }

    def _write(self, record: dict) -> None:
        if self._disabled or self._handle is None:
            return
        self._seq += 1
        try:
            faults.on_checkpoint_write(self._seq)
            self._handle.write(json.dumps(record) + "\n")
            # Per-record flush: a SIGKILLed descent keeps everything the
            # OS already received (page cache survives process death).
            self._handle.flush()
        except OSError as exc:
            self._fail(exc)
        else:
            self.writes += 1
            obs_events.emit(
                "checkpoint.write",
                type=record.get("type", "?"),
                seq=self._seq,
            )

    def _fail(self, exc: OSError) -> None:
        self.write_failures += 1
        self._disabled = True
        trace.event("checkpoint.write_failed", path=self.path,
                    error=f"{type(exc).__name__}: {exc}")
        self.close()
