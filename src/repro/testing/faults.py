"""Deterministic fault injection for the resilience test tier.

The crash/fallback paths of the solver service, the batch runner, and
the checkpoint writer are hard to reach naturally: they trigger on
worker death, wedged searches, and failing disks.  This
module makes those events *reproducible*: a :class:`FaultPlan` armed via
the ``REPRO_FAULTS`` environment variable (a JSON object) tells the
production hooks below exactly where to misbehave — kill this member at
that probe, hang for so long, fail the Nth checkpoint write.

The environment is the transport on purpose: batch workers and the
solver service's helpers are forked children, so an armed plan reaches
them with zero plumbing.  The hooks fire only in those workers: the
solver service's primary member (member 0, "base" by default) solves
in the parent process and never calls one, so a plan that kills every
helper cannot also kill the primary that finishes the session.  Every
hook is a near-zero-cost no-op when no plan is armed (one cached
environment lookup).

Example::

    plan = FaultPlan(kill_member="neg-phase", kill_probe=1)
    with injected(plan):
        result = minimize_sum(cnf, lits, parallel=2)
    # if probe 1 outlived the primary's load, it forked helper
    # "neg-phase", which SIGKILLed itself in that probe; the descent
    # finished on the in-process primary.
"""

from __future__ import annotations

import json
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

#: Environment variable carrying the armed fault plan (JSON).
ENV_KEY = "REPRO_FAULTS"


class FaultPlanError(ValueError):
    """The ``REPRO_FAULTS`` payload could not be parsed into a plan."""


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic misbehaviour, keyed by member/probe/attempt.

    Attributes:
        kill_member: service helper that SIGKILLs
            its own process at probe number ``kill_probe`` (1-based; 0 =
            during worker startup, before the solver is built).  A
            service helper only sees the probes it takes part in: it is
            forked during the first probe that outlives the primary's
            load, and one that is still busy when a probe starts skips
            it.
        hang_member: member that sleeps ``hang_s`` seconds at probe
            ``hang_probe`` instead of answering — the service must not
            wait for it, and ``close()`` must reap it.
        slow_member: member that sleeps ``slow_start_s`` once at worker
            startup (slow fork / cold cache).
        checkpoint_fail_at: 1-based checkpoint write sequence number from
            which every write raises :class:`OSError` (simulated full or
            yanked disk).
        batch_kill_job: batch job name whose *pool worker* SIGKILLs
            itself; attempts below ``batch_kill_attempts`` die, so the
            parent's retry / serial-recovery tiers are exercised.  The
            serial in-parent recovery never consults this hook.
    """

    kill_member: str | None = None
    kill_probe: int = 1
    hang_member: str | None = None
    hang_probe: int = 1
    hang_s: float = 30.0
    slow_member: str | None = None
    slow_start_s: float = 0.25
    checkpoint_fail_at: int | None = None
    batch_kill_job: str | None = None
    batch_kill_attempts: int = 1_000_000  # default: every attempt dies

    def to_env(self) -> str:
        """Serialise for the ``REPRO_FAULTS`` environment variable."""
        payload = {
            key: value for key, value in asdict(self).items()
            if value is not None
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_env(cls, raw: str) -> "FaultPlan":
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"unparseable {ENV_KEY}: {exc}") from exc
        if not isinstance(payload, dict):
            raise FaultPlanError(f"{ENV_KEY} must hold a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise FaultPlanError(
                f"unknown fault plan keys: {', '.join(unknown)}"
            )
        return cls(**payload)


# Cache keyed by the raw environment string, so repeated hook calls cost
# one os.environ lookup plus a string compare — and forked children (which
# inherit the parent's environment *and* this cache) stay consistent.
_cached_raw: str | None = None
_cached_plan: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The armed fault plan, or None (the overwhelmingly common case)."""
    global _cached_raw, _cached_plan
    raw = os.environ.get(ENV_KEY)
    if raw != _cached_raw:
        _cached_raw = raw
        _cached_plan = FaultPlan.from_env(raw) if raw else None
    return _cached_plan


@contextmanager
def injected(plan: FaultPlan):
    """Arm ``plan`` for the duration of the block (and its forked children)."""
    previous = os.environ.get(ENV_KEY)
    os.environ[ENV_KEY] = plan.to_env()
    try:
        yield plan
    finally:
        if previous is None:
            os.environ.pop(ENV_KEY, None)
        else:
            os.environ[ENV_KEY] = previous


def _die() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


# ---------------------------------------------------------------------------
# Hooks called from production code.  Each is a no-op without an armed plan.
# ---------------------------------------------------------------------------


def on_worker_start(member_name: str) -> None:
    """Called once when a service helper comes up."""
    plan = active_plan()
    if plan is None:
        return
    if plan.slow_member == member_name:
        time.sleep(plan.slow_start_s)
    if plan.kill_member == member_name and plan.kill_probe == 0:
        _die()


def on_probe(member_name: str, probe: int) -> None:
    """Called in a service helper when probe number ``probe`` (1-based)
    reaches it."""
    plan = active_plan()
    if plan is None:
        return
    if plan.kill_member == member_name and plan.kill_probe == probe:
        _die()
    if plan.hang_member == member_name and plan.hang_probe == probe:
        time.sleep(plan.hang_s)


def on_batch_job(job_name: str, attempt: int) -> None:
    """Called in a batch *pool worker* before running ``job_name``.

    ``attempt`` is 0 for the first pool execution, 1.. for retries.
    """
    plan = active_plan()
    if plan is None:
        return
    if (
        plan.batch_kill_job == job_name
        and attempt < plan.batch_kill_attempts
    ):
        _die()


def on_checkpoint_write(seq: int) -> None:
    """Called before checkpoint write number ``seq`` (1-based)."""
    plan = active_plan()
    if plan is None:
        return
    if (
        plan.checkpoint_fail_at is not None
        and seq >= plan.checkpoint_fail_at
    ):
        raise OSError(f"injected checkpoint write failure at seq {seq}")
