"""What each gateway pool worker runs: :func:`serve_request`.

The pool is :class:`repro.workers.TaskWorkerPool`: forked workers keep
the import-warm interpreter, most of the gateway's cold-request
advantage over ``python -m repro ...``.
"""

from __future__ import annotations

from repro.gateway.requests import RequestError, execute
from repro.workers import (
    KILL_GRACE_S,
    DeadlineExceeded,
    TaskWorkerPool,
    WorkerCrashed,
)

__all__ = [
    "KILL_GRACE_S",
    "DeadlineExceeded",
    "TaskWorkerPool",
    "WorkerCrashed",
    "serve_request",
]


def serve_request(job: dict) -> dict:
    """Run one gateway request in a pool worker; errors become replies."""
    try:
        return execute(
            job.get("payload") or {},
            warm=job.get("warm"),
            budget_s=job.get("budget_s"),
        )
    except RequestError as exc:
        return {"ok": False, "error": str(exc), "kind": "request"}
    except Exception as exc:  # noqa: BLE001 — report, keep serving
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "kind": "internal",
        }
