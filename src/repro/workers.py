"""Fork workers: the one process primitive of :mod:`repro`.

The gateway's request pool, the batch runner and the solver service's
helpers all fork through :func:`spawn` and reap through :func:`kill`;
the first two run on :class:`TaskWorkerPool`, whose persistent workers
answer one message at a time with a ``serve`` function.  ``serve`` and
everything it closes over reach the workers through ``fork``, so only
messages and replies are pickled.

Failure ladder: a worker that dies mid-message (OOM kill, fault
injection, an exception out of ``serve``) is respawned at once and the
call raises :class:`WorkerCrashed`; one still silent
:data:`KILL_GRACE_S` past the call's budget is killed (a solve cannot be
interrupted from outside) and respawned, and the call raises
:class:`DeadlineExceeded`.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import threading
from typing import Any, Callable

#: Extra seconds past the deadline before a busy worker is killed.
KILL_GRACE_S = 5.0

#: Seconds :func:`kill` waits for a worker to exit after each signal.
_JOIN_S = 2.0

#: Held by :func:`spawn` until the parent has closed the child's pipe
#: end: a fork from another thread meanwhile would hand that worker a
#: copy, and this worker's death would then go unseen.
_SPAWN_LOCK = threading.Lock()


class WorkerCrashed(RuntimeError):
    """The worker died mid-message; a fallback may still answer."""


class DeadlineExceeded(RuntimeError):
    """The message outlived its budget; its worker was recycled."""


def spawn(target: Callable, *args) -> tuple[Any, Any]:
    """Fork a daemon process running ``target(conn, *args)``; return it
    with the parent's end of their duplex pipe.  A failed fork closes
    that end and re-raises its :class:`OSError`."""
    ctx = multiprocessing.get_context("fork")
    with _SPAWN_LOCK:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_start, args=(target, parent_conn, child_conn, *args),
            daemon=True,
        )
        try:
            proc.start()
        except OSError:
            parent_conn.close()
            raise
        finally:
            child_conn.close()
    return proc, parent_conn


def _start(target: Callable, parent_conn, conn, *args) -> None:
    """Child entry point of :func:`spawn`.  The child was forked holding
    the spawn lock and the parent's pipe end (without which its pipe
    closes when the parent dies); it drops both, and may fork workers of
    its own (a job can open a ``-j N`` session) though it is daemonic."""
    global _SPAWN_LOCK
    _SPAWN_LOCK = threading.Lock()
    parent_conn.close()
    multiprocessing.current_process().daemon = False
    target(conn, *args)


def kill(proc, conn) -> None:
    """Terminate ``proc`` (SIGKILL if it outlives SIGTERM), reap it and
    close ``conn``; harmless on a worker that already exited."""
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=_JOIN_S)
        if proc.is_alive():
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=_JOIN_S)
    try:
        conn.close()
    except OSError:
        pass


def _serve_forever(conn, serve: Callable[[Any], Any]) -> None:
    """Worker entry point: answer messages until the pipe closes."""
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        reply = serve(msg)
        try:
            conn.send(reply)
        except OSError:
            return


class TaskWorkerPool:
    """Fixed-size pool of persistent workers answering with ``serve``.

    :meth:`run` is thread-safe: each call takes a free worker (waiting
    for one), sends it the message and returns its reply.
    """

    def __init__(self, processes: int, serve: Callable[[Any], Any]):
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes
        self.crashes = 0
        self._serve = serve
        self._lock = threading.Condition()
        self._closed = False
        self._free = list(range(processes))
        self._workers: list[tuple] = []
        try:
            for _ in range(processes):
                self._workers.append(spawn(_serve_forever, serve))
        except OSError:
            self.close()
            raise

    def worker_pids(self) -> list[int]:
        return [proc.pid for proc, _ in self._workers if proc.is_alive()]

    def alive_count(self) -> int:
        return sum(proc.is_alive() for proc, _ in self._workers)

    def run(self, msg: Any, budget_s: float | None = None) -> Any:
        """Answer ``msg`` on a free worker (blocks until one frees up).

        With ``budget_s``, a worker still silent ``budget_s +``
        :data:`KILL_GRACE_S` seconds after the send is recycled and the
        call raises :class:`DeadlineExceeded`.
        """
        with self._lock:
            while not self._free and not self._closed:
                self._lock.wait(timeout=1.0)
            if self._closed:
                raise WorkerCrashed("pool is closed")
            slot = self._free.pop()
        try:
            return self._run_on(slot, msg, budget_s)
        finally:
            with self._lock:
                self._free.append(slot)
                self._lock.notify()

    def _run_on(self, slot: int, msg: Any, budget_s: float | None) -> Any:
        if not self._workers[slot][0].is_alive():
            self._respawn(slot)
        proc, conn = self._workers[slot]
        try:
            conn.send(msg)
            if budget_s is None or conn.poll(budget_s + KILL_GRACE_S):
                return conn.recv()
        except (EOFError, OSError) as exc:
            with self._lock:
                self.crashes += 1
            self._respawn(slot)
            raise WorkerCrashed(f"{type(exc).__name__}: {exc}") from exc
        self._respawn(slot)
        raise DeadlineExceeded(
            f"request exceeded deadline of {budget_s:.1f}s"
        )

    def _respawn(self, slot: int) -> None:
        """Replace the worker in ``slot``.  A fork that fails leaves the
        slot dead (its next call retries), and so does a closed pool."""
        kill(*self._workers[slot])
        if not self._closed:
            with contextlib.suppress(OSError):
                self._workers[slot] = spawn(_serve_forever, self._serve)

    def close(self) -> None:
        """Quit every worker; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._lock.notify_all()
        for proc, conn in self._workers:
            try:
                conn.send(None)
            except OSError:
                pass
        for proc, conn in self._workers:
            proc.join(timeout=_JOIN_S)
            kill(proc, conn)
