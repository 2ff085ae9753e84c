"""Always-on asyncio solve gateway.

The gateway keeps one import-warm process pool and one result cache
alive across requests, so interactive and CI callers skip both the
interpreter start-up and — for repeated or delta-close instances — the
solve itself.  Request lifecycle::

    client ── unix socket (NDJSON) or HTTP POST ──► admission control
        │ exact cache hit?          ──► cached response (no worker)
        │ delta-close cache hit?    ──► attach warm-start hint
        ▼
    worker pool (persistent fork workers) ──► solve, re-certifying any
        │                                     warm hint before use
        │ worker crashed?           ──► in-process one-shot fallback
        ▼
    complete response cached under its exact key, served, and indexed
    for future warm-starts under its family key

Admission control: requests beyond ``max_inflight + max_queue`` are
rejected as overloaded rather than queued without bound, and every
request carries an optional ``deadline_s`` that is enforced at
admission (reject when already expired), after queueing (reject when
the wait consumed it) and during the solve (the optimisation wall
budget — :class:`repro.opt.minimize._DescentBudget` — gets the
remainder).  Shutdown drains: accept sockets close first, inflight
requests get ``drain_s`` to finish, then the pool is torn down and the
socket unlinked.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.gateway.cache import CacheEntry, ResultCache
from repro.gateway.fingerprint import exact_key, family_key
from repro.gateway.pool import (
    DeadlineExceeded,
    TaskWorkerPool,
    WorkerCrashed,
)
from repro.gateway.requests import TASKS, RequestError, execute
from repro.obs import events as obs_events
from repro.obs.metrics import MetricsRegistry
from repro.opt.result import STATUS_OPTIMAL
from repro.opt.minimize import _DescentBudget


@dataclass
class GatewayConfig:
    """Tunables of one gateway instance."""

    socket_path: str = "repro-gateway.sock"
    http_port: int | None = None
    workers: int = 2
    cache_entries: int = 256
    max_inflight: int = 2
    max_queue: int = 8
    drain_s: float = 10.0
    fallback: bool = True


class Gateway:
    """One gateway: servers + worker pool + result cache + metrics."""

    def __init__(self, config: GatewayConfig | None = None):
        self.config = config if config is not None else GatewayConfig()
        self.registry = MetricsRegistry()
        self.cache = ResultCache(
            self.config.cache_entries, registry=self.registry
        )
        self.pool: TaskWorkerPool | None = None
        self._servers: list[asyncio.AbstractServer] = []
        self._sem: asyncio.Semaphore | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._closed = asyncio.Event()
        self._closing = False
        self._pending = 0

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Spawn the pool and open the accept sockets."""
        loop = asyncio.get_running_loop()
        self._sem = asyncio.Semaphore(self.config.max_inflight)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_inflight + 1,
            thread_name_prefix="gateway",
        )
        self.pool = await loop.run_in_executor(
            None, TaskWorkerPool, self.config.workers
        )
        path = self.config.socket_path
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        self._servers.append(
            await asyncio.start_unix_server(self._handle_ndjson, path=path)
        )
        if self.config.http_port is not None:
            self._servers.append(await asyncio.start_server(
                self._handle_http, host="127.0.0.1",
                port=self.config.http_port,
            ))
        obs_events.emit(
            "gateway.started", socket=path,
            http_port=self.config.http_port or 0,
            workers=self.config.workers,
        )

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def shutdown(self, reason: str = "") -> None:
        """Stop accepting, drain inflight work, tear the pool down."""
        if self._closing:
            return
        self._closing = True
        obs_events.emit("gateway.drain", reason=reason,
                        pending=self._pending)
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_s
        while self._pending > 0 and loop.time() < deadline:
            await asyncio.sleep(0.05)
        if self.pool is not None:
            await loop.run_in_executor(None, self.pool.close)
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.config.socket_path)
        obs_events.emit("gateway.stopped", reason=reason)
        self._closed.set()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig,
                lambda s=sig: asyncio.ensure_future(
                    self.shutdown(f"signal {s}")
                ),
            )

    # -- transports ---------------------------------------------------

    async def _handle_ndjson(self, reader, writer) -> None:
        """Unix-socket transport: one JSON object per line, both ways."""
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    response = {"ok": False, "error": f"bad json: {exc}"}
                else:
                    response = await self.process(payload)
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_http(self, reader, writer) -> None:
        """Minimal HTTP/1.1: POST /solve with a JSON body, GET /status."""
        status, response = 200, {"ok": False, "error": "bad request"}
        try:
            request_line = (await reader.readline()).decode(
                "latin-1", "replace"
            )
            parts = request_line.split()
            method = parts[0] if parts else ""
            target = parts[1] if len(parts) > 1 else "/"
            length = 0
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.decode(
                    "latin-1", "replace"
                ).partition(":")
                if name.strip().lower() == "content-length":
                    with contextlib.suppress(ValueError):
                        length = int(value.strip())
            if method == "GET" and target.startswith("/status"):
                response = self._status()
            elif method == "POST":
                body = await reader.readexactly(length) if length else b""
                try:
                    payload = json.loads(body or b"{}")
                except json.JSONDecodeError as exc:
                    status = 400
                    response = {"ok": False, "error": f"bad json: {exc}"}
                else:
                    response = await self.process(payload)
                    status = 200 if response.get("ok") else 400
            else:
                status, response = 404, {"ok": False, "error": "not found"}
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return
        body_bytes = json.dumps(response).encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}
        writer.write(
            f"HTTP/1.1 {status} {reason.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body_bytes)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body_bytes
        )
        with contextlib.suppress(Exception):
            await writer.drain()
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()

    # -- request processing -------------------------------------------

    async def process(self, payload: dict) -> dict:
        """Admission control + cache + dispatch for one request."""
        op = payload.get("op")
        if op == "status":
            return self._status()
        if op == "shutdown":
            asyncio.get_running_loop().create_task(
                self.shutdown("client request")
            )
            return {"ok": True, "op": "shutdown"}
        if op:
            return {"ok": False, "error": f"unknown op {op!r}"}
        if self._closing:
            return {"ok": False, "error": "draining", "kind": "draining"}
        task = payload.get("task")
        if task not in TASKS:
            return {
                "ok": False,
                "error": f"unknown task {task!r}; known: {list(TASKS)}",
            }
        self.registry.inc("gateway.requests")
        budget = _DescentBudget(payload.get("deadline_s"))
        use_cache = bool(not payload.get("no_cache") and task != "fuzz")
        ekey = exact_key(payload) if use_cache else None
        fkey = family_key(payload) if use_cache else None
        warm = None
        if use_cache:
            entry = self.cache.lookup_exact(ekey)
            if entry is not None:
                obs_events.emit("gateway.cache_hit", task=task,
                                key=ekey[:12], hits=entry.hits)
                return {**entry.response, "cached": True}
            family_entry = self.cache.lookup_family(fkey, exclude=ekey)
            if family_entry is not None:
                warm = {
                    "model": family_entry.model,
                    "fingerprint": family_entry.fingerprint,
                }
                obs_events.emit("gateway.warm_candidate", task=task,
                                key=fkey[:12])
        limit = self.config.max_inflight + self.config.max_queue
        if self._pending >= limit:
            self.registry.inc("gateway.rejected.overload")
            obs_events.emit("gateway.rejected", reason="overload")
            return {"ok": False, "error": "overloaded", "kind": "overload"}
        if budget.exhausted():
            self.registry.inc("gateway.rejected.deadline")
            obs_events.emit("gateway.rejected", reason="deadline")
            return {
                "ok": False,
                "error": "deadline expired before admission",
                "kind": "deadline",
            }
        self._pending += 1
        try:
            async with self._sem:
                if budget.exhausted():
                    self.registry.inc("gateway.rejected.deadline")
                    obs_events.emit("gateway.rejected", reason="queue-wait")
                    return {
                        "ok": False,
                        "error": "deadline expired while queued",
                        "kind": "deadline",
                    }
                response = await self._solve(payload, warm, budget)
        finally:
            self._pending -= 1
        response.setdefault("cached", False)
        response.setdefault("fallback", False)
        if response.get("ok") and response.get("warm_started"):
            self.registry.inc("gateway.warm_starts")
        # Only complete answers are served again: a deadline-cut descent
        # must not reach a request with more budget.  Verification
        # (status None) is never cut short: a late one is killed and
        # fails.
        if (
            response.get("ok") and use_cache
            and response.get("status") in (None, STATUS_OPTIMAL)
        ):
            self.cache.put(ekey, fkey, CacheEntry(
                response=dict(response),
                model=list(response.get("model") or []),
                fingerprint=response.get("fingerprint"),
                task=task,
            ))
        return response

    async def _solve(self, payload, warm, budget) -> dict:
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                self._executor, self.pool.run,
                payload, warm, budget.remaining(),
            )
        except DeadlineExceeded as exc:
            self.registry.inc("gateway.rejected.deadline")
            obs_events.emit("gateway.rejected", reason="solve-deadline")
            return {"ok": False, "error": str(exc), "kind": "deadline"}
        except WorkerCrashed as exc:
            self.registry.inc("gateway.worker_crashes")
            obs_events.emit("gateway.worker_crash", error=str(exc))
            if not self.config.fallback:
                return {"ok": False, "error": str(exc), "kind": "crash"}
            self.registry.inc("gateway.fallbacks")
            obs_events.emit("gateway.fallback")
            fallback = dict(payload)
            params = dict(fallback.get("params") or {})
            params["parallel"] = 1
            fallback["params"] = params
            fallback.pop("inject", None)
            try:
                response = await loop.run_in_executor(
                    self._executor, execute,
                    fallback, warm, budget.remaining(),
                )
            except RequestError as inner:
                return {"ok": False, "error": str(inner), "kind": "request"}
            response["fallback"] = True
            return response

    def _status(self) -> dict:
        pool = self.pool
        return {
            "ok": True,
            "op": "status",
            "pid": os.getpid(),
            "draining": self._closing,
            "pending": self._pending,
            "workers": {
                "processes": pool.processes if pool else 0,
                "alive": pool.alive_count() if pool else 0,
                "pids": pool.worker_pids() if pool else [],
                "crashes": pool.crashes if pool else 0,
            },
            "cache": self.cache.stats(),
            "metrics": self.registry.as_dict(),
        }


def serve(config: GatewayConfig | None = None) -> int:
    """Run a gateway until SIGTERM/SIGINT or a client shutdown op."""

    async def main() -> None:
        gateway = Gateway(config)
        await gateway.start()
        gateway.install_signal_handlers()
        await gateway.wait_closed()

    asyncio.run(main())
    return 0


class GatewayThread:
    """A gateway on a background event-loop thread (tests, benchmarks)."""

    def __init__(self, config: GatewayConfig | None = None):
        import threading

        self.gateway = Gateway(config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "GatewayThread":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("gateway failed to start within 30s")
        if self._failure is not None:
            raise RuntimeError(
                f"gateway failed to start: {self._failure}"
            ) from self._failure

    def stop(self) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            future = asyncio.run_coroutine_threadsafe(
                self.gateway.shutdown("thread stop"), loop
            )
            with contextlib.suppress(Exception):
                future.result(timeout=30)
        self._thread.join(timeout=30)

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            try:
                await self.gateway.start()
            except BaseException as exc:  # noqa: BLE001 — surface in start()
                self._failure = exc
                self._started.set()
                raise
            self._started.set()
            await self.gateway.wait_closed()

        with contextlib.suppress(BaseException):
            asyncio.run(main())
