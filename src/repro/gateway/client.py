"""Synchronous client for the solve gateway.

Speaks the unix-socket NDJSON transport by default; pass ``host`` and
``port`` to use the HTTP transport instead (``POST /solve``, one
connection per request).

Over the unix socket a client keeps one connection per thread and
process: a thread's first request opens it, later requests reuse it,
and a forked child opens its own instead of sharing its parent's.
After any error or timeout the connection is dropped, so a reply that
arrives late can never answer the next request.  A reused connection
that the server closed while it sat idle (a gateway restart, say) is
reopened and the request sent once more.  :meth:`GatewayClient.close`
(or leaving a ``with`` block) closes every connection the client holds
in this process.
"""

from __future__ import annotations

import json
import os
import socket
import threading


class GatewayError(RuntimeError):
    """Transport-level failure talking to the gateway."""


class _ServerClosed(GatewayError):
    """The server closed the connection before any byte of the reply."""


class GatewayClient:
    """Blocking request/response client (unix socket or HTTP).

    Safe to share across threads: each thread talks over its own
    connection, which stays open after the thread ends (a later thread
    given the same ident reuses it).  Use the client as a context
    manager, or call :meth:`close` when done, so no connection outlives
    it.
    """

    def __init__(
        self,
        socket_path: str | None = None,
        host: str | None = None,
        port: int | None = None,
        timeout_s: float = 300.0,
    ):
        if socket_path is None and (host is None or port is None):
            raise ValueError("need socket_path, or host + port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._pid = os.getpid()
        self._lock = threading.Lock()
        #: Open unix-socket connections by thread ident (this process).
        self._sockets: dict[int, socket.socket] = {}

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close every connection this client holds in this process.

        Call it when no request is in flight; a later request opens a
        new connection.
        """
        self._adopt_after_fork()
        with self._lock:
            sockets = list(self._sockets.values())
            self._sockets.clear()
        for sock in sockets:
            sock.close()

    def request(self, payload: dict) -> dict:
        """Send one request payload; return the decoded response."""
        if self.socket_path is not None:
            line = self._request_unix(json.dumps(payload).encode() + b"\n")
        else:
            line = self._request_http(json.dumps(payload))
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise GatewayError(f"bad response: {exc}") from exc

    def status(self) -> dict:
        return self.request({"op": "status"})

    def shutdown_server(self) -> dict:
        return self.request({"op": "shutdown"})

    # -- unix socket ----------------------------------------------------

    def _request_unix(self, data: bytes) -> bytes:
        self._adopt_after_fork()
        ident = threading.get_ident()
        try:
            sock = self._sockets.get(ident)
            if sock is not None:
                try:
                    return self._exchange(sock, data)
                except _ServerClosed:
                    # It closed while idle: nothing of this request was
                    # served, so send it once more on a new connection.
                    self._drop(ident)
            return self._exchange(self._connect(ident), data)
        except BaseException:
            # A reply may still be on its way: never read this
            # connection again.
            self._drop(ident)
            raise

    def _exchange(self, sock: socket.socket, data: bytes) -> bytes:
        """Send one request line and read its reply line."""
        if sock.gettimeout() != self.timeout_s:
            sock.settimeout(self.timeout_s)
        chunks: list[bytes] = []
        try:
            try:
                sock.sendall(data)
            except (BrokenPipeError, ConnectionResetError):
                # The gateway may have answered before it closed, as it
                # does mid-way through a line over its limit: read on.
                pass
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
                if chunk.endswith(b"\n"):
                    return b"".join(chunks)
        except OSError as exc:
            closed = (BrokenPipeError, ConnectionResetError)
            if not chunks and isinstance(exc, closed):
                raise _ServerClosed(
                    "gateway closed the connection mid-request"
                ) from exc
            raise GatewayError(
                f"gateway at {self.socket_path!r} unreachable: {exc}"
            ) from exc
        if not chunks:
            raise _ServerClosed("gateway closed the connection mid-request")
        raise GatewayError("gateway closed the connection mid-reply")

    def _connect(self, ident: int) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.timeout_s)
            sock.connect(self.socket_path)
        except OSError as exc:
            sock.close()
            raise GatewayError(
                f"gateway at {self.socket_path!r} unreachable: {exc}"
            ) from exc
        with self._lock:
            self._sockets[ident] = sock
        return sock

    def _drop(self, ident: int) -> None:
        with self._lock:
            sock = self._sockets.pop(ident, None)
        if sock is not None:
            sock.close()

    def _adopt_after_fork(self) -> None:
        """In a forked child, forget the parent's connections.

        Closing the child's copies of their descriptors leaves the
        parent's connections open.  The lock is replaced because another
        thread of the parent may have held it at the fork.
        """
        if self._pid == os.getpid():
            return
        inherited = list(self._sockets.values())
        self._lock = threading.Lock()
        self._sockets = {}
        self._pid = os.getpid()
        for sock in inherited:
            sock.close()

    # -- HTTP -----------------------------------------------------------

    def _request_http(self, body: str) -> bytes:
        from http.client import HTTPConnection

        conn = HTTPConnection(self.host, self.port, timeout=self.timeout_s)
        try:
            conn.request(
                "POST", "/solve", body=body,
                headers={"Content-Type": "application/json"},
            )
            return conn.getresponse().read()
        except OSError as exc:
            raise GatewayError(
                f"gateway at {self.host}:{self.port} unreachable: {exc}"
            ) from exc
        finally:
            conn.close()
