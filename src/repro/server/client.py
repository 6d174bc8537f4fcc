"""The bundled client: blocking socket API with reconnect and retry.

:class:`ReproClient` is the reference implementation of the wire
protocol from the client side and the workhorse of the load benchmark
and smoke scripts.  Its retry layer implements the standard resilient
pattern against a shedding server:

* :class:`~repro.errors.Overloaded` — honor the server's
  ``retry_after`` hint, then fall back to jittered exponential backoff;
* :class:`~repro.errors.ConnectionLost` (and raw socket errors) —
  reconnect, re-handshake, re-prepare cached statements, retry;
* any other :class:`~repro.errors.TransientError` (injected faults)
  — plain jittered backoff;
* :class:`~repro.errors.FatalError` (syntax errors, timeouts, caps) —
  surface immediately; retrying would fail identically.

A result arrives in pages: ``execute`` loops on ``more`` and fetches the
rest, so where the server cuts pages is invisible here — by encoded
bytes (``protocol.PAGE_BYTES``) unless ``fetch_size`` names a row count,
which then also rides on every ``fetch``.  The decoded first page *is*
the result list and later pages extend it in place.  A ``fetch`` never
retries (its cursor dies with the connection), and a row no frame can
carry surfaces as :class:`~repro.errors.ResourceExceeded` — fatal, so
not retried — on a connection that stays usable.

The loop itself is the shared :class:`~repro.retry.RetryPolicy`
(re-exported here); the client only supplies the attempt — reconnect
and re-prepare if the socket is gone, then one round trip.  Retries are
on by default because the protocol is read-oriented; callers issuing
writes that must not be duplicated pass ``retry=False`` per call.
"""

from __future__ import annotations

import socket
from asyncio import IncompleteReadError

from repro.errors import ConfigError, ConnectionLost, ProtocolError
from repro.retry import RetryPolicy
from repro.server.protocol import (
    PROTOCOL_VERSION,
    decode_body,
    encode_frame,
    frame_length,
    raise_wire_error,
)


class ReproClient:
    """Blocking wire-protocol client with reconnect + retry."""

    def __init__(
        self,
        host: str,
        port: int,
        client_name: str = "client",
        retry: RetryPolicy | None = None,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.client_name = client_name
        self.retry = retry or RetryPolicy()
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self._sock: socket.socket | None = None
        self._ids = 0
        #: local stmt id -> (server stmt id, sql); re-prepared by every
        #: connect(), so prepared handles survive connection loss
        self._prepared: dict[int, tuple[int, str]] = {}
        self.reconnects = 0
        self.retries = 0

    # -- connection management ---------------------------------------------

    def connect(self) -> None:
        """Open the socket, shake hands, re-prepare cached statements.

        A no-op while connected, so "connected" always implies the
        server ids in ``_prepared`` belong to this connection.
        """
        if self._sock is not None:
            return
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
        except OSError as exc:
            raise ConnectionLost(
                f"cannot reach {self.host}:{self.port}: {exc}"
            ) from exc
        sock.settimeout(self.request_timeout)
        self._sock = sock
        try:
            reply = self._roundtrip({
                "op": "hello",
                "protocol": PROTOCOL_VERSION,
                "client": self.client_name,
            })
            if not reply.get("ok"):
                raise ProtocolError("handshake rejected")
            # a new connection hands out new statement ids
            for local_id, (_, sql) in list(self._prepared.items()):
                reply = self._roundtrip({"op": "prepare", "sql": sql})
                if reply.get("error"):
                    raise_wire_error(reply["error"])
                self._prepared[local_id] = (reply["stmt"], sql)
        except Exception:
            self.close()
            raise

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ReproClient":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            if self._sock is not None:
                self._roundtrip({"op": "close"})
        except Exception:
            pass
        self.close()

    # -- wire I/O -----------------------------------------------------------

    def _roundtrip(self, message: dict) -> dict:
        sock = self._sock
        if sock is None:
            raise ConnectionLost("client is not connected")
        self._ids += 1
        message = {**message, "id": self._ids}
        try:
            sock.sendall(encode_frame(message))
            reply = decode_body(self._recv_frame(sock))
        except (OSError, EOFError) as exc:
            self.close()
            raise ConnectionLost(f"connection dropped: {exc}") from exc
        if reply.get("id") != self._ids:
            # a desynchronized stream cannot be trusted for any further
            # frame: poison the connection
            self.close()
            raise ProtocolError(
                f"response id {reply.get('id')!r} does not match "
                f"request id {self._ids}"
            )
        return reply

    @staticmethod
    def _recv_frame(sock: socket.socket) -> bytes:
        prefix = ReproClient._recv_exact(sock, 4)
        return ReproClient._recv_exact(sock, frame_length(prefix))

    @staticmethod
    def _recv_exact(sock: socket.socket, count: int) -> bytes:
        chunks = []
        while count:
            chunk = sock.recv(count)
            if not chunk:
                raise EOFError("peer closed the connection")
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    # -- retrying request layer --------------------------------------------

    def _request(
        self, message: dict, retry: bool = True, stmt: int | None = None
    ) -> dict:
        """One request under the retry policy (``stmt``: local id)."""

        def attempt() -> dict:
            if self._sock is None:
                try:
                    self.connect()
                except ConnectionLost:
                    # a handshake lost to the same outage does not
                    # spend an attempt: one more try before the request
                    self.connect()
            if stmt is not None:
                # resolved per attempt: a reconnect re-prepares the
                # statement under a new server id
                message["stmt"] = self._prepared[stmt][0]
            reply = self._roundtrip(message)
            error = reply.get("error")
            if error:
                raise_wire_error(error)
            return reply

        if not retry:
            return attempt()
        return self.retry.run(attempt, self._note_retry)

    def _note_retry(self, attempt: int, exc: BaseException) -> None:
        self.retries += 1
        if isinstance(exc, ConnectionLost):
            self.reconnects += 1  # the next attempt opens a new socket

    # -- public API ---------------------------------------------------------

    def execute(
        self,
        sql: str | None = None,
        params: tuple | list = (),
        *,
        stmt: int | None = None,
        timeout_ms: float | None = None,
        fetch_size: int | None = None,
        retry: bool = True,
    ) -> "ClientResult":
        """Run one statement; transparently page the full result in."""
        message: dict = {"op": "execute", "params": list(params)}
        if stmt is not None:
            if stmt not in self._prepared:
                raise ConfigError(f"unknown prepared statement {stmt!r}")
        elif sql is not None:
            message["sql"] = sql
        else:
            raise ConfigError("execute needs sql or stmt")
        if timeout_ms is not None:
            message["timeout_ms"] = timeout_ms
        if fetch_size is not None:
            message["fetch_size"] = fetch_size
        reply = self._request(message, retry=retry, stmt=stmt)
        # the decoded first page is the result list: later pages extend
        # it in place, nothing is copied
        rows = reply.get("rows") or []
        while reply.get("more"):
            fetch: dict = {"op": "fetch", "cursor": reply["cursor"]}
            if fetch_size is not None:
                fetch["fetch_size"] = fetch_size
            # a fetch is not idempotent across a reconnect (the cursor
            # dies with the connection), so it never retries
            reply = self._request(fetch, retry=False)
            rows.extend(reply.get("rows") or [])
        return ClientResult(reply.get("columns") or [], rows)

    def execute_many(
        self,
        sql: str,
        param_rows: list[tuple] | list[list],
        retry: bool = False,
    ) -> int:
        """Prepare once server-side, execute per bind row; returns the
        execution count.  No retry by default: batches usually write."""
        reply = self._request(
            {
                "op": "execute_many",
                "sql": sql,
                "param_rows": [list(row) for row in param_rows],
            },
            retry=retry,
        )
        return int(reply.get("executions", 0))

    def prepare(self, sql: str) -> int:
        """A client-local prepared-statement id (survives reconnects)."""
        reply = self._request({"op": "prepare", "sql": sql})
        local_id = len(self._prepared) + 1
        self._prepared[local_id] = (reply["stmt"], sql)
        return local_id

    def ping(self) -> dict:
        return self._request({"op": "ping"})


class AsyncReproClient:
    """Asyncio counterpart of :class:`ReproClient` (single event loop).

    Built for load generation: hundreds of these run closed-loop inside
    one event loop (the benchmark and smoke scripts), where a thread per
    :class:`ReproClient` would measure the GIL instead of the server.
    Retry policy is the caller's job — typed errors surface directly.
    """

    def __init__(
        self, host: str, port: int, client_name: str = "async"
    ) -> None:
        self.host = host
        self.port = port
        self.client_name = client_name
        self._reader = None
        self._writer = None
        self._ids = 0

    async def connect(self) -> None:
        import asyncio

        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        except OSError as exc:
            raise ConnectionLost(
                f"cannot reach {self.host}:{self.port}: {exc}"
            ) from exc
        reply = await self._roundtrip({
            "op": "hello",
            "protocol": PROTOCOL_VERSION,
            "client": self.client_name,
        })
        if not reply.get("ok"):
            await self.close()
            raise ProtocolError("handshake rejected")

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 - already torn down
                pass

    async def _roundtrip(self, message: dict) -> dict:
        if self._writer is None:
            raise ConnectionLost("client is not connected")
        self._ids += 1
        message = {**message, "id": self._ids}
        try:
            self._writer.write(encode_frame(message))
            await self._writer.drain()
            prefix = await self._reader.readexactly(4)
            body = await self._reader.readexactly(frame_length(prefix))
        except (OSError, EOFError, IncompleteReadError) as exc:
            await self.close()
            raise ConnectionLost(f"connection dropped: {exc}") from exc
        reply = decode_body(body)
        if reply.get("id") != self._ids:
            await self.close()
            raise ProtocolError(
                f"response id {reply.get('id')!r} does not match "
                f"request id {self._ids}"
            )
        return reply

    async def execute(
        self,
        sql: str,
        params: tuple | list = (),
        *,
        timeout_ms: float | None = None,
        fetch_size: int | None = None,
    ) -> "ClientResult":
        message: dict = {"op": "execute", "sql": sql,
                         "params": list(params)}
        if timeout_ms is not None:
            message["timeout_ms"] = timeout_ms
        if fetch_size is not None:
            message["fetch_size"] = fetch_size
        reply = await self._roundtrip(message)
        error = reply.get("error")
        if error:
            raise_wire_error(error)
        rows = reply.get("rows") or []
        while reply.get("more"):
            fetch: dict = {"op": "fetch", "cursor": reply["cursor"]}
            if fetch_size is not None:
                fetch["fetch_size"] = fetch_size
            reply = await self._roundtrip(fetch)
            if reply.get("error"):
                raise_wire_error(reply["error"])
            rows.extend(reply.get("rows") or [])
        return ClientResult(reply.get("columns") or [], rows)

    async def ping(self) -> dict:
        reply = await self._roundtrip({"op": "ping"})
        if reply.get("error"):
            raise_wire_error(reply["error"])
        return reply


class ClientResult:
    """A fully fetched result set (columns + JSON-decoded rows)."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: list[str], rows: list[list[object]]) -> None:
        self.columns = columns
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"ClientResult({self.columns!r}, {len(self.rows)} row(s))"


__all__ = [
    "AsyncReproClient",
    "ClientResult",
    "ReproClient",
    "RetryPolicy",
]
