"""The asyncio network front-end over a synchronous engine.

Architecture (DESIGN.md §14): one event loop owns all socket I/O; every
admitted statement executes on a bounded :class:`ThreadPoolExecutor`
(the engine is synchronous, and sessions are snapshot-isolated readers,
so worker threads run concurrently against one database).  The loop
never blocks on the engine, and the executor never touches a socket —
the classic half-async/half-sync split.

Request lifecycle::

    read frame ──► admission.admit() ──shed──► typed Overloaded frame
                        │admitted
                        ▼
               executor thread: pool.acquire ► execute ► pool.release
                                ► encode the first page (bytes)
                        │
                        ▼
               splice the request id on, write the frame

**A result is encoded where it was computed.**  ``_result_response``
runs on the executor thread and returns the reply as *encoded bytes*
(:class:`~repro.server.protocol.ResultPager`): the C JSON encoder walks
the engine's row tuples once, and ``_dispatch`` only appends the
request id and writes.  Rows that do not fit the first page stay in the
pager, which *is* the connection's cursor; a ``fetch`` encodes its page
on the executor too, when it is asked for.  Pages are cut by encoded
bytes (``PAGE_BYTES``) unless the request names a ``fetch_size``.  The
loop therefore does no per-row work for any reply, and per frame it
pays a ``wait_for(drain())`` task only when the kernel did not take the
whole frame at once.

Key properties the tests and chaos smoke pin down:

* **shed ≠ fail** — past the queue watermark, requests are rejected on
  the event loop in microseconds with a typed ``Overloaded`` carrying a
  ``retry_after`` hint; nothing queues unboundedly, admitted requests
  keep their latency.
* **per-request timeouts** — an ``execute`` may carry ``timeout_ms``;
  it overlays the governor limits for that statement only (and cannot
  *clear* server-side caps, see :meth:`GovernorLimits.merged`).
* **typed errors end to end** — every failure crosses the wire as its
  ReproError class name; the bundled client re-raises the same class.
* **graceful drain** — SIGTERM (or :meth:`drain`) stops accepting,
  sheds new work, lets in-flight statements finish (bounded by
  ``drain_timeout``), then closes connections and the pool.
* **deterministic chaos** — ``server.accept`` / ``server.read`` /
  ``server.write`` / ``server.session_evict`` fire inside the real
  code paths.  When a fault plan is installed they fire via the
  executor, because delay rules sleep synchronously and must not stall
  the event loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

from repro.engine.faults import FAULTS
from repro.engine.governor import GovernorLimits
from repro.engine.plan_cache import normalize_sql
from repro.errors import (
    ConfigError,
    ProtocolError,
    ReproError,
    SessionClosed,
    TransientError,
)
from repro.obs.metrics import METRICS
from repro.obs.statements import STATEMENTS
from repro.server.admission import AdmissionController
from repro.server.pool import PooledSession, SessionPool
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ResultPager,
    decode_body,
    encode_frame,
    error_payload,
    frame_length,
    seal_frame,
)
from repro.server.registry import CONNECTIONS, ConnectionInfo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database
    from repro.engine.result import Result

_ACCEPTED = METRICS.counter("server.connections_accepted")
_DROPPED = METRICS.counter("server.connections_dropped")
_REQUESTS = METRICS.counter("server.requests_total")
_ERRORS = METRICS.counter("server.request_errors")
_BYTES_IN = METRICS.counter("server.bytes_in")
_BYTES_OUT = METRICS.counter("server.bytes_out")
_WRITE_TIMEOUTS = METRICS.counter("server.write_timeouts")
_REQUEST_SECONDS = METRICS.histogram("server.request_seconds")

#: ops that run a statement and therefore go through admission + executor
_EXECUTOR_OPS = frozenset({"execute", "execute_many", "prepare"})


async def _fire(site: str) -> None:
    """Fire a fault site without stalling the event loop.

    Delay rules sleep synchronously inside ``FaultPlan.fire``, so when a
    plan is active the call is pushed to a worker thread; the common
    no-plan case stays a single attribute check.
    """
    if not FAULTS.active:
        return
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, FAULTS.fire, site)


class _Connection:
    """Per-connection protocol state owned by its handler task."""

    __slots__ = ("info", "reader", "writer", "prepared", "cursors", "ids")

    def __init__(
        self,
        info: ConnectionInfo,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.info = info
        self.reader = reader
        self.writer = writer
        #: stmt id -> (sql, parameter_count); prepared statements store
        #: the SQL text, not a session-bound handle — any pooled session
        #: re-executes it through the shared plan cache
        self.prepared: dict[int, tuple[str, int]] = {}
        #: cursor id -> the pager holding what is left of that result
        self.cursors: dict[int, ResultPager] = {}
        self.ids = itertools.count(1)


class ReproServer:
    """Fault-tolerant TCP front-end for one :class:`Database`."""

    def __init__(
        self,
        db: "Database",
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = 8,
        queue_watermark: int = 32,
        max_sessions: int = 16,
        per_client_cap: int = 4,
        session_ttl_seconds: float = 300.0,
        session_idle_seconds: float = 60.0,
        write_timeout: float = 10.0,
        drain_timeout: float = 10.0,
        sweep_interval: float = 1.0,
        max_cursors: int = 32,
    ) -> None:
        if write_timeout <= 0 or drain_timeout <= 0 or sweep_interval <= 0:
            raise ConfigError("server timeouts must be positive")
        self.db = db
        self.host = host
        self.port = port
        self.write_timeout = write_timeout
        self.drain_timeout = drain_timeout
        self.sweep_interval = sweep_interval
        self.max_cursors = max_cursors
        self.admission = AdmissionController(max_inflight, queue_watermark)
        self.pool = SessionPool(
            db,
            max_sessions=max_sessions,
            per_client_cap=per_client_cap,
            ttl_seconds=session_ttl_seconds,
            idle_seconds=session_idle_seconds,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="repro-server"
        )
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._sweeper: asyncio.Task | None = None
        self._handlers: set[asyncio.Task] = set()
        self._closed = asyncio.Event()
        self._draining = False

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; resolves ``self.port`` when 0."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._sweeper = self._loop.create_task(self._sweep_loop())

    def install_signal_handlers(self) -> None:
        """Drain on SIGTERM/SIGINT (only valid on a main-thread loop)."""
        loop = self._loop
        if loop is None:
            raise ConfigError("server not started")
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: loop.create_task(self.drain())
            )

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def drain(self) -> None:
        """Graceful shutdown: shed new work, finish in-flight, close.

        Idempotent; bounded by ``drain_timeout`` — statements still
        running at the deadline lose their connection (their sessions
        are closed by the pool), which is the documented contract for
        an unresponsive drain.
        """
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        self.admission.start_draining()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.drain_timeout
        while self.admission.inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        if self._sweeper is not None:
            self._sweeper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sweeper
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self.pool.close()
        self._executor.shutdown(wait=True, cancel_futures=True)
        self._closed.set()

    async def _sweep_loop(self) -> None:
        while True:
            await asyncio.sleep(self.sweep_interval)
            # the sweep fires the server.session_evict fault site and may
            # sleep under a delay rule: keep it off the event loop
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.pool.sweep)

    # -- connection handling ------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await _fire("server.accept")
        except Exception:
            _DROPPED.inc()
            writer.close()
            return
        _ACCEPTED.inc()
        peer = writer.get_extra_info("peername")
        info = CONNECTIONS.register(f"{peer[0]}:{peer[1]}" if peer else "?")
        conn = _Connection(info, reader, writer)
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            await self._serve_connection(conn)
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.CancelledError, TimeoutError):
            _DROPPED.inc()
        except ReproError:
            # protocol violation or injected fault: drop the transport
            _DROPPED.inc()
        finally:
            if task is not None:
                self._handlers.discard(task)
            conn.cursors.clear()
            conn.prepared.clear()
            CONNECTIONS.unregister(info)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_connection(self, conn: _Connection) -> None:
        hello = await self._read_frame(conn)
        if hello.get("op") != "hello":
            raise ProtocolError("first frame must be 'hello'")
        if hello.get("protocol") != PROTOCOL_VERSION:
            await self._write_frame(conn, encode_frame({
                "id": hello.get("id", 0),
                "error": error_payload(ProtocolError(
                    f"unsupported protocol {hello.get('protocol')!r}; "
                    f"server speaks {PROTOCOL_VERSION}"
                )),
            }))
            raise ProtocolError("protocol version mismatch")
        client = str(hello.get("client") or conn.info.client)
        conn.info.client = client
        conn.info.state = "idle"
        await self._write_frame(conn, encode_frame({
            "id": hello.get("id", 0),
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "server": "repro",
            "engine_version": self.db.version,
        }))
        while True:
            request = await self._read_frame(conn)
            if request.get("op") == "close":
                await self._write_frame(conn, encode_frame(
                    {"id": request.get("id", 0), "ok": True}
                ))
                conn.info.state = "closing"
                return
            await self._dispatch(conn, request)

    async def _read_frame(self, conn: _Connection) -> dict:
        prefix = await conn.reader.readexactly(4)
        body = await conn.reader.readexactly(frame_length(prefix))
        await _fire("server.read")
        conn.info.bytes_in += 4 + len(body)
        _BYTES_IN.inc(4 + len(body))
        return decode_body(body)

    async def _write_frame(self, conn: _Connection, data: bytes) -> None:
        await _fire("server.write")
        conn.writer.write(data)
        # write() hands the kernel what it takes at once; only a frame
        # it did not take whole needs the flow-control wait and its timer
        if conn.writer.transport.get_write_buffer_size():
            try:
                await asyncio.wait_for(
                    conn.writer.drain(), timeout=self.write_timeout
                )
            except (TimeoutError, asyncio.TimeoutError):
                # a client that stopped reading must not pin server
                # memory: drop the connection instead of buffering forever
                _WRITE_TIMEOUTS.inc()
                raise ProtocolError(
                    f"client stalled past the {self.write_timeout:g}s "
                    f"write timeout"
                ) from None
        conn.info.bytes_out += len(data)
        _BYTES_OUT.inc(len(data))

    # -- request dispatch ---------------------------------------------------

    async def _dispatch(self, conn: _Connection, request: dict) -> None:
        op = request.get("op")
        request_id = request.get("id", 0)
        started = time.perf_counter()
        conn.info.requests += 1
        conn.info.last_request_at = time.monotonic()
        _REQUESTS.inc()
        try:
            if op in _EXECUTOR_OPS:
                response = await self._run_admitted(conn, op, request)
            elif op == "fetch":
                # encoding a page is row-level work: off the loop, but
                # not through admission (shedding half a result helps
                # nobody, and a fetch holds no session)
                response = await asyncio.get_running_loop().run_in_executor(
                    self._executor, self._fetch, conn, request
                )
            elif op == "close_stmt":
                conn.prepared.pop(request.get("stmt"), None)
                response = {"ok": True}
            elif op == "close_cursor":
                conn.cursors.pop(request.get("cursor"), None)
                response = {"ok": True}
            elif op == "ping":
                response = {
                    "ok": True,
                    "draining": self._draining,
                    "pool": self.pool.report(),
                    "admission": self.admission.report(),
                }
            else:
                raise ProtocolError(f"unknown op {op!r}")
        except ProtocolError:
            raise  # desynchronized: the caller drops the connection
        except Exception as exc:  # noqa: BLE001 - serialize as typed error
            conn.info.errors += 1
            _ERRORS.inc()
            from repro.errors import Overloaded
            if isinstance(exc, Overloaded):
                conn.info.sheds += 1
            response = {"error": error_payload(exc)}
        # a result arrives from the executor as encoded bytes, every
        # other reply as a small dict
        if isinstance(response, dict):
            response["id"] = request_id
            frame = encode_frame(response)
        else:
            frame = seal_frame(response, request_id)
        conn.info.state = "idle"
        write_started = time.perf_counter()
        await self._write_frame(conn, frame)
        # draining a result to a slow client is wire time, not engine
        # time: attribute it to the statement's wait profile (the clock
        # starts after the frame is built — encoding is CPU, not wire)
        if op == "execute" and STATEMENTS.enabled:
            key = self._wait_key(conn, request)
            if key is not None:
                STATEMENTS.record_wait(
                    key, "network", time.perf_counter() - write_started
                )
        _REQUEST_SECONDS.observe(time.perf_counter() - started)

    @staticmethod
    def _wait_key(conn: _Connection, request: dict) -> str | None:
        """The statement key a request's network wait attributes to."""
        sql = request.get("sql")
        if not isinstance(sql, str):
            prepared = conn.prepared.get(request.get("stmt"))
            if prepared is None:
                return None
            sql = prepared[0]
        return normalize_sql(sql)

    async def _run_admitted(
        self, conn: _Connection, op: str, request: dict
    ) -> dict | bytes:
        """Admission-controlled execution on the thread pool."""
        self.admission.admit()  # raises Overloaded immediately on shed
        conn.info.state = "active"
        loop = asyncio.get_running_loop()
        try:
            future = loop.run_in_executor(
                self._executor, self._execute_request, conn, op, request
            )
        except RuntimeError:
            self.admission.abandoned()
            raise
        try:
            return await future
        finally:
            conn.info.state = "idle"
            # a failed statement's traceback holds this frame, and the
            # frames below it hold the whole result: do not close that
            # into a cycle (frame -> future -> exception -> traceback)
            # only the cyclic collector frees
            del future

    # -- executor-side request handlers (synchronous) -----------------------

    def _execute_request(
        self, conn: _Connection, op: str, request: dict
    ) -> dict | bytes:
        self.admission.started()
        try:
            # a pooled session can be chaos-killed between acquire and
            # execute; one internal retry on a fresh session makes that
            # window invisible, a second loss surfaces as transient
            for attempt in (0, 1):
                entry = self.pool.acquire(conn.info.client)
                try:
                    if conn.info.session_id is None:
                        conn.info.session_id = entry.session.session_id
                    return self._run_op(conn, op, request, entry)
                except SessionClosed as exc:
                    if attempt == 1:
                        raise TransientError(
                            f"pooled session evicted mid-statement: {exc}"
                        ) from exc
                finally:
                    self.pool.release(entry)
            raise AssertionError("unreachable")
        finally:
            self.admission.finished()

    def _run_op(
        self, conn: _Connection, op: str, request: dict,
        entry: PooledSession,
    ) -> dict | bytes:
        session = entry.session
        if op == "prepare":
            sql = self._sql_of(conn, request)
            prepared = session.prepare(sql)  # validates the SQL
            stmt_id = next(conn.ids)
            conn.prepared[stmt_id] = (sql, prepared.parameter_count)
            return {
                "ok": True,
                "stmt": stmt_id,
                "parameter_count": prepared.parameter_count,
            }
        sql = self._sql_of(conn, request)
        overlay = self._limits_overlay(session, request)
        original = session.limits
        if overlay is not None:
            session.set_limits(overlay)
        try:
            if op == "execute_many":
                rows = request.get("param_rows") or []
                if not isinstance(rows, list):
                    raise ProtocolError("param_rows must be a list of rows")
                results = session.execute_many(
                    sql, [tuple(row) for row in rows]
                )
                return {
                    "ok": True,
                    "executions": len(results),
                    "rows": [len(r.rows) for r in results],
                }
            params = tuple(request.get("params") or ())
            result = session.execute(sql, params)
            return self._result_response(conn, request, result)
        finally:
            if overlay is not None:
                session.set_limits(original)

    @staticmethod
    def _sql_of(conn: _Connection, request: dict) -> str:
        stmt_id = request.get("stmt")
        if stmt_id is not None:
            prepared = conn.prepared.get(stmt_id)
            if prepared is None:
                raise ProtocolError(f"unknown prepared statement {stmt_id}")
            return prepared[0]
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("request carries neither 'sql' nor 'stmt'")
        return sql

    def _limits_overlay(
        self, session, request: dict
    ) -> GovernorLimits | None:
        timeout_ms = request.get("timeout_ms")
        if timeout_ms is None:
            return None
        if not isinstance(timeout_ms, (int, float)) or timeout_ms <= 0:
            raise ProtocolError(
                f"timeout_ms must be a positive number, got {timeout_ms!r}"
            )
        base = session.limits or self.db.governor.limits
        return base.merged(statement_timeout_seconds=timeout_ms / 1000.0)

    @staticmethod
    def _fetch_size_of(request: dict) -> int | None:
        """A request's explicit page size in rows; None cuts by bytes."""
        fetch_size = request.get("fetch_size")
        if fetch_size is not None and (
            not isinstance(fetch_size, int) or fetch_size <= 0
        ):
            raise ProtocolError(
                f"fetch_size must be a positive integer, got {fetch_size!r}"
            )
        return fetch_size

    def _result_response(
        self, conn: _Connection, request: dict, result: "Result"
    ) -> bytes:
        """The execute reply, encoded; what is left becomes a cursor."""
        pager = ResultPager(result.columns, result.rows)
        page = pager.next_page(self._fetch_size_of(request))
        if pager.exhausted:
            return pager.body(page, row_count=len(result.rows))
        if len(conn.cursors) >= self.max_cursors:
            raise ProtocolError(
                f"connection exceeds {self.max_cursors} open cursors"
            )
        cursor_id = next(conn.ids)
        conn.cursors[cursor_id] = pager
        return pager.body(
            page, row_count=len(result.rows), cursor=cursor_id, more=True
        )

    def _fetch(self, conn: _Connection, request: dict) -> bytes:
        """The next page of a cursor, encoded (executor thread)."""
        cursor_id = request.get("cursor")
        pager = conn.cursors.get(cursor_id)
        if pager is None:
            raise ProtocolError(f"unknown cursor {cursor_id!r}")
        fetch_size = self._fetch_size_of(request)
        try:
            page = pager.next_page(fetch_size)
        except Exception:
            # a row that cannot be sent ends the result: free the cursor
            # (pop, not del — a dropped connection clears them first)
            conn.cursors.pop(cursor_id, None)
            raise
        if pager.exhausted:
            conn.cursors.pop(cursor_id, None)
            return pager.body(page, more=False)
        return pager.body(page, cursor=cursor_id, more=True)


# -- thread-hosted server (CLI, tests, benchmarks) --------------------------


class ServerHandle:
    """A running server on a background event-loop thread."""

    def __init__(
        self,
        server: ReproServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        self._stopped = False

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> tuple[str, int]:
        return self.server.host, self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        """Drain gracefully and join the server thread (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(), self._loop
        )
        future.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_server_thread(db: "Database", **config) -> ServerHandle:
    """Start a :class:`ReproServer` on its own event-loop thread.

    Returns once the socket is bound (``handle.port`` is resolved).
    The CLI's ``--serve`` mode, the load benchmark, and the smoke
    scripts all host the server this way.
    """
    server = ReproServer(db, **config)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            failure.append(exc)
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(
        target=run, name="repro-server-loop", daemon=True
    )
    thread.start()
    started.wait()
    if failure:
        raise failure[0]
    return ServerHandle(server, loop, thread)


__all__ = ["ReproServer", "ServerHandle", "start_server_thread"]
