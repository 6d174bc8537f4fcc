"""CI server smoke: load, connection chaos, kills, slow and big results, drain.

Six stages against a live :class:`~repro.server.ReproServer`, each
printing one ``ok`` line (the :mod:`scripts.chaos_smoke` convention):

1. **load** — 50 concurrent closed-loop clients (100 without
   ``REPRO_SERVER_QUICK``); every request must succeed and afterwards
   ``sys_connections`` must be empty and no pooled session may linger.
2. **connection chaos** — probabilistic ``server.read`` +
   ``server.write`` faults drop connections mid-request and
   mid-response; retrying clients must recover every query with only
   typed transient errors, and nothing may leak.
3. **session kill** — a pooled session is chaos-killed under a live
   request stream (the ``server.session_evict`` fault redirects a pool
   sweep into killing an in-use session); queries keep succeeding.
4. **slow client** — a client stops reading mid-result; the server's
   write timeout must drop the connection instead of buffering forever,
   and the accept loop must keep serving others.
5. **big result** — 600 rows x 40 KB, whose first 512 rows do not fit one
   16 MiB frame, arrive whole across byte-cut pages with no reconnect; a
   single row no frame can carry answers with a typed
   ``ResourceExceeded`` on a connection that stays usable; afterwards no
   pooled session is in use and no cursor is alive.
6. **drain** — a graceful stop under load: in-flight requests finish,
   new connects are refused, zero sessions and connections remain.

Usage::

    PYTHONPATH=src python scripts/server_smoke.py

Exits nonzero (via assertion) on any violation.
"""

from __future__ import annotations

import asyncio
import os
import socket
import sys
import time
import weakref
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro.server.server as server_module  # noqa: E402
from repro.engine.database import Database  # noqa: E402
from repro.engine.faults import FAULTS, FaultPlan  # noqa: E402
from repro.errors import (  # noqa: E402
    ConnectionLost,
    ReproError,
    ResourceExceeded,
    TransientError,
)
from repro.obs.metrics import METRICS  # noqa: E402
from repro.server import (  # noqa: E402
    AsyncReproClient,
    ReproClient,
    start_server_thread,
)
from repro.server.protocol import (  # noqa: E402
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ResultPager,
    encode_frame,
)
from repro.server.registry import CONNECTIONS  # noqa: E402
from repro.xadt import register_xadt_functions  # noqa: E402

CLIENTS = 50 if os.environ.get("REPRO_SERVER_QUICK") else 100
REQUESTS = 4
ROWS = 100
BIG_ROWS, BIG_PAD = 600, 40_000

#: every pager (= cursor) the server makes, by weak reference: what is
#: still in here after a stage is a cursor something failed to let go
LIVE_PAGERS: "weakref.WeakSet[ResultPager]" = weakref.WeakSet()


class TrackedPager(ResultPager):
    def __init__(self, columns, rows) -> None:
        super().__init__(columns, rows)
        LIVE_PAGERS.add(self)


def build_database() -> Database:
    db = Database("server-smoke")
    register_xadt_functions(db)
    db.execute("CREATE TABLE docs (id INT, body VARCHAR(40))")
    db.execute_many(
        "INSERT INTO docs VALUES (?, ?)",
        [(i, f"document-{i:05d}") for i in range(ROWS)],
    )
    # a wide table for the slow-client stage: the ~10 MB response must
    # overflow the kernel socket buffers so the write actually stalls
    db.execute("CREATE TABLE wide (id INT, pad VARCHAR(500))")
    db.execute_many(
        "INSERT INTO wide VALUES (?, ?)",
        [(i, "x" * 500) for i in range(20000)],
    )
    # the big-result stage: 512 of these rows are 20 MB, more than one
    # frame; and one row that is itself more than one frame
    db.execute(f"CREATE TABLE big (id INT, pad VARCHAR({BIG_PAD}))")
    db.execute_many(
        "INSERT INTO big VALUES (?, ?)",
        [(i, f"{i:04d}".ljust(BIG_PAD, "y")) for i in range(BIG_ROWS)],
    )
    db.execute(f"CREATE TABLE giant (pad VARCHAR({MAX_FRAME_BYTES + 1}))")
    db.execute("INSERT INTO giant VALUES (?)", ("z" * (MAX_FRAME_BYTES + 1),))
    return db


def assert_leak_free(db: Database, stage: str) -> None:
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if len(CONNECTIONS) == 0:
            break
        time.sleep(0.02)
    rows = db.execute("SELECT COUNT(*) FROM sys_connections").rows
    assert rows[0][0] == 0, f"{stage}: sys_connections leaked {rows}"


async def run_clients(host: str, port: int, clients: int,
                      retry_attempts: int = 10) -> tuple[int, int]:
    """(successes, transient retries) across a closed-loop client fleet."""
    retried = 0
    ok = 0

    async def one(n: int) -> None:
        nonlocal ok, retried
        client = AsyncReproClient(host, port, client_name=f"smoke{n}")
        connected = False
        try:
            for i in range(REQUESTS):
                for attempt in range(retry_attempts):
                    try:
                        if not connected:
                            await client.connect()
                            connected = True
                        result = await client.execute(
                            "SELECT body FROM docs WHERE id = ?",
                            ((n + i) % ROWS,),
                        )
                        assert len(result.rows) == 1
                        ok += 1
                        break
                    except ConnectionLost:
                        connected = False
                        retried += 1
                        await asyncio.sleep(0.01 * (attempt + 1))
                    except TransientError as exc:
                        retried += 1
                        hint = getattr(exc, "retry_after", 0.01) or 0.01
                        await asyncio.sleep(min(hint, 0.2))
                else:
                    raise AssertionError(
                        f"client {n} exhausted {retry_attempts} retries"
                    )
        finally:
            await client.close()

    await asyncio.gather(*[one(n) for n in range(clients)])
    return ok, retried


def stage_load(db: Database, handle) -> None:
    ok, _ = asyncio.run(run_clients(handle.host, handle.port, CLIENTS))
    assert ok == CLIENTS * REQUESTS, f"load: {ok} < {CLIENTS * REQUESTS}"
    assert_leak_free(db, "load")
    print(
        f"ok server.load      {CLIENTS} clients x {REQUESTS} requests, "
        f"all succeeded, zero leaks"
    )


def stage_connection_chaos(db: Database, handle) -> None:
    FAULTS.install(
        FaultPlan(seed=23)
        .raise_at("server.read", probability=0.15)
        .raise_at("server.write", probability=0.1)
    )
    try:
        ok, retried = asyncio.run(
            run_clients(handle.host, handle.port, max(10, CLIENTS // 5))
        )
    finally:
        FAULTS.clear()
    wanted = max(10, CLIENTS // 5) * REQUESTS
    assert ok == wanted, f"chaos: {ok} < {wanted}"
    assert retried > 0, "chaos: the fault plan never dropped anything"
    assert_leak_free(db, "chaos")
    print(
        f"ok server.read/write dropped connections {retried} time(s), "
        f"all {ok} queries recovered, zero leaks"
    )


def stage_session_kill(db: Database, handle) -> None:
    killed = METRICS.counter("server.sessions_killed").value
    # every sweep kills an in-use session; queries are slowed so the
    # 0.05s sweep reliably finds one in flight
    FAULTS.install(
        FaultPlan(seed=5)
        .delay_at("io.charge", 0.02)
        .raise_at("server.session_evict", probability=1.0)
    )
    try:
        ok, _ = asyncio.run(run_clients(handle.host, handle.port, 16))
    finally:
        FAULTS.clear()
    assert ok == 16 * REQUESTS, f"session-kill: {ok} incomplete"
    newly_killed = METRICS.counter("server.sessions_killed").value - killed
    assert newly_killed > 0, "session-kill: no session was ever killed"
    assert_leak_free(db, "session-kill")
    print(
        f"ok server.session_evict killed {newly_killed} in-use "
        f"session(s) mid-query, all queries recovered, zero leaks"
    )


def stage_slow_client(db: Database, handle) -> None:
    timeouts = METRICS.counter("server.write_timeouts").value
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    # a tiny receive window keeps the kernel from absorbing the result
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(5)
    sock.connect((handle.host, handle.port))
    sock.sendall(encode_frame(
        {"op": "hello", "protocol": PROTOCOL_VERSION,
         "client": "stuck", "id": 1}
    ))
    sock.recv(4096)  # hello reply
    # ask for a multi-megabyte result in one frame, then stop reading
    sock.sendall(encode_frame(
        {"op": "execute", "sql": "SELECT id, pad FROM wide",
         "fetch_size": 20000, "id": 2}
    ))
    deadline = time.monotonic() + 15.0
    while time.monotonic() < deadline:
        if METRICS.counter("server.write_timeouts").value > timeouts:
            break
        time.sleep(0.05)
    assert METRICS.counter("server.write_timeouts").value > timeouts, (
        "slow-client: the write timeout never fired"
    )
    sock.close()
    # the server must still serve everyone else
    with ReproClient(handle.host, handle.port, client_name="after") as c:
        assert c.execute("SELECT COUNT(*) FROM docs").rows == [[ROWS]]
    assert_leak_free(db, "slow-client")
    print(
        "ok server.write_timeout stalled client dropped, "
        "server kept serving, zero leaks"
    )


def stage_big_result(db: Database, handle) -> None:
    big_sql = "SELECT id, pad FROM big ORDER BY id"

    def check(rows: list) -> None:
        assert [row[0] for row in rows] == list(range(BIG_ROWS)), (
            "big-result: rows lost or reordered"
        )
        assert all(
            len(row[1]) == BIG_PAD and row[1].startswith(f"{row[0]:04d}")
            for row in rows
        ), "big-result: a row was damaged"

    with ReproClient(handle.host, handle.port, client_name="big") as client:
        check(client.execute(big_sql).rows)
        try:
            client.execute("SELECT pad FROM giant")
            raise AssertionError("big-result: the oversize row was sent")
        except ResourceExceeded:
            pass
        assert client.execute("SELECT COUNT(*) FROM docs").rows == [[ROWS]]
        assert (client.reconnects, client.retries) == (0, 0), (
            f"big-result: {client.reconnects} reconnect(s), "
            f"{client.retries} retry(ies)"
        )

    async def over_asyncio() -> list:
        client = AsyncReproClient(handle.host, handle.port, "big-async")
        await client.connect()
        try:
            rows = (await client.execute(big_sql)).rows
            try:
                await client.execute("SELECT pad FROM giant")
                raise AssertionError("big-result: the oversize row was sent")
            except ResourceExceeded:
                pass
            await client.ping()  # same connection, still in step
            return rows
        finally:
            await client.close()

    check(asyncio.run(over_asyncio()))
    assert_leak_free(db, "big-result")
    assert handle.server.pool.report()["in_use"] == 0, (
        "big-result: a pooled session is still in use"
    )
    assert len(LIVE_PAGERS) == 0, (
        f"big-result: {len(LIVE_PAGERS)} cursor(s) still alive"
    )
    print(
        f"ok server.big_result {BIG_ROWS} x {BIG_PAD // 1000} KB rows paged "
        f"by bytes, oversize row typed, zero reconnects, zero leaks"
    )


def stage_drain(db: Database, handle) -> None:
    with ReproClient(handle.host, handle.port, client_name="last") as c:
        assert len(c.execute("SELECT id FROM docs").rows) == ROWS
    handle.stop()
    try:
        probe = ReproClient(handle.host, handle.port, client_name="late")
        probe.connect()
        raise AssertionError("drain: server still accepting after stop")
    except ReproError:
        pass
    assert all(s.name != "pool" for s in db.sessions()), (
        "drain: pooled sessions leaked past stop"
    )
    assert len(CONNECTIONS) == 0
    print("ok server.drain     graceful stop: drained, refused, leak-free")


def main() -> None:
    db = build_database()
    server_module.ResultPager = TrackedPager
    handle = start_server_thread(
        db,
        max_inflight=8,
        queue_watermark=max(64, CLIENTS),
        max_sessions=16,
        per_client_cap=2,
        write_timeout=2.0,
        sweep_interval=0.05,
    )
    stages = 0
    try:
        stage_load(db, handle)
        stages += 1
        stage_connection_chaos(db, handle)
        stages += 1
        stage_session_kill(db, handle)
        stages += 1
        stage_slow_client(db, handle)
        stages += 1
        stage_big_result(db, handle)
        stages += 1
    finally:
        FAULTS.clear()
    stage_drain(db, handle)
    stages += 1
    print(f"server smoke: {stages}/6 stages passed")


if __name__ == "__main__":
    main()
