"""Network front-end under load: hundreds of clients, clean overload.

Two acceptance gates for the fault-tolerant server (DESIGN.md §14):

* **sustained concurrency** — ``CLIENTS`` closed-loop clients (one
  asyncio event loop, so the harness measures the server rather than
  client-side thread scheduling) each run ``REQUESTS`` point queries.
  Every request must succeed (retrying typed transient errors with the
  server's ``retry_after`` hint), p99 latency must stay bounded, and no
  session or connection may leak.
* **clean overload** — a deliberately tiny server (1 executor thread,
  watermark 0) behind deterministically slow queries (an ``io.charge``
  delay fault) is hit with ~2x more offered load than it can carry.
  Every rejection must be the typed ``Overloaded`` with a positive
  ``retry_after`` — never a hang, a desync, or an untyped error — and
  afterwards the pool must drain back to zero in-use sessions.

Set ``REPRO_SERVER_QUICK=1`` for the CI-sized run (50 clients).
"""

from __future__ import annotations

import asyncio
import os
import time

import pytest
from conftest import print_report

from repro.engine.database import Database
from repro.engine.faults import FAULTS, FaultPlan
from repro.errors import Overloaded, TransientError
from repro.server import AsyncReproClient, start_server_thread
from repro.server.registry import CONNECTIONS
from repro.xadt import register_xadt_functions

QUICK = bool(os.environ.get("REPRO_SERVER_QUICK"))
CLIENTS = 50 if QUICK else 200
REQUESTS = 3 if QUICK else 5
MAX_P99_SECONDS = 5.0
ROWS = 200


def _database() -> Database:
    db = Database("served-bench")
    register_xadt_functions(db)
    db.execute("CREATE TABLE docs (id INT, body VARCHAR(40))")
    rows = [(i, f"document-{i:05d}") for i in range(ROWS)]
    db.execute_many("INSERT INTO docs VALUES (?, ?)", rows)
    return db


async def _closed_loop_client(
    n: int, host: str, port: int, latencies: list[float],
    failures: list[BaseException],
) -> None:
    client = AsyncReproClient(host, port, client_name=f"load{n}")
    try:
        await client.connect()
        for i in range(REQUESTS):
            started = time.perf_counter()
            for attempt in range(8):
                try:
                    result = await client.execute(
                        "SELECT body FROM docs WHERE id = ?",
                        ((n + i) % ROWS,),
                    )
                    assert len(result.rows) == 1
                    break
                except TransientError as exc:
                    hint = getattr(exc, "retry_after", None) or 0.01
                    await asyncio.sleep(min(hint, 0.2))
                    if client._writer is None:
                        await client.connect()
            else:
                raise TransientError(f"client {n} exhausted retries")
            latencies.append(time.perf_counter() - started)
    except BaseException as exc:  # noqa: BLE001 - collected for the gate
        failures.append(exc)
    finally:
        await client.close()


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def test_sustained_concurrent_clients(benchmark):
    """The headline gate: CLIENTS concurrent clients, bounded p99."""
    db = _database()
    handle = start_server_thread(
        db,
        max_inflight=8,
        queue_watermark=max(64, CLIENTS),
    )
    latencies: list[float] = []
    failures: list[BaseException] = []

    async def drive():
        await asyncio.gather(*[
            _closed_loop_client(
                n, handle.host, handle.port, latencies, failures
            )
            for n in range(CLIENTS)
        ])

    started = time.perf_counter()
    asyncio.run(drive())
    wall = time.perf_counter() - started
    pool_report = handle.server.pool.report()
    admission = handle.server.admission.report()
    handle.stop()

    total = CLIENTS * REQUESTS
    p50 = _quantile(latencies, 0.50)
    p99 = _quantile(latencies, 0.99)
    print_report(
        f"Server load: {CLIENTS} concurrent clients x {REQUESTS} "
        f"requests",
        f"completed : {len(latencies)}/{total} requests in {wall:.2f} s "
        f"({total / wall:.0f} q/s)\n"
        f"latency   : p50 {p50 * 1000:.2f} ms, p99 {p99 * 1000:.2f} ms\n"
        f"admission : {admission['admitted']} admitted, "
        f"{admission['shed']} shed\n"
        f"pool      : {pool_report['size']} session(s), "
        f"{pool_report['in_use']} in use at teardown",
    )
    assert failures == [], f"client failures: {failures[:3]}"
    assert len(latencies) == total
    assert p99 < MAX_P99_SECONDS
    # leak-free: every session went back to the pool, every connection
    # deregistered
    assert pool_report["in_use"] == 0
    assert len(CONNECTIONS) == 0
    assert all(s.name != "pool" for s in db.sessions())
    benchmark(lambda: None)


def test_overload_sheds_cleanly(benchmark):
    """2x overload: every rejection typed, nothing hangs, nothing leaks."""
    db = _database()
    handle = start_server_thread(
        db,
        max_inflight=1,
        queue_watermark=0,
    )
    # each query deterministically holds the one executor thread
    FAULTS.install(FaultPlan().delay_at("io.charge", 0.005))
    clients = max(8, CLIENTS // 10)
    outcomes = {"ok": 0, "shed": 0}
    bad: list[BaseException] = []

    async def offered_load(n: int) -> None:
        client = AsyncReproClient(handle.host, handle.port,
                                  client_name=f"over{n}")
        try:
            await client.connect()
            for i in range(REQUESTS):
                try:
                    await client.execute(
                        "SELECT COUNT(*) FROM docs", fetch_size=8
                    )
                    outcomes["ok"] += 1
                except Overloaded as exc:
                    assert exc.retry_after > 0
                    outcomes["shed"] += 1
                except BaseException as exc:  # noqa: BLE001
                    bad.append(exc)
        finally:
            await client.close()

    async def drive():
        # a hard deadline proves "no hangs": the whole overload run
        # must finish, shed requests return in microseconds
        await asyncio.wait_for(
            asyncio.gather(*[offered_load(n) for n in range(clients)]),
            timeout=120,
        )

    asyncio.run(drive())
    FAULTS.clear()
    pool_report = handle.server.pool.report()
    handle.stop()

    print_report(
        f"Overload: {clients} clients on a 1-thread server",
        f"ok {outcomes['ok']}, shed {outcomes['shed']} "
        f"(every rejection typed Overloaded)\n"
        f"pool in use at teardown: {pool_report['in_use']}",
    )
    assert bad == [], f"untyped failures under overload: {bad[:3]}"
    assert outcomes["shed"] > 0        # the overload actually bit
    assert outcomes["ok"] > 0          # admitted work still completed
    assert pool_report["in_use"] == 0  # sessions all returned
    assert len(CONNECTIONS) == 0
    benchmark(lambda: None)


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.clear()
    yield
    FAULTS.clear()
