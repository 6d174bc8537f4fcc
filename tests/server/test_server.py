"""End-to-end network front-end: wire ops, typed errors, chaos, drain."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.engine.database import Database
from repro.engine.faults import FAULTS, FaultPlan
from repro.errors import (
    CatalogError,
    ConnectionLost,
    Overloaded,
    SqlSyntaxError,
    StatementTimeout,
)
from repro.server import ReproClient, start_server_thread
from repro.server.protocol import (
    PROTOCOL_VERSION,
    decode_body,
    encode_frame,
    frame_length,
)
from repro.server.registry import CONNECTIONS
from repro.xadt import register_xadt_functions


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.clear()
    yield
    FAULTS.clear()


@pytest.fixture(scope="module")
def served():
    db = Database("served")
    register_xadt_functions(db)
    db.execute("CREATE TABLE t (id INT, name VARCHAR(20))")
    for i in range(40):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, f"row{i}"))
    handle = start_server_thread(db, max_inflight=4, queue_watermark=8)
    yield db, handle
    handle.stop()


def client_for(handle, name="test") -> ReproClient:
    return ReproClient(handle.host, handle.port, client_name=name)


class TestWireOps:
    def test_execute_returns_rows_and_columns(self, served):
        _, handle = served
        with client_for(handle) as client:
            result = client.execute(
                "SELECT id, name FROM t WHERE id < ? ORDER BY id", (2,)
            )
            assert result.columns == ["id", "name"]
            assert result.rows == [[0, "row0"], [1, "row1"]]

    def test_prepared_statement_roundtrip(self, served):
        _, handle = served
        with client_for(handle) as client:
            stmt = client.prepare("SELECT name FROM t WHERE id = ?")
            assert client.execute(stmt=stmt, params=(3,)).rows == [["row3"]]
            assert client.execute(stmt=stmt, params=(4,)).rows == [["row4"]]

    def test_prepared_handles_survive_a_reconnect_under_new_ids(
        self, served
    ):
        _, handle = served
        with client_for(handle) as client:
            first = client.prepare("SELECT name FROM t WHERE id = ?")
            # paging allocates a cursor from the connection's id counter,
            # so the next statement's server id is 3, not 2 ...
            assert len(client.execute(
                stmt=first, params=(3,), fetch_size=3
            )) == 1
            client.execute("SELECT id FROM t ORDER BY id", fetch_size=30)
            second = client.prepare("SELECT id FROM t WHERE name = ?")
            client._sock.shutdown(socket.SHUT_RDWR)  # the link drops
            # ... and the re-prepare on the new connection hands out 2:
            # the retried frame must carry the *current* server id
            assert client.execute(
                stmt=second, params=("row5",)
            ).rows == [[5]]
            assert client.execute(stmt=first, params=(6,)).rows == [["row6"]]
            assert client.reconnects == 1

    def test_paging_fetches_the_full_result(self, served):
        _, handle = served
        with client_for(handle) as client:
            result = client.execute(
                "SELECT id FROM t ORDER BY id", fetch_size=7
            )
            assert [row[0] for row in result.rows] == list(range(40))

    def test_execute_many(self, served):
        db, handle = served
        with client_for(handle) as client:
            count = client.execute_many(
                "SELECT id FROM t WHERE id = ?", [(1,), (2,), (3,)]
            )
            assert count == 3

    def test_writes_are_visible_to_later_reads(self, served):
        _, handle = served
        with client_for(handle) as client:
            client.execute(
                "INSERT INTO t VALUES (100, 'new')", retry=False
            )
            rows = client.execute(
                "SELECT name FROM t WHERE id = 100"
            ).rows
            assert rows == [["new"]]

    def test_ping_reports_pool_and_admission(self, served):
        _, handle = served
        with client_for(handle) as client:
            reply = client.ping()
            assert reply["ok"] is True
            assert reply["draining"] is False
            assert "size" in reply["pool"]
            assert "running" in reply["admission"]

    def test_sys_connections_sees_this_connection(self, served):
        _, handle = served
        with client_for(handle, name="watcher") as client:
            rows = client.execute(
                "SELECT client, requests FROM sys_connections"
            ).rows
            assert any(row[0] == "watcher" for row in rows)

    def test_sys_connections_names_the_session_serving_the_request(
        self, served
    ):
        db, handle = served
        pool = handle.server.pool
        probe = "SELECT session_id FROM sys_connections WHERE client = 'moved'"
        with client_for(handle, name="moved") as client:
            [[first]] = client.execute(probe).rows
            # hold the session that just served it (the free list's top),
            # so the next request runs on another one
            held = pool.acquire("test")
            try:
                assert held.session_id == first
                [[second]] = client.execute(probe).rows
            finally:
                pool.release(held)
            pooled = {s.session_id for s in db.sessions() if s.name == "pool"}
            assert second != first
            assert second in pooled


class TestTypedErrors:
    def test_syntax_error_is_typed(self, served):
        _, handle = served
        with client_for(handle) as client:
            with pytest.raises(SqlSyntaxError):
                client.execute("SELEC nonsense")

    def test_unknown_table_is_typed(self, served):
        _, handle = served
        with client_for(handle) as client:
            with pytest.raises(CatalogError):
                client.execute("SELECT x FROM missing")

    def test_per_request_timeout_is_typed(self, served):
        _, handle = served
        FAULTS.install(FaultPlan().delay_at("io.charge", 0.05))
        try:
            with client_for(handle) as client:
                with pytest.raises(StatementTimeout):
                    client.execute(
                        "SELECT COUNT(*) FROM t",
                        timeout_ms=1,
                        retry=False,
                    )
        finally:
            FAULTS.clear()

    def test_fatal_errors_are_not_retried(self, served):
        _, handle = served
        with client_for(handle) as client:
            client.execute("SELECT id FROM t WHERE id = 0")
            retries_before = client.retries
            with pytest.raises(SqlSyntaxError):
                client.execute("SELEC nope")
            assert client.retries == retries_before


class TestProtocolViolations:
    def test_wrong_protocol_version_rejected(self, served):
        _, handle = served
        with socket.create_connection(
            (handle.host, handle.port), timeout=5
        ) as sock:
            sock.sendall(encode_frame(
                {"op": "hello", "protocol": 999, "id": 1}
            ))
            prefix = sock.recv(4)
            body = sock.recv(frame_length(prefix))
            reply = decode_body(body)
            assert reply["error"]["code"] == "ProtocolError"
            # and the server hangs up afterwards
            assert sock.recv(1) == b""

    def test_first_frame_must_be_hello(self, served):
        _, handle = served
        with socket.create_connection(
            (handle.host, handle.port), timeout=5
        ) as sock:
            sock.sendall(encode_frame({"op": "ping", "id": 1}))
            assert sock.recv(1) == b""  # dropped without a reply

    def test_response_echoes_the_request_id(self, served):
        _, handle = served
        with socket.create_connection(
            (handle.host, handle.port), timeout=5
        ) as sock:
            def roundtrip(message):
                sock.sendall(encode_frame(message))
                prefix = sock.recv(4)
                return decode_body(sock.recv(frame_length(prefix)))

            hello = roundtrip({
                "op": "hello", "protocol": PROTOCOL_VERSION,
                "client": "raw", "id": 9,
            })
            assert hello["id"] == 9
            reply = roundtrip({"op": "ping", "id": 42})
            assert reply["id"] == 42  # the desync-detection invariant


class TestChaos:
    def test_read_faults_are_survived_by_retry(self, served):
        _, handle = served
        FAULTS.install(
            FaultPlan(seed=11).raise_at("server.read", probability=0.3)
        )
        try:
            client = client_for(handle, name="chaos")
            client.connect()
            for _ in range(15):
                rows = client.execute("SELECT COUNT(*) FROM t").rows
                assert rows[0][0] >= 40
            client.close()
            assert client.reconnects > 0  # the fault actually fired
        finally:
            FAULTS.clear()

    def test_accept_faults_drop_before_handshake(self, served):
        _, handle = served
        FAULTS.install(FaultPlan().raise_at("server.accept", hit=1))
        try:
            client = client_for(handle, name="dropped")
            # the first connect dies before the handshake ...
            with pytest.raises(ConnectionLost):
                client.connect()
            # ... and the retry layer reconnects on the next request
            assert client.execute(
                "SELECT id FROM t WHERE id = 0"
            ).rows == [[0]]
            client.close()
        finally:
            FAULTS.clear()

    def test_a_lost_handshake_does_not_spend_an_attempt(self, served):
        _, handle = served
        FAULTS.install(FaultPlan().raise_at("server.accept", hit=2))
        try:
            with client_for(handle, name="flaky-link") as client:
                client._sock.shutdown(socket.SHUT_RDWR)  # the link drops
                # attempt 1 loses the request, attempt 2's first
                # handshake dies at accept and its second one goes through
                assert client.execute(
                    "SELECT id FROM t WHERE id = 0"
                ).rows == [[0]]
                assert (client.retries, client.reconnects) == (1, 1)
        finally:
            FAULTS.clear()


class TestOverloadAndDrain:
    def test_overload_sheds_with_typed_overloaded(self):
        db = Database("overload")
        register_xadt_functions(db)
        db.execute("CREATE TABLE t (id INT)")
        for i in range(20):
            db.execute("INSERT INTO t VALUES (?)", (i,))
        handle = start_server_thread(db, max_inflight=1, queue_watermark=0)
        FAULTS.install(FaultPlan().delay_at("io.charge", 0.005))
        outcomes, lock = {"ok": 0, "shed": 0}, threading.Lock()
        other = []

        def worker(n):
            client = ReproClient(
                handle.host, handle.port, client_name=f"w{n}"
            )
            client.connect()
            for _ in range(4):
                try:
                    client.execute("SELECT COUNT(*) FROM t", retry=False)
                    with lock:
                        outcomes["ok"] += 1
                except Overloaded:
                    with lock:
                        outcomes["shed"] += 1
                except Exception as exc:  # noqa: BLE001
                    other.append(exc)
            client.close()

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        FAULTS.clear()
        handle.stop()
        assert other == []       # every rejection was typed Overloaded
        assert outcomes["shed"] > 0
        assert outcomes["ok"] > 0

    def test_one_client_name_over_many_connections_is_not_capped(self):
        """Admission is the one bound: a burst from one client name
        over several connections runs whole, on at most ``max_inflight``
        pooled sessions."""
        db = Database("one-name")
        register_xadt_functions(db)
        db.execute("CREATE TABLE t (id INT)")
        for i in range(20):
            db.execute("INSERT INTO t VALUES (?)", (i,))
        handle = start_server_thread(db)
        clients = [
            ReproClient(handle.host, handle.port, client_name="burst")
            for _ in range(8)
        ]
        for client in clients:
            client.connect()
        # each statement holds its executor thread for a while, so the
        # eight overlap
        FAULTS.install(FaultPlan().delay_at("io.charge", 0.005))
        start = threading.Barrier(len(clients))
        rows, failures = [], []

        def burst(client):
            start.wait()
            try:
                rows.append(client.execute(
                    "SELECT COUNT(*) FROM t", retry=False
                ).rows)
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [
            threading.Thread(target=burst, args=(c,)) for c in clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        FAULTS.clear()
        size = handle.server.pool.report()["size"]
        for client in clients:
            client.close()
        handle.stop()
        assert failures == []
        assert rows == [[[20]]] * 8
        assert size <= handle.server.admission.max_inflight

    def test_drain_stops_accepting_and_closes_cleanly(self):
        db = Database("drain")
        register_xadt_functions(db)
        db.execute("CREATE TABLE t (id INT)")
        db.execute("INSERT INTO t VALUES (1)")
        handle = start_server_thread(db)
        with ReproClient(handle.host, handle.port) as client:
            assert client.execute("SELECT id FROM t").rows == [[1]]
        handle.stop()
        # no pooled sessions survive the drain
        assert all(s.name != "pool" for s in db.sessions())
        with pytest.raises(ConnectionLost):
            ReproClient(handle.host, handle.port).connect()

    def test_stop_is_idempotent(self):
        db = Database("stop-twice")
        register_xadt_functions(db)
        handle = start_server_thread(db)
        handle.stop()
        handle.stop()


class TestConcurrency:
    def test_many_clients_with_retry_all_succeed(self, served):
        _, handle = served
        failures = []

        def worker(n):
            try:
                with client_for(handle, name=f"conc{n}") as client:
                    for _ in range(5):
                        rows = client.execute(
                            "SELECT COUNT(*) FROM t"
                        ).rows
                        assert rows[0][0] >= 40
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []

    def test_no_connection_leaks_after_clients_leave(self, served):
        _, handle = served
        before = len(CONNECTIONS)
        clients = [client_for(handle, name=f"leak{i}") for i in range(5)]
        for client in clients:
            client.connect()
            client.execute("SELECT id FROM t WHERE id = 0")
        for client in clients:
            client.__exit__(None, None, None)
        deadline = 50
        import time

        while len(CONNECTIONS) > before and deadline:
            time.sleep(0.01)
            deadline -= 1
        assert len(CONNECTIONS) <= before
