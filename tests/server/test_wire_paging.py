"""Result paging: pages encoded once, cut by bytes, held to the per-cell
reference — at the protocol level (Hypothesis) and over real sockets.

These are ``repro.server`` tests; the module sits beside
``test_integration.py`` instead of under ``tests/server`` on purpose.
Two headline tests there decide on sub-millisecond host wall from one
sample (ROADMAP item 1), and what runs *before* them in the process
moves the collector's phase under them: with this module collected
ahead of them they failed 11 of 16 full-suite runs, with it collected
after them 2 of 14 (absent: 0 of 6), against 6 of 22 at the parent
(reports/pr20_wire_result_path.md).  Collected here, nothing its tests
allocate can reach them.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.server.protocol as protocol
import repro.server.server as server_module
from repro.engine.database import Database
from repro.engine.plan_cache import normalize_sql
from repro.errors import ResourceExceeded
from repro.obs.metrics import METRICS
from repro.obs.statements import STATEMENTS
from repro.server import AsyncReproClient, ReproClient, start_server_thread
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ResultPager,
    decode_body,
    encode_frame,
    encode_page,
    frame_length,
    jsonable_rows,
    seal_frame,
)
from repro.server.registry import CONNECTIONS
from repro.workloads.shakespeare_queries import workload_sql as qs_workload
from repro.xadt import XadtValue, register_xadt_functions
from repro.xadt.storage import CODECS

# -- generated results -------------------------------------------------------


class Opaque:
    """A cell only ``str()`` can render."""

    def __init__(self, label: str) -> None:
        self.label = label

    def __str__(self) -> str:
        return f"opaque<{self.label}>"


_words = st.text(
    alphabet="abcxyz éü漢 \"'\\/", min_size=0, max_size=12
)
_xml_text = st.text(alphabet="abc éü漢'\"", min_size=0, max_size=8)


@st.composite
def xadt_values(draw):
    elements = draw(st.lists(
        st.tuples(st.sampled_from(["LINE", "LIN", "a"]), _xml_text),
        min_size=0, max_size=3,
    ))
    xml = "".join(f"<{tag}>{text}</{tag}>" for tag, text in elements)
    return XadtValue.from_xml(xml, draw(st.sampled_from(CODECS)))


cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=20),  # control characters, quotes, non-ASCII
    _words,
    xadt_values(),
    _words.map(Opaque),
)


@st.composite
def results(draw):
    width = draw(st.integers(1, 4))
    return draw(st.lists(
        st.tuples(*[cells] * width), min_size=0, max_size=40
    ))


def default_pages(rows, page_bytes, frame_room=10**9):
    """Every default page of ``rows`` under a ``page_bytes`` budget."""
    saved, protocol.PAGE_BYTES = protocol.PAGE_BYTES, page_bytes
    try:
        pages, stop = [], 0
        while True:
            text, after = encode_page(rows, stop, None, frame_room)
            pages.append((text, after - stop))
            if after >= len(rows):
                return pages
            assert after > stop, "a page made no progress"
            stop = after
    finally:
        protocol.PAGE_BYTES = saved


def parent_messages(columns, rows, fetch_size, request_ids):
    """The replies the server sent when it paged ``jsonable_rows`` lists
    by row count and encoded each reply dict on the loop — the reference
    the spliced frames are held to."""
    rows = jsonable_rows(rows)
    first = {
        "ok": True, "columns": list(columns), "rows": rows[:fetch_size],
        "row_count": len(rows),
    }
    if len(rows) > fetch_size:
        first.update(cursor=7, more=True)
    messages = [first]
    for offset in range(fetch_size, len(rows), fetch_size):
        more = offset + fetch_size < len(rows)
        messages.append({
            "ok": True, "columns": list(columns),
            "rows": rows[offset:offset + fetch_size], "more": more,
            **({"cursor": 7} if more else {}),
        })
    return [
        {**message, "id": request_id}
        for message, request_id in zip(messages, request_ids)
    ]


class TestEncodePage:
    @given(rows=results(), page_bytes=st.integers(2, 600))
    @settings(max_examples=150, deadline=None)
    def test_default_pages_are_the_per_cell_reference_cut_by_bytes(
        self, rows, page_bytes
    ):
        pages = default_pages(rows, page_bytes)
        decoded = [json.loads(text) for text, _ in pages]
        assert [row for page in decoded for row in page] == jsonable_rows(rows)
        for (text, count), page in zip(pages, decoded):
            assert len(page) == count
            assert text.isascii()  # so len(text) is its size on the wire
            assert len(text) <= page_bytes or count == 1

    @given(rows=results(), fetch_size=st.integers(1, 45))
    @settings(max_examples=150, deadline=None)
    def test_explicit_fetch_size_frames_are_the_parents_json(
        self, rows, fetch_size
    ):
        columns = ["id", "naïve \"name\""]
        pager = ResultPager(columns, rows)
        frames = [seal_frame(
            pager.body(
                pager.next_page(fetch_size), row_count=len(rows),
                **({} if pager.exhausted else {"cursor": 7, "more": True}),
            ), 1,
        )]
        while not pager.exhausted:
            page = pager.next_page(fetch_size)
            frames.append(seal_frame(
                pager.body(page, more=False) if pager.exhausted
                else pager.body(page, cursor=7, more=True),
                len(frames) + 1,
            ))
        assert all(
            frame_length(frame[:4]) == len(frame) - 4 for frame in frames
        )
        assert [
            decode_body(frame[4:]) for frame in frames
        ] == parent_messages(
            columns, rows, fetch_size, range(1, len(frames) + 1)
        )

    def test_a_fitting_result_is_one_page_in_few_encoder_calls(
        self, monkeypatch
    ):
        calls = []
        encode = protocol._encode_rows
        monkeypatch.setattr(
            protocol, "_encode_rows",
            lambda chunk: calls.append(len(chunk)) or encode(chunk),
        )
        rows = [(i, f"line {i}") for i in range(3965)]
        text, stop = encode_page(rows, 0)
        assert stop == 3965 and json.loads(text) == jsonable_rows(rows)
        assert calls == [1, 16, 256, 3692]

    def test_rows_straddling_the_budget_close_the_page_before_them(self):
        rows = [("x" * 40,)] * 10  # 45 bytes a row with brackets + comma
        pages = default_pages(rows, 100)
        assert [count for _, count in pages] == [2, 2, 2, 2, 2]
        assert all(len(text) <= 100 for text, _ in pages)

    def test_a_row_wider_than_the_page_budget_travels_alone(self):
        rows = [(1, "a"), (2, "b" * 500), (3, "c")]
        pages = default_pages(rows, 64)
        assert [count for _, count in pages] == [1, 1, 1]
        assert len(pages[1][0]) > 64

    def test_a_row_no_frame_carries_is_a_typed_error_after_its_page(self):
        rows = [(1, "a"), (2, "b" * 500), (3, "c")]
        text, stop = encode_page(rows, 0, None, frame_room=256)
        assert (json.loads(text), stop) == ([[1, "a"]], 1)
        for max_rows in (None, 2):
            with pytest.raises(ResourceExceeded, match="result row 1"):
                encode_page(rows, 1, max_rows, frame_room=256)

    def test_an_explicit_page_is_cut_short_only_by_the_frame(self):
        rows = [(i, "y" * 90) for i in range(10)]  # ~100 bytes a row
        text, stop = encode_page(rows, 0, 8, frame_room=512)
        assert stop < 8 and len(text) <= 512
        assert json.loads(text) == jsonable_rows(rows[:stop])

    def test_empty_result_and_single_row(self):
        assert encode_page([], 0) == ("[]", 0)
        assert encode_page([(None,)], 0) == ("[[null]]", 1)
        assert encode_page([(1,), (2,)], 2) == ("[]", 2)


# -- over real sockets -------------------------------------------------------


@pytest.fixture()
def live_pagers(monkeypatch):
    """``live_pagers()``: how many of the pagers (= cursors) the server
    has made since the test began are still referenced by anything."""
    made = weakref.WeakSet()

    class TrackedPager(ResultPager):
        def __init__(self, columns, rows) -> None:
            super().__init__(columns, rows)
            made.add(self)

    monkeypatch.setattr(server_module, "ResultPager", TrackedPager)
    return lambda: len(made)


def wait_until(condition, timeout=5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.02)
    return condition()


class RawConnection:
    """The protocol by hand: one frame out, one frame in."""

    def __init__(self, handle, rcvbuf: int | None = None) -> None:
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.settimeout(10)
        self.sock.connect((handle.host, handle.port))
        self.ids = 0
        assert self.request(
            {"op": "hello", "protocol": PROTOCOL_VERSION, "client": "raw"}
        )["ok"]

    def send(self, message: dict) -> None:
        self.ids += 1
        self.sock.sendall(encode_frame({**message, "id": self.ids}))

    def request(self, message: dict) -> dict:
        self.send(message)
        body = ReproClient._recv_frame(self.sock)
        reply = decode_body(body)
        assert reply["id"] == self.ids
        reply["frame_bytes"] = len(body)
        return reply

    def closed_by_peer(self) -> bool:
        try:
            return self.sock.recv(1) == b""
        except OSError:
            return True

    def close(self) -> None:
        self.sock.close()


@pytest.fixture(scope="module")
def served():
    db = Database("paging")
    register_xadt_functions(db)
    db.execute("CREATE TABLE t (id INT, name VARCHAR(20))")
    db.execute_many(
        "INSERT INTO t VALUES (?, ?)", [(i, f"row{i}") for i in range(200)]
    )
    # 600 rows x 4 KB: with the frame cap patched to 1 MiB this is the
    # shape of 600 x 40 KB under the real 16 MiB cap — the first 512 rows
    # do not fit one frame
    db.execute("CREATE TABLE big (id INT, pad VARCHAR(5000))")
    db.execute_many(
        "INSERT INTO big VALUES (?, ?)",
        [(i, f"{i:04d}" + "x" * 4092) for i in range(600)],
    )
    db.execute("CREATE TABLE giant (id INT, pad VARCHAR(2000000))")
    db.execute_many(
        "INSERT INTO giant VALUES (?, ?)",
        [(0, "small"), (1, "y" * 1_200_000), (2, "after")],
    )
    handle = start_server_thread(
        db, max_inflight=4, queue_watermark=16, max_cursors=2,
        write_timeout=1.0,
    )
    yield db, handle
    handle.stop()


@pytest.fixture()
def small_frames(monkeypatch):
    """The frame cap at 1 MiB and the page budget at 1/16 of it, for
    both ends (the real constants' proportion, sixteen times smaller)."""
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1024 * 1024)
    monkeypatch.setattr(protocol, "PAGE_BYTES", 64 * 1024)


class TestBigResults:
    SQL = "SELECT id, pad FROM big ORDER BY id"

    def expected(self, db):
        return jsonable_rows(db.execute(self.SQL).rows)

    def test_blocking_client_gets_every_row_without_a_reconnect(
        self, served, small_frames
    ):
        db, handle = served
        with ReproClient(handle.host, handle.port) as client:
            assert client.execute(self.SQL).rows == self.expected(db)
            assert (client.reconnects, client.retries) == (0, 0)
            # the fetch_size that used to kill the connection now pages
            # by bytes where its rows cannot fit a frame
            assert client.execute(
                self.SQL, fetch_size=512
            ).rows == self.expected(db)
            assert (client.reconnects, client.retries) == (0, 0)

    def test_async_client_gets_every_row(self, served, small_frames):
        db, handle = served

        async def run():
            client = AsyncReproClient(handle.host, handle.port)
            await client.connect()
            try:
                return (await client.execute(self.SQL)).rows
            finally:
                await client.close()

        assert asyncio.run(run()) == self.expected(db)

    def test_default_pages_respect_the_byte_budget(self, served, small_frames):
        _, handle = served
        raw = RawConnection(handle)
        try:
            reply = raw.request({"op": "execute", "sql": self.SQL})
            seen, frames = len(reply["rows"]), 1
            assert reply["row_count"] == 600 and reply["more"] is True
            assert reply["columns"] == ["id", "pad"]
            while reply.get("more"):
                assert len(reply["rows"]) == 15  # 4.1 KB rows in 64 KiB
                assert reply["frame_bytes"] <= 64 * 1024 + 256
                reply = raw.request({"op": "fetch", "cursor": reply["cursor"]})
                seen += len(reply["rows"])
                frames += 1
            assert (seen, frames) == (600, 40)
            assert "cursor" not in reply and reply["more"] is False
        finally:
            raw.close()

    def test_oversize_row_is_typed_and_the_connection_survives(
        self, served, small_frames, live_pagers
    ):
        _, handle = served
        with ReproClient(handle.host, handle.port) as client:
            with pytest.raises(ResourceExceeded, match="result row 0"):
                client.execute("SELECT pad FROM giant WHERE id = 1")
            # fatal, so not retried; the same socket answers the next one
            assert (client.reconnects, client.retries) == (0, 0)
            assert client.execute(
                "SELECT id FROM giant WHERE id = 2"
            ).rows == [[2]]
            # met mid-result: the rows before it arrive, then the error
            with pytest.raises(ResourceExceeded, match="result row 1"):
                client.execute("SELECT pad FROM giant ORDER BY id")
            assert (client.reconnects, client.retries) == (0, 0)
            assert client.ping()["ok"] is True
        assert wait_until(lambda: live_pagers() == 0)

    def test_oversize_row_is_typed_for_the_async_client(
        self, served, small_frames
    ):
        _, handle = served

        async def run():
            client = AsyncReproClient(handle.host, handle.port)
            await client.connect()
            try:
                with pytest.raises(ResourceExceeded):
                    await client.execute("SELECT pad FROM giant ORDER BY id")
                return (await client.execute("SELECT COUNT(*) FROM t")).rows
            finally:
                await client.close()

        assert asyncio.run(run()) == [[200]]

    def test_the_real_cap_carries_the_row_the_small_one_refused(self, served):
        _, handle = served
        with ReproClient(handle.host, handle.port) as client:
            rows = client.execute("SELECT pad FROM giant ORDER BY id").rows
            assert [len(row[0]) for row in rows] == [5, 1_200_000, 5]


class TestCursors:
    SQL = "SELECT id FROM t ORDER BY id"

    def test_explicit_fetch_size_on_execute_and_on_fetch(self, served):
        _, handle = served
        raw = RawConnection(handle)
        try:
            reply = raw.request(
                {"op": "execute", "sql": self.SQL, "fetch_size": 7}
            )
            assert [row[0] for row in reply["rows"]] == list(range(7))
            assert reply["row_count"] == 200 and reply["more"] is True
            cursor = reply["cursor"]
            reply = raw.request(
                {"op": "fetch", "cursor": cursor, "fetch_size": 50}
            )
            assert [row[0] for row in reply["rows"]] == list(range(7, 57))
            assert reply["cursor"] == cursor and "row_count" not in reply
            # no fetch_size: the rest fits the byte budget, one page
            reply = raw.request({"op": "fetch", "cursor": cursor})
            assert [row[0] for row in reply["rows"]] == list(range(57, 200))
            assert reply["more"] is False and "cursor" not in reply
        finally:
            raw.close()

    def test_interleaved_cursors_on_one_connection(self, served):
        _, handle = served
        raw = RawConnection(handle)
        try:
            up = raw.request(
                {"op": "execute", "sql": self.SQL, "fetch_size": 90}
            )
            down = raw.request({
                "op": "execute", "fetch_size": 60,
                "sql": "SELECT id FROM t ORDER BY id DESC",
            })
            assert up["cursor"] != down["cursor"]
            seen_up = [row[0] for row in up["rows"]]
            seen_down = [row[0] for row in down["rows"]]
            while up.get("more") or down.get("more"):
                if up.get("more"):
                    up = raw.request({"op": "fetch", "cursor": up["cursor"],
                                      "fetch_size": 90})
                    seen_up += [row[0] for row in up["rows"]]
                if down.get("more"):
                    down = raw.request({"op": "fetch", "fetch_size": 60,
                                        "cursor": down["cursor"]})
                    seen_down += [row[0] for row in down["rows"]]
            assert seen_up == list(range(200))
            assert seen_down == list(range(199, -1, -1))
        finally:
            raw.close()

    def test_max_cursors_still_drops_the_connection(
        self, served, live_pagers
    ):
        _, handle = served
        raw = RawConnection(handle)
        try:
            for _ in range(2):  # the fixture's max_cursors
                assert raw.request(
                    {"op": "execute", "sql": self.SQL, "fetch_size": 5}
                )["more"] is True
            raw.send({"op": "execute", "sql": self.SQL, "fetch_size": 5})
            assert raw.closed_by_peer()
        finally:
            raw.close()
        assert wait_until(lambda: live_pagers() == 0)

    def test_close_cursor_frees_an_abandoned_result(
        self, served, live_pagers
    ):
        _, handle = served
        raw = RawConnection(handle)
        try:
            cursors = [
                raw.request(
                    {"op": "execute", "sql": self.SQL, "fetch_size": 5}
                )["cursor"]
                for _ in range(2)
            ]
            assert live_pagers() == 2
            for cursor in cursors:
                assert raw.request(
                    {"op": "close_cursor", "cursor": cursor}
                )["ok"] is True
            assert live_pagers() == 0
            # the slots are free again: a third paged result is accepted
            assert raw.request(
                {"op": "execute", "sql": self.SQL, "fetch_size": 5}
            )["more"] is True
            # and a closed cursor is unknown, which is a protocol violation
            raw.send({"op": "fetch", "cursor": cursors[0]})
            assert raw.closed_by_peer()
        finally:
            raw.close()

    def test_disconnect_frees_an_abandoned_result(
        self, served, live_pagers
    ):
        _, handle = served
        raw = RawConnection(handle)
        assert raw.request(
            {"op": "execute", "sql": self.SQL, "fetch_size": 5}
        )["more"] is True
        assert live_pagers() == 1
        raw.close()
        assert wait_until(lambda: live_pagers() == 0)
        assert wait_until(lambda: len(CONNECTIONS) == 0)

    def test_two_clients_paging_at_once_never_mix_rows(
        self, served, small_frames
    ):
        db, handle = served
        statements = {
            "up": ("SELECT id, pad FROM big ORDER BY id", None),
            "down": ("SELECT id FROM t ORDER BY id DESC", 9),
        }
        expected = {
            name: jsonable_rows(db.execute(sql).rows)
            for name, (sql, _) in statements.items()
        }
        wrong = []

        def reader(name):
            sql, fetch_size = statements[name]
            with ReproClient(handle.host, handle.port, client_name=name) as c:
                for _ in range(3):
                    if c.execute(sql, fetch_size=fetch_size).rows != expected[name]:
                        wrong.append(name)

        threads = [
            threading.Thread(target=reader, args=(name,)) for name in statements
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestAroundTheFrame:
    def test_network_wait_excludes_encoding(self, served, monkeypatch):
        """Encoding is CPU on the executor; the ``network`` wait covers
        write + drain only."""
        _, handle = served
        sql = "SELECT id, name FROM t ORDER BY id"
        encode = protocol._encode_rows

        def slow_encode(chunk):
            time.sleep(0.1)
            return encode(chunk)

        STATEMENTS.reset()
        STATEMENTS.enable()
        try:
            with ReproClient(handle.host, handle.port) as client:
                client.execute(sql)  # the statement now has an aggregate
                monkeypatch.setattr(protocol, "_encode_rows", slow_encode)
                started = time.perf_counter()
                assert len(client.execute(sql).rows) == 200
                elapsed = time.perf_counter() - started
            stats = STATEMENTS.statement(normalize_sql(sql))
        finally:
            STATEMENTS.disable()
            STATEMENTS.reset()
        assert elapsed >= 0.2  # 200 rows are three encoder calls
        assert 0.0 < stats.waits["network"] < 0.05

    def test_a_stalled_client_is_still_dropped(self, served):
        """The drain is skipped only when the kernel took the whole
        frame; a frame it could not take still meets the write timeout."""
        _, handle = served
        timeouts = METRICS.counter("server.write_timeouts").value
        raw = RawConnection(handle, rcvbuf=4096)
        try:
            # ~10 MB in one frame to a peer that never reads it
            raw.send({
                "op": "execute", "fetch_size": 20000,
                "sql": "SELECT pad, pad, pad, pad FROM big",
            })
            assert wait_until(
                lambda: METRICS.counter("server.write_timeouts").value
                > timeouts
            )
        finally:
            raw.close()
        with ReproClient(handle.host, handle.port) as client:
            assert client.execute("SELECT COUNT(*) FROM t").rows == [[200]]
        assert wait_until(lambda: len(CONNECTIONS) == 0)


class TestPaperQueriesOverTheWire:
    """QS1-QS6 on both mappings: what crosses the wire is what the engine
    returned, however the result is paged."""

    @pytest.mark.parametrize("mapping", ["hybrid", "xorator"])
    def test_qs_matches_in_process(self, shakespeare_pair, mapping, monkeypatch):
        loaded = shakespeare_pair[0 if mapping == "hybrid" else 1]
        workload = qs_workload(mapping)
        baseline = [
            jsonable_rows(loaded.db.execute(sql).rows) for sql in workload
        ]
        with start_server_thread(loaded.db) as handle:
            with ReproClient(handle.host, handle.port) as client:
                assert [
                    client.execute(sql).rows for sql in workload
                ] == baseline
                assert [
                    client.execute(sql, fetch_size=100).rows for sql in workload
                ] == baseline
                # byte-cut pages, small enough that every query has several
                monkeypatch.setattr(protocol, "PAGE_BYTES", 4096)
                assert [
                    client.execute(sql).rows for sql in workload
                ] == baseline
