"""The write-ahead log: record encoding, transactions, group commit."""

import base64
import json
import marshal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.recovery import read_log
from repro.engine.wal import (
    WriteAheadLog,
    decode_bulk_rows,
    decode_row,
    decode_value,
    encode_row,
    encode_value,
)
from repro.errors import RecoveryError, WalError
from repro.xadt.fragment import XadtValue


class TestValueCodec:
    def test_native_json_values_pass_through(self):
        for value in (None, True, 42, 2.5, "text"):
            assert encode_value(value) == value
            assert decode_value(encode_value(value)) == value

    def test_bytes_round_trip_via_base64(self):
        encoded = encode_value(b"\x00\xffraw")
        assert isinstance(encoded, dict) and "$y" in encoded
        assert decode_value(encoded) == b"\x00\xffraw"

    def test_plain_xadt_round_trip(self):
        value = XadtValue.from_xml("<a>x<b/></a>")
        decoded = decode_value(json.loads(json.dumps(encode_value(value))))
        assert isinstance(decoded, XadtValue)
        assert decoded.codec == value.codec
        assert decoded.payload == value.payload

    def test_dict_xadt_round_trip_through_json(self):
        value = XadtValue.from_xml("<a attr='v'>x</a>", "dict")
        decoded = decode_value(json.loads(json.dumps(encode_value(value))))
        assert decoded.codec == "dict"
        assert decoded.payload == value.payload
        assert decoded.to_xml() == value.to_xml()

    def test_row_round_trip(self):
        row = (1, None, "s", XadtValue.from_xml("<a/>", "dict"))
        decoded = decode_row(json.loads(json.dumps(encode_row(row))))
        assert decoded[:3] == row[:3]
        assert decoded[3].payload == row[3].payload

    def test_unloggable_value_rejected(self):
        with pytest.raises(WalError):
            encode_value(object())

    def test_unknown_escape_rejected(self):
        with pytest.raises(WalError):
            decode_value({"$z": 1})


class TestTransactions:
    def test_commit_makes_records_durable(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path, sync_mode="always")
        wal.begin()
        wal.log_insert("t", (1, "a"))
        wal.end()
        wal.close()
        committed, report = read_log(path)
        assert [r["type"] for r in committed] == ["insert"]
        assert report.transactions_committed == 1
        assert not report.torn_tail

    def test_abort_discards_the_transaction(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path, sync_mode="always")
        wal.begin()
        wal.log_insert("t", (1, "a"))
        wal.abort()
        wal.flush()
        wal.close()
        committed, report = read_log(path)
        assert committed == []
        assert report.transactions_dropped == 1

    def test_nested_begin_shares_one_transaction(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path, sync_mode="always")
        outer = wal.begin()
        inner = wal.begin()
        assert inner == outer
        wal.log_insert("t", (1, "a"))
        wal.end()
        wal.log_insert("t", (2, "b"))
        wal.end()  # outermost exit appends the single commit
        wal.close()
        committed, report = read_log(path)
        assert len(committed) == 2
        assert report.transactions_committed == 1

    def test_commit_marker_recorded(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path, sync_mode="always")
        wal.begin(marker="doc:0")
        wal.log_insert("t", (1, "a"))
        wal.end()
        wal.close()
        _, report = read_log(path)
        assert report.markers == ["doc:0"]


class TestGroupCommit:
    def test_unknown_sync_mode_rejected(self, tmp_path):
        with pytest.raises(WalError):
            WriteAheadLog(str(tmp_path / "w"), sync_mode="eventually")

    def test_always_fsyncs_every_commit(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w"), sync_mode="always")
        for i in range(3):
            wal.begin()
            wal.log_insert("t", (i,))
            wal.end()
        assert wal.fsyncs == 3
        assert wal.buffered_bytes == 0
        wal.close()

    def test_group_window_buffers_commits(self, tmp_path):
        path = str(tmp_path / "w")
        wal = WriteAheadLog(path, sync_mode="group", group_window_seconds=60.0)
        for i in range(3):
            wal.begin()
            wal.log_insert("t", (i,))
            wal.end()
        # every commit landed inside the window: nothing reached the file
        assert wal.fsyncs == 0
        assert wal.buffered_bytes > 0
        wal.abandon()  # the crash: buffered commits are lost
        committed, report = read_log(path)
        assert committed == []
        assert report.records_read == 0

    def test_off_mode_flushes_only_on_close(self, tmp_path):
        path = str(tmp_path / "w")
        wal = WriteAheadLog(path, sync_mode="off")
        wal.begin()
        wal.log_insert("t", (1,))
        wal.end()
        assert wal.fsyncs == 0
        wal.close()
        committed, _ = read_log(path)
        assert len(committed) == 1

    def test_closed_log_rejects_appends(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w"))
        wal.close()
        assert wal.closed
        with pytest.raises(WalError):
            wal.begin()

    def test_report_shape(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w"), sync_mode="always")
        wal.begin()
        wal.log_insert("t", (1,))
        wal.end()
        report = wal.report()
        assert report["records"] == 2  # insert + commit
        assert report["commits"] == 1
        assert report["closed"] is False
        wal.close()


class TestTornTail:
    def test_torn_line_stops_the_scan(self, tmp_path):
        path = str(tmp_path / "w")
        wal = WriteAheadLog(path, sync_mode="always")
        wal.begin()
        wal.log_insert("t", (1,))
        wal.end()
        wal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"insert","table":"t","ro')  # torn write
        committed, report = read_log(path)
        assert report.torn_tail is True
        assert [r["type"] for r in committed] == ["insert"]


def logged_batches(path):
    """The bulk_insert records a log holds, as read back."""
    committed, _ = read_log(path)
    return [record for record in committed if record["type"] == "bulk_insert"]


def log_one_batch(path, rows):
    wal = WriteAheadLog(path, sync_mode="always")
    wal.begin()
    wal.log_bulk_insert("t", rows)
    wal.end()
    wal.close()
    (record,) = logged_batches(path)
    return record


def same_rows(decoded, rows):
    """Row equality that also holds codecs and payloads to account."""
    def key(value):
        if isinstance(value, XadtValue):
            return ("xadt", value.codec, value.payload)
        return (type(value).__name__, value)

    return [tuple(map(key, row)) for row in decoded] == [
        tuple(map(key, row)) for row in rows
    ]


class TestPackedXadtBatches:
    def test_single_codec_xadt_columns_pack(self, tmp_path):
        rows = [
            (1, XadtValue.from_xml("<a>x</a>", "dict"), XadtValue.from_xml("<p/>")),
            (2, None, XadtValue.from_xml("<q>é</q>")),
            (3, XadtValue.from_xml("<b/>", "dict"), None),
        ]
        record = log_one_batch(str(tmp_path / "w"), rows)
        assert "rows" not in record
        assert record["xadt"] == [[1, "dict"], [2, "plain"]]
        assert same_rows(decode_bulk_rows(record), rows)

    def test_native_batches_name_no_xadt_columns(self, tmp_path):
        record = log_one_batch(str(tmp_path / "w"), [(1, "a", b"\x00", None)])
        assert "packed" in record and "xadt" not in record
        assert decode_bulk_rows(record) == [(1, "a", b"\x00", None)]

    @pytest.mark.parametrize("rows", [
        # two codecs in one column
        [(1, XadtValue.from_xml("<a/>", "dict")), (2, XadtValue.from_xml("<a/>"))],
        # a fragment beside a string in one column
        [(1, XadtValue.from_xml("<a/>")), (2, "<a/>")],
        # rows of mixed length
        [(1, XadtValue.from_xml("<a/>")), (2,)],
    ])
    def test_irregular_batches_keep_the_escapes(self, tmp_path, rows):
        record = log_one_batch(str(tmp_path / "w"), rows)
        assert "packed" not in record
        assert same_rows(decode_bulk_rows(record), rows)


class TestOldLogs:
    def test_escaped_rows_and_base64_dict_payloads_replay(self, tmp_path):
        """A log written before XADT batches packed still recovers."""
        from repro.engine.database import Database
        from repro.xadt import register_xadt_functions

        dict_value = XadtValue.from_xml("<a k='v'>hi<b/></a>", "dict")
        old = [
            {"type": "create_table", "table": "x",
             "columns": [["id", "INTEGER", True], ["frag", "XADT", False],
                         ["raw", "VARCHAR", False]],
             "lsn": 1, "txn": 1},
            {"type": "commit", "lsn": 2, "txn": 1},
            {"type": "bulk_insert", "table": "x", "rows": [
                [1, {"$x": ["dict", base64.b64encode(dict_value.payload).decode()]},
                 "s"],
                [2, {"$x": ["plain", "<c>é</c>"]}, None],
                [3, {"$x": ["indexed", "<d/>"]}, "t"],
             ], "lsn": 3, "txn": 2},
            {"type": "insert", "table": "x",
             "row": [4, {"$x": ["plain", "<e/>"]}, "u"], "lsn": 4, "txn": 2},
            {"type": "commit", "marker": "doc:0", "lsn": 5, "txn": 2},
        ]
        path = str(tmp_path / "old.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for record in old:
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")
        db = Database.open(path, recover=True)
        register_xadt_functions(db)
        rows = db.execute("SELECT id, frag, raw FROM x ORDER BY id").rows
        assert [(row[0], row[1].codec, row[1].to_xml(), row[2]) for row in rows] == [
            (1, "dict", '<a k="v">hi<b/></a>', "s"),
            (2, "plain", "<c>é</c>", None),
            (3, "indexed", "<d/>", "t"),
            (4, "plain", "<e/>", "u"),
        ]
        assert rows[0][1].payload == dict_value.payload
        assert db.recovery_report.markers == ["doc:0"]
        db.close()


codecs = st.sampled_from(["plain", "dict", "indexed"])
fragments = st.builds(
    XadtValue.from_xml,
    st.sampled_from(["", "<a/>", "<a k='v'>x<b>é</b></a>", "<p>1</p><p>2</p>"]),
    codecs,
)
natives = st.one_of(
    st.none(), st.integers(-2**40, 2**40), st.text(max_size=6), st.binary(max_size=6)
)


@st.composite
def batches(draw):
    """Rows of one width: native columns, XADT columns (NULLs allowed)
    under one codec or, now and then, two."""
    kinds = draw(st.lists(st.sampled_from(["native", "xadt", "mixed"]),
                          min_size=1, max_size=5))
    height = draw(st.integers(1, 6))
    columns = []
    for kind in kinds:
        if kind == "native":
            columns.append(draw(st.lists(natives, min_size=height, max_size=height)))
            continue
        codec = draw(codecs)
        column = []
        for _ in range(height):
            value = draw(st.one_of(st.none(), fragments))
            if value is not None and kind == "xadt":
                value = value.recode(codec)
            column.append(value)
        columns.append(column)
    return list(zip(*columns))


@given(batches())
@settings(max_examples=120, deadline=None)
def test_bulk_insert_round_trips_through_the_log(tmp_path_factory, rows):
    path = str(tmp_path_factory.mktemp("wal") / "w")
    record = log_one_batch(path, rows)
    assert same_rows(decode_bulk_rows(record), rows)
    xadt_codecs = [
        {value.codec for value in column if isinstance(value, XadtValue)}
        for column in zip(*rows)
    ]
    assert ("packed" in record) == all(len(c) <= 1 for c in xadt_codecs)


class TestMalformedPackedRecords:
    def record(self, rows, xadt):
        packed = base64.b64encode(marshal.dumps(rows)).decode()
        return {"type": "bulk_insert", "table": "t", "packed": packed, "xadt": xadt}

    @pytest.mark.parametrize("rows, xadt", [
        ([(1, "<a/>")], [[1, "zip"]]),            # unknown codec
        ([(1, "<a/>")], [[1, "dict"]]),           # str where dict wants bytes
        ([(1, b"\x00")], [[1, "plain"]]),         # bytes where plain wants str
        ([(1, 2)], [[1, "indexed"]]),             # an int payload
        ([(1, "<a/>")], [[5, "plain"]]),          # no such column
        ([(1, "<a/>")], [["x", "plain"]]),        # not a column index
        ([(1, "<a/>")], [[1]]),                   # not a pair
    ])
    def test_bad_xadt_columns_are_recovery_errors(self, rows, xadt):
        with pytest.raises(RecoveryError):
            decode_bulk_rows(self.record(rows, xadt))

    def test_a_broken_blob_is_a_recovery_error(self):
        record = self.record([(1, "<a/>")], [[1, "plain"]])
        record["packed"] = record["packed"][:6]
        with pytest.raises(RecoveryError):
            decode_bulk_rows(record)

    def test_replay_reports_the_record(self, tmp_path):
        from repro.engine.database import Database

        path = str(tmp_path / "w")
        lines = [
            {"type": "create_table", "table": "t",
             "columns": [["id", "INTEGER", True], ["frag", "XADT", False]],
             "lsn": 1, "txn": 1},
            {**self.record([(1, "<a/>")], [[1, "zip"]]), "lsn": 2, "txn": 1},
            {"type": "commit", "lsn": 3, "txn": 1},
        ]
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(line) + "\n" for line in lines)
        with pytest.raises(RecoveryError, match="zip"):
            Database.open(path, recover=True)
