"""The write-ahead log: append-only JSONL durability for the engine.

Every logical write the :class:`~repro.engine.database.Database` API
performs — DDL, single-row inserts, bulk-insert batches, index builds,
``runstats``, exec-config swaps — is described by one JSON record and
appended to the log *before* the in-memory structures change (the
write-ahead discipline).  A transaction (one
``Database._write``/:meth:`Database.transaction` scope) groups records
under one ``txn`` id; the ``commit`` record appended when the scope
exits is what makes the transaction durable.  Recovery
(:mod:`repro.engine.recovery`) replays committed transactions in LSN
order and drops everything after the last durable commit, so a crash at
any instant loses at most the in-flight (uncommitted or unfsynced)
tail, never tears a committed state.

Durability model — **group commit** (DESIGN.md §9): records accumulate
in an in-process buffer and reach the file only at fsync points, so the
OS never holds bytes the log considers volatile.  Three sync modes:

* ``"always"`` — fsync on every commit (one durable commit per txn);
* ``"group"`` (default) — fsync when a commit lands more than
  ``group_window_seconds`` after the previous fsync; commits inside the
  window stay buffered and ride the next fsync (classic group commit:
  bounded loss, an order of magnitude fewer fsyncs under load);
* ``"off"`` — fsync only on :meth:`close` / :meth:`flush` (benchmarks).

``abandon()`` models the crash: it drops the buffer and closes the file
descriptor without writing, leaving exactly the fsynced prefix on disk —
which is what a chaos test's recovery must rebuild from.

Record values are JSON-encoded with two escape forms: XADT fragments
become ``{"$x": [codec, payload]}`` (dict-codec byte payloads travel
base64), raw bytes become ``{"$y": base64}``.  Everything else the
engine stores (int/float/str/bool/NULL) is native JSON.  One exception
keeps logging off the bulk-load critical path: a ``bulk_insert`` batch
is *packed* — the whole batch is one ``marshal`` blob (base64 inside the
JSONL record) instead of three JSON tokens per value, which is ~3x
cheaper to serialize — when its rows are all marshal-native, and also
when every column holding XADT fragments holds them under one codec
(NULLs allowed).  Such a column goes into the blob as its payloads, and
the record names it in ``"xadt": [[column, codec], ...]``; recovery
rebuilds it a column at a time (:func:`decode_bulk_rows`).  What takes
the ``$x`` escapes is single-row inserts and the irregular batches: rows
of mixed length, two codecs (or fragments beside other values) in one
column.  Every record is one self-contained JSON line either way.
"""

from __future__ import annotations

import base64
import io
import json
import marshal
import os
import time

from repro.engine.faults import FAULTS
from repro.engine.types import is_xadt_value
from repro.errors import RecoveryError, WalError, XadtCodecError
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER

_APPENDS = METRICS.counter("wal.appends")
_COMMITS = METRICS.counter("wal.commits")
_FSYNCS = METRICS.counter("wal.fsyncs")
_BYTES = METRICS.counter("wal.bytes_written")
_GROUP_RIDES = METRICS.counter("wal.group_commit_rides")

#: default group-commit window in seconds
DEFAULT_GROUP_WINDOW = 0.005

#: fdatasync skips the metadata flush fsync pays; fall back where absent
_SYNC = getattr(os, "fdatasync", os.fsync)

SYNC_MODES = ("always", "group", "off")


def _escape_value(value: object) -> dict:
    """A non-JSON-native value -> its escape record.

    Installed as ``json.dumps(default=...)``: the C encoder serializes
    int/float/str/bool/NULL rows at native speed and only falls back
    here for XADT fragments and raw bytes, which keeps WAL logging off
    the bulk-load critical path (see ``benchmarks/bench_wal_overhead``).
    """
    if getattr(value, "__xadt__", False) is True:
        payload = value.payload  # type: ignore[attr-defined]
        if isinstance(payload, bytes):
            payload = base64.b64encode(payload).decode("ascii")
        return {"$x": [value.codec, payload]}  # type: ignore[attr-defined]
    if isinstance(value, bytes):
        return {"$y": base64.b64encode(value).decode("ascii")}
    raise WalError(f"cannot log value of type {type(value).__name__}")


def encode_value(value: object) -> object:
    """One row value -> its JSON-safe form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return _escape_value(value)


def decode_value(value: object) -> object:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        if "$x" in value:
            from repro.xadt.fragment import XadtValue

            codec, payload = value["$x"]
            if codec == "dict":
                payload = base64.b64decode(payload)
            return XadtValue(payload, codec)
        if "$y" in value:
            return base64.b64decode(value["$y"])
        raise WalError(f"unknown escape record {sorted(value)!r}")
    return value


def encode_row(row) -> list[object]:
    return [encode_value(value) for value in row]


def decode_row(row) -> tuple:
    return tuple(decode_value(value) for value in row)


def decode_bulk_rows(record: dict) -> list[tuple]:
    """The rows of a ``bulk_insert`` record, packed or escaped.

    A packed record's ``xadt`` columns come back as fragments, each
    column checked once (codec name, payload type); a record that fails
    to decode is a :class:`~repro.errors.RecoveryError`.
    """
    packed = record.get("packed")
    if packed is None:
        return [decode_row(row) for row in record["rows"]]
    try:
        rows = marshal.loads(base64.b64decode(packed))
        xadt = record.get("xadt")
        if not xadt:
            return [tuple(row) for row in rows]
        from repro.xadt.fragment import XadtValue

        columns = list(zip(*rows))
        for index, codec in xadt:
            columns[index] = XadtValue.column(columns[index], codec)
        return list(zip(*columns))
    except (XadtCodecError, LookupError, TypeError, ValueError, EOFError) as exc:
        raise RecoveryError(f"undecodable bulk_insert record: {exc}") from exc


def _pack(rows) -> tuple[bytes, list[list]] | None:
    """``rows`` as one marshal blob, and the ``[column, codec]`` pairs of
    the XADT columns whose payloads stand in for their values; None when
    the batch does not pack (rows of mixed length, a column mixing
    codecs or fragments with other values, a value marshal cannot
    write)."""
    try:
        return marshal.dumps(rows), []
    except ValueError:
        pass
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        return None
    columns = list(zip(*rows))
    xadt = []
    for index, column in enumerate(columns):
        kinds = set(map(type, column)) - {type(None)}
        if not any(map(is_xadt_value, kinds)):  # the marker is on the class
            continue
        if len(kinds) != 1:
            return None
        codecs = {value.codec for value in column if value is not None}
        if len(codecs) != 1:
            return None
        xadt.append([index, codecs.pop()])
        columns[index] = [None if value is None else value.payload for value in column]
    try:
        return marshal.dumps(list(zip(*columns))), xadt
    except ValueError:
        return None


class WriteAheadLog:
    """Append-only JSONL log with buffered group commit.

    Not thread-safe on its own: every append happens under the storage
    engine's writer lock (the single-writer discipline of DESIGN.md §8
    serializes the log for free).
    """

    def __init__(
        self,
        path: str,
        create: bool = True,
        start_lsn: int = 1,
        start_txn: int = 1,
        sync_mode: str = "group",
        group_window_seconds: float = DEFAULT_GROUP_WINDOW,
    ) -> None:
        if sync_mode not in SYNC_MODES:
            raise WalError(
                f"unknown sync mode {sync_mode!r}; modes are {SYNC_MODES}"
            )
        self.path = os.fspath(path)
        self.sync_mode = sync_mode
        self.group_window_seconds = group_window_seconds
        # binary mode: lines are pre-encoded UTF-8, so flushing is one
        # join and one write with no TextIOWrapper re-encode of the
        # whole payload
        self._file: io.BufferedWriter | None = open(
            self.path, "wb" if create else "ab"
        )
        self._buffer: list[bytes] = []
        self._buffered_bytes = 0
        self._last_fsync = time.monotonic()
        self._lsn = start_lsn          #: next LSN to assign
        self._txn_counter = start_txn  #: next transaction id
        self._txn = 0                  #: current transaction id (0 = none)
        self._depth = 0
        self._marker: str | None = None
        self.records = 0
        self.commits = 0
        self.fsyncs = 0

    # -- transactions ------------------------------------------------------

    def begin(self, marker: str | None = None) -> int:
        """Open (or join) a transaction; returns its id."""
        self._check_open()
        if self._depth == 0:
            self._txn = self._txn_counter
            self._txn_counter += 1
            self._marker = marker
        elif marker is not None and self._marker is None:
            self._marker = marker
        self._depth += 1
        return self._txn

    def end(self) -> None:
        """Leave the transaction; the outermost exit appends the commit."""
        self._check_open()
        self._depth -= 1
        if self._depth == 0:
            record = {"type": "commit"}
            if self._marker is not None:
                record["marker"] = self._marker
            self._append(record)
            self.commits += 1
            _COMMITS.inc()
            self._txn = 0
            self._marker = None
            self._commit_sync()

    def abort(self) -> None:
        """Leave the transaction without committing it.

        The records already appended stay in the log but carry a txn id
        no commit record ever names, so recovery discards them.  An
        explicit ``abort`` record is appended for log legibility.
        """
        self._check_open()
        self._depth -= 1
        if self._depth == 0:
            self._append({"type": "abort"})
            self._txn = 0
            self._marker = None

    # -- record helpers ----------------------------------------------------

    def log_create_table(self, schema) -> None:
        record = {
            "type": "create_table",
            "table": schema.name,
            "columns": [
                [c.name, repr(c.sql_type), bool(c.primary_key)]
                for c in schema.columns
            ],
        }
        self._append(record)

    def log_drop_table(self, name: str) -> None:
        self._append({"type": "drop_table", "table": name})

    def log_create_index(self, definition) -> None:
        self._append({
            "type": "create_index",
            "name": definition.name,
            "table": definition.table,
            "column": definition.column,
            "kind": definition.kind,
            "unique": bool(definition.unique),
        })

    def log_insert(self, table: str, row) -> None:
        # no per-value encode pass: the serializer escapes XADT/bytes
        # values through the json default hook (see _escape_value)
        self._append({"type": "insert", "table": table, "row": row})

    def log_bulk_insert(self, table: str, rows) -> None:
        # a regular batch packs as one C-speed marshal blob (its XADT
        # columns as payloads); an irregular one takes the escaped JSON
        # path
        packing = _pack(rows)
        if packing is None:
            self._append({"type": "bulk_insert", "table": table,
                          "rows": rows})
            return
        packed, xadt = packing
        self._check_open()
        if FAULTS.active:
            FAULTS.fire("wal.append")
        xadt_field = b'"xadt":%s,' % json.dumps(xadt).encode() if xadt else b""
        # base64 is JSON-safe by construction, so the line is spliced
        # directly instead of paying a json.dumps scan of the payload
        line = (
            b'{"type":"bulk_insert","table":%s,"packed":"%s",%s'
            b'"lsn":%d,"txn":%d}'
            % (json.dumps(table).encode("utf-8"),
               base64.b64encode(packed), xadt_field, self._lsn, self._txn)
        )
        self._push(line)

    def log_runstats(self, table: str | None) -> None:
        self._append({"type": "runstats", "table": table})

    def log_recovery_boundary(self, dropped_records: int) -> None:
        """Mark a recovery point: uncommitted records before it are dead.

        Without the boundary, a transaction left open by a crash could
        alias the ids of transactions written after recovery reuses the
        log file.  Replay resets its pending-transaction table here.
        """
        self._append({"type": "recovery", "dropped": dropped_records})
        self.flush(sync=True)

    # -- the append/flush machinery ----------------------------------------

    def _append(self, record: dict) -> None:
        self._check_open()
        if FAULTS.active:
            FAULTS.fire("wal.append")
        record["lsn"] = self._lsn
        record["txn"] = self._txn
        line = json.dumps(
            record, ensure_ascii=False, separators=(",", ":"),
            default=_escape_value,
        )
        self._push(line.encode("utf-8"))

    def _push(self, line: bytes) -> None:
        self._lsn += 1
        self.records += 1
        self._buffer.append(line)
        self._buffered_bytes += len(line) + 1
        _APPENDS.inc()

    def _commit_sync(self) -> None:
        if self.sync_mode == "always":
            self.flush(sync=True)
        elif self.sync_mode == "group":
            if time.monotonic() - self._last_fsync >= self.group_window_seconds:
                self.flush(sync=True)
            else:
                _GROUP_RIDES.inc()
        # "off": buffered until close()/flush()

    def flush(self, sync: bool = True) -> None:
        """Write the buffer to the file; ``sync`` adds the fsync."""
        self._check_open()
        if self._buffer:
            if FAULTS.active:
                FAULTS.fire("wal.fsync")
            payload = b"\n".join(self._buffer) + b"\n"
            self._file.write(payload)
            self._buffer = []
            self._buffered_bytes = 0
            _BYTES.inc(len(payload))
        if sync:
            # the span doubles as the statement profiler's wal.fsync wait
            with TRACER.span("wal.fsync", cat="wal"):
                self._file.flush()
                _SYNC(self._file.fileno())
            self._last_fsync = time.monotonic()
            self.fsyncs += 1
            _FSYNCS.inc()

    def abandon(self) -> None:
        """Simulate the crash: drop buffered records, close without writing."""
        if self._file is not None:
            self._buffer = []
            self._buffered_bytes = 0
            self._file.close()
            self._file = None

    def close(self) -> None:
        """Durably flush and close."""
        if self._file is not None:
            self.flush(sync=True)
            self._file.close()
            self._file = None

    @property
    def closed(self) -> bool:
        return self._file is None

    @property
    def next_lsn(self) -> int:
        return self._lsn

    @property
    def buffered_bytes(self) -> int:
        return self._buffered_bytes

    def _check_open(self) -> None:
        if self._file is None:
            raise WalError(f"write-ahead log {self.path!r} is closed")

    def report(self) -> dict[str, object]:
        return {
            "path": self.path,
            "sync_mode": self.sync_mode,
            "group_window_seconds": self.group_window_seconds,
            "next_lsn": self._lsn,
            "records": self.records,
            "commits": self.commits,
            "fsyncs": self.fsyncs,
            "buffered_bytes": self._buffered_bytes,
            "closed": self.closed,
        }

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({self.path!r}, lsn={self._lsn}, "
            f"{self.records} records, {self.commits} commits)"
        )


__all__ = [
    "DEFAULT_GROUP_WINDOW",
    "SYNC_MODES",
    "WriteAheadLog",
    "decode_bulk_rows",
    "decode_row",
    "decode_value",
    "encode_row",
    "encode_value",
]
