"""Crash recovery: replay a write-ahead log into a fresh engine.

``Database.open(path, recover=True)`` lands here.  Recovery reads the
JSONL log produced by :class:`~repro.engine.wal.WriteAheadLog` and
rebuilds the catalog, heaps, and indexes to the state of the **last
durable commit**:

1. **Scan** — read records in file order.  A line that fails to decode
   is a torn tail (the crash interrupted a write); scanning stops there
   and everything after is ignored.
2. **Filter** — records are staged per transaction id; only
   transactions whose ``commit`` record was read are replayed.  An
   ``abort`` record, or a ``recovery`` boundary written by a previous
   recovery, discards the staged records it covers, so transaction ids
   reused across a crash cannot alias.
3. **Replay** — committed transactions apply in commit (LSN) order
   through the normal ``Database`` write paths with logging suppressed:
   replay re-derives every secondary structure (page accounting,
   indexes, statistics) from the logged logical operations, which is
   what makes recovered query results byte-identical to an
   uninterrupted run.

Recovery invariants (asserted by the chaos tests):

* the recovered engine/catalog versions are monotonic continuations —
  each replayed transaction republishes through the writer lock;
* replay is idempotent: recovering the same log twice yields equal
  states, because the log is the single source of truth;
* the recovered WAL appends *after* the existing records (the file is
  not rewritten), starting with a ``recovery`` boundary record.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine.config import ExecutionConfig
from repro.engine.schema import Column, PartitionSpec, TableSchema
from repro.engine.types import type_from_name
from repro.engine.wal import WriteAheadLog, decode_bulk_rows, decode_row
from repro.errors import RecoveryError
from repro.obs.metrics import METRICS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database

#: ``exec_config`` keys older logs carry for the execution modes that no
#: longer exist; replay drops exactly these, any other unknown key is an error
_RETIRED_CONFIG_KEYS = frozenset(
    {"batch_size", "compiled_expressions", "scan_pushdown"}
)

_RECOVERIES = METRICS.counter("wal.recoveries")
_REPLAYED = METRICS.counter("wal.records_replayed")


@dataclass
class RecoveryReport:
    """What one recovery pass read, replayed, and discarded."""

    path: str
    records_read: int = 0
    records_replayed: int = 0
    transactions_committed: int = 0
    transactions_dropped: int = 0
    torn_tail: bool = False
    max_lsn: int = 0
    max_txn: int = 0
    #: markers of committed transactions, in commit order (the loader
    #: stamps one per document, so callers can resume a bulk load)
    markers: list[str] = field(default_factory=list)

    def has_marker(self, marker: str) -> bool:
        return marker in self.markers


def read_log(path: str) -> tuple[list[dict], RecoveryReport]:
    """Scan the log; returns committed records in replay order + report."""
    report = RecoveryReport(path=os.fspath(path))
    staged: dict[int, list[dict]] = {}
    committed: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                kind = record["type"]
                txn = record["txn"]
                lsn = record["lsn"]
            except (json.JSONDecodeError, KeyError, TypeError):
                # torn tail: the crash interrupted this write — nothing
                # after a torn line can be trusted
                report.torn_tail = True
                break
            report.records_read += 1
            report.max_lsn = max(report.max_lsn, lsn)
            report.max_txn = max(report.max_txn, txn)
            if kind == "commit":
                committed.extend(staged.pop(txn, []))
                report.transactions_committed += 1
                marker = record.get("marker")
                if marker is not None:
                    report.markers.append(marker)
            elif kind == "abort":
                if staged.pop(txn, None) is not None:
                    report.transactions_dropped += 1
            elif kind == "recovery":
                # boundary: transactions left open before it are dead
                report.transactions_dropped += len(staged)
                staged.clear()
            else:
                staged.setdefault(txn, []).append(record)
    report.transactions_dropped += len(staged)
    return committed, report


def _apply(db: "Database", record: dict) -> None:
    kind = record["type"]
    if kind == "create_table":
        columns = [
            Column(name, type_from_name(type_name), primary_key)
            for name, type_name, primary_key in record["columns"]
        ]
        partition = _decode_partition(record.get("partition"))
        db.create_table(
            TableSchema(record["table"], columns, partition=partition)
        )
    elif kind == "partition_table":
        db.partition_table(
            record["table"],
            record["column"],
            record["partitions"],
            kind=record["kind"],
            bounds=tuple(record["bounds"]) if record["bounds"] else None,
        )
    elif kind == "drop_table":
        db.drop_table(record["table"])
    elif kind == "create_index":
        db.create_index(
            record["name"], record["table"], record["column"],
            record["kind"], record["unique"],
        )
    elif kind == "insert":
        db.insert(record["table"], decode_row(record["row"]))
    elif kind == "bulk_insert":
        db.bulk_insert(record["table"], decode_bulk_rows(record))
    elif kind == "runstats":
        db.runstats(record["table"])
    elif kind == "exec_config":
        kept = {
            key: value
            for key, value in record["config"].items()
            if key not in _RETIRED_CONFIG_KEYS
        }
        try:
            config = ExecutionConfig(**kept)
        except TypeError as exc:
            raise RecoveryError(f"bad exec_config record: {exc}") from exc
        db.set_exec_config(config)
    else:
        raise RecoveryError(f"unknown WAL record type {kind!r}")


def _decode_partition(payload: dict | None) -> "PartitionSpec | None":
    if payload is None:
        return None
    bounds = payload["bounds"]
    return PartitionSpec(
        column=payload["column"],
        partitions=payload["partitions"],
        kind=payload["kind"],
        bounds=tuple(bounds) if bounds else None,
    )


def recover_database(
    path: str,
    name: str = "db",
    sync_mode: str = "group",
    group_window_seconds: float | None = None,
    **database_kwargs,
) -> "Database":
    """Replay the WAL at ``path`` into a fresh :class:`Database`.

    The returned database has the log re-attached in append mode (with
    a fresh ``recovery`` boundary record) and carries the
    :class:`RecoveryReport` as ``db.recovery_report``.
    """
    from repro.engine.database import Database

    if not os.path.exists(path):
        raise RecoveryError(f"no write-ahead log at {path!r}")
    committed, report = read_log(path)
    db = Database(name, **database_kwargs)
    for record in committed:
        try:
            _apply(db, record)
        except RecoveryError:
            raise
        except Exception as exc:
            raise RecoveryError(
                f"replay failed at lsn {record.get('lsn')} "
                f"({record.get('type')}): {exc}"
            ) from exc
    report.records_replayed = len(committed)
    _REPLAYED.inc(len(committed))
    _RECOVERIES.inc()
    wal_kwargs = {"sync_mode": sync_mode}
    if group_window_seconds is not None:
        wal_kwargs["group_window_seconds"] = group_window_seconds
    wal = WriteAheadLog(
        path,
        create=False,
        start_lsn=report.max_lsn + 1,
        start_txn=report.max_txn + 1,
        **wal_kwargs,
    )
    wal.log_recovery_boundary(
        report.records_read - report.records_replayed
    )
    db.attach_wal(wal)
    db.recovery_report = report
    return db


__all__ = ["RecoveryReport", "read_log", "recover_database"]
