"""SQL-queryable system views: the engine's telemetry as relations.

The paper's thesis is that XML belongs *inside* the ORDBMS; this module
applies the same discipline to the engine's own runtime state.  Seven
``sys_*`` virtual tables are registered in the catalog as read-only
relations whose "heap" materializes a live snapshot at scan time, so

    SELECT * FROM sys_statements ORDER BY total_ms DESC

runs through the normal parser, planner, plan cache, and vectorized
executor — no side channel, no special syntax:

* ``sys_metrics``     — every counter/gauge/histogram of ``METRICS``;
* ``sys_sessions``    — open sessions with per-kind query counts and
  the statement collector's per-session aggregates;
* ``sys_tables``      — per-table rows/pages/bytes (snapshot-aware: a
  pinned session sees the extents of *its* snapshot, not the live tail);
* ``sys_indexes``     — catalog index definitions with live entry/byte
  counts;
* ``sys_statements``  — the pg_stat_statements view over
  :data:`repro.obs.statements.STATEMENTS`;
* ``sys_wal``         — the write-ahead log's report;
* ``sys_connections`` — the network front-end's live connections
  (process-wide: the server is a process-level component, like the
  metrics registry).

A :class:`SystemViewTable` subclasses :class:`~repro.engine.storage.HeapTable`
so every physical operator treats it like any other table, with three
twists: scans ignore the snapshot horizon (``SeqScan`` clamps unknown
heaps to zero rows under a pin — telemetry is *supposed* to be live,
except where a provider itself consults the pinned snapshot), writes are
refused, and nothing is ever published into engine snapshots (the views
are registered in the catalog only, never in ``engine._heaps``, so they
cannot leak into version publishing, ``runstats``, or size accounting).
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable

from repro.engine.schema import Column, TableSchema
from repro.engine.snapshot import current_context
from repro.engine.storage import HeapTable
from repro.engine.types import DOUBLE, INTEGER, VARCHAR
from repro.errors import ExecutionError
from repro.obs.metrics import METRICS
from repro.obs.statements import STATEMENTS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database

#: reserved name prefix; DDL on it is refused
SYSTEM_VIEW_PREFIX = "sys_"


def is_system_view_name(name: str) -> bool:
    return name.lower().startswith(SYSTEM_VIEW_PREFIX)


class SystemViewTable(HeapTable):
    """A read-only virtual table materialized fresh on every scan."""

    #: a provider's rows are never validated
    typed = False

    def __init__(
        self, schema: TableSchema, provider: Callable[[], Iterable[tuple]]
    ) -> None:
        super().__init__(schema)
        self._provider = provider

    # -- reads (always live; the provider decides snapshot semantics) ------

    def materialize(self) -> list[tuple]:
        return [tuple(row) for row in self._provider()]

    def scan(self, limit: int | None = None):
        # ``limit`` is the snapshot horizon for real heaps; a virtual
        # table has no row-version array, so it does not apply
        return iter(self.materialize())

    def scan_batches(self, size: int, limit: int | None = None):
        rows = self.materialize()
        for start in range(0, len(rows), size):
            yield rows[start : start + size]

    def fetch(self, row_id: int) -> tuple:
        return self.materialize()[row_id]

    def row_count(self) -> int:
        return len(self.materialize())

    # -- writes are refused (``insert`` is a batch of one) -------------------

    def bulk_insert(self, rows) -> int:
        raise ExecutionError(
            f"system view {self.schema.name!r} is read-only"
        )

    def __repr__(self) -> str:
        return f"SystemViewTable({self.schema.name})"


def _histogram_quantile(data: dict, q: float) -> float:
    """The q-quantile a snapshot histogram dict implies (upper bound)."""
    count = data["count"]
    if not count:
        return 0.0
    buckets = data["buckets"]
    target = q * count
    for index, running in enumerate(data["cumulative"]):
        if running >= target:
            return buckets[min(index, len(buckets) - 1)]
    return buckets[-1]


# -- providers (each returns the view's rows from live state) --------------


def _metrics_rows(db: "Database") -> list[tuple]:
    snapshot = METRICS.snapshot()
    rows: list[tuple] = []
    for name, value in snapshot["counters"].items():
        rows.append((name, "counter", float(value)))
    for name, value in snapshot["gauges"].items():
        rows.append((name, "gauge", float(value)))
    for name, data in snapshot["histograms"].items():
        rows.append((f"{name}.count", "histogram", float(data["count"])))
        rows.append((f"{name}.sum", "histogram", float(data["sum"])))
        rows.append(
            (f"{name}.p95", "histogram", _histogram_quantile(data, 0.95))
        )
    return rows


def _sessions_rows(db: "Database") -> list[tuple]:
    per_session = STATEMENTS.session_stats()
    rows: list[tuple] = []
    for session in db.sessions():
        stats = per_session.get(session.session_id)
        pinned = session.snapshot_version
        rows.append((
            session.session_id,
            session.name,
            -1 if pinned is None else pinned,
            session.query_counts.get("select", 0),
            session.query_counts.get("insert", 0),
            session.query_counts.get("ddl", 0),
            0 if stats is None else stats.statements,
            0 if stats is None else stats.errors,
            0.0 if stats is None else stats.total_seconds * 1000.0,
            0 if stats is None else stats.rows_returned,
            0 if stats is None else stats.bytes_returned,
        ))
    return rows


def _tables_rows(db: "Database") -> list[tuple]:
    context = current_context()
    snapshot = None if context is None else context.snapshot
    rows: list[tuple] = []
    if snapshot is not None:
        # a pinned reader sees the extents of its snapshot: stable
        # across concurrent writers until the session re-pins
        for key, heap in snapshot.heaps.items():
            version = snapshot.tables.get(heap)
            rows.append((
                heap.schema.name,
                0 if version is None else version.row_count,
                0 if version is None else version.pages,
                0 if version is None else version.used_bytes,
                len(snapshot.catalog.indexes_on(key)),
            ))
        return sorted(rows)
    for key, heap in db.engine.heaps().items():
        # capture_version() reports the same (rows, pages, used-bytes)
        # triple a published TableVersion would, so live and pinned
        # rows stay comparable
        version = heap.capture_version()
        rows.append((
            heap.schema.name,
            version.row_count,
            version.pages,
            version.used_bytes,
            len(db.catalog.indexes_on(key)),
        ))
    return sorted(rows)


def _indexes_rows(db: "Database") -> list[tuple]:
    context = current_context()
    snapshot = None if context is None else context.snapshot
    if snapshot is not None:
        catalog, structures = snapshot.catalog, snapshot.indexes
    else:
        catalog, structures = db.catalog, db.engine.indexes()
    rows: list[tuple] = []
    for key, definition in catalog.indexes.items():
        index = structures.get(key)
        rows.append((
            definition.name,
            definition.table,
            definition.column,
            definition.kind,
            1 if definition.unique else 0,
            0 if index is None else getattr(index, "_entries", 0),
            0 if index is None else index.byte_size(),
        ))
    return sorted(rows)


def _statements_rows(db: "Database") -> list[tuple]:
    rows: list[tuple] = []
    for stats in STATEMENTS.statements():
        rows.append((
            stats.key,
            stats.kind,
            stats.calls,
            stats.errors,
            stats.total_seconds * 1000.0,
            stats.mean_seconds * 1000.0,
            stats.p95_seconds * 1000.0,
            stats.rows_returned,
            stats.bytes_returned,
            stats.plan_cache_hits,
            stats.plan_cache_misses,
            stats.decode_cache_hits,
            stats.governor_aborts,
            stats.wal_bytes,
        ))
    return rows


def _wal_rows(db: "Database") -> list[tuple]:
    wal = db.wal
    if wal is None:
        return [("attached", "false")]
    report = wal.report()
    rows = [("attached", "true")]
    for name in sorted(report):
        rows.append((name, str(report[name])))
    return rows


def _connections_rows(db: "Database") -> list[tuple]:
    # lazy: the server package is optional at runtime and imports the
    # engine; pulling it in here would cycle and cost every database
    # the import even when no server runs
    from repro.server.registry import CONNECTIONS

    return [
        tuple(-1 if cell is None else cell for cell in row)
        for row in CONNECTIONS.rows()
    ]


def _schema(name: str, columns: list[tuple[str, object]]) -> TableSchema:
    return TableSchema(
        name, [Column(cname, ctype) for cname, ctype in columns]
    )


#: view name -> (schema columns, provider)
_VIEW_DEFS: dict[str, tuple[list[tuple[str, object]], Callable]] = {
    "sys_metrics": (
        [("name", VARCHAR), ("kind", VARCHAR), ("value", DOUBLE)],
        _metrics_rows,
    ),
    "sys_sessions": (
        [
            ("session_id", INTEGER), ("name", VARCHAR),
            ("pinned_version", INTEGER), ("selects", INTEGER),
            ("inserts", INTEGER), ("ddl", INTEGER),
            ("statements", INTEGER), ("errors", INTEGER),
            ("total_ms", DOUBLE), ("rows_returned", INTEGER),
            ("bytes_returned", INTEGER),
        ],
        _sessions_rows,
    ),
    "sys_tables": (
        [
            ("table_name", VARCHAR), ("row_count", INTEGER),
            ("pages", INTEGER), ("bytes", INTEGER),
            ("index_count", INTEGER),
        ],
        _tables_rows,
    ),
    "sys_indexes": (
        [
            ("index_name", VARCHAR), ("table_name", VARCHAR),
            ("column_name", VARCHAR), ("kind", VARCHAR),
            ("is_unique", INTEGER), ("entries", INTEGER),
            ("bytes", INTEGER),
        ],
        _indexes_rows,
    ),
    "sys_statements": (
        [
            ("query", VARCHAR), ("kind", VARCHAR), ("calls", INTEGER),
            ("errors", INTEGER), ("total_ms", DOUBLE),
            ("mean_ms", DOUBLE), ("p95_ms", DOUBLE),
            ("rows_returned", INTEGER), ("bytes_returned", INTEGER),
            ("plan_cache_hits", INTEGER), ("plan_cache_misses", INTEGER),
            ("decode_cache_hits", INTEGER), ("governor_aborts", INTEGER),
            ("wal_bytes", INTEGER),
        ],
        _statements_rows,
    ),
    "sys_wal": (
        [("name", VARCHAR), ("value", VARCHAR)],
        _wal_rows,
    ),
    "sys_connections": (
        [
            ("conn_id", INTEGER), ("client", VARCHAR),
            ("state", VARCHAR), ("session_id", INTEGER),
            ("requests", INTEGER), ("errors", INTEGER),
            ("sheds", INTEGER), ("bytes_in", INTEGER),
            ("bytes_out", INTEGER), ("age_ms", INTEGER),
            ("idle_ms", INTEGER),
        ],
        _connections_rows,
    ),
}


def install_system_views(db: "Database") -> dict[str, SystemViewTable]:
    """Build the sys.* views for ``db`` and register them in its catalog.

    Registration is catalog-only (never WAL-logged, never added to the
    storage engine's heap map), so recovery, snapshot publishing, and
    size accounting are untouched.  Called once from ``Database.__init__``
    before any user DDL, at the catalog's initial version.
    """
    views: dict[str, SystemViewTable] = {}
    version = db.catalog_version
    for name, (columns, provider) in _VIEW_DEFS.items():
        schema = _schema(name, columns)
        # a proxy, not the database: the views must not keep it alive
        views[name] = SystemViewTable(
            schema, partial(provider, weakref.proxy(db))
        )
        db._catalog_mgr.add_table(schema, version)
    return views


__all__ = [
    "SYSTEM_VIEW_PREFIX",
    "SystemViewTable",
    "install_system_views",
    "is_system_view_name",
]
