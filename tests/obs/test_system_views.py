"""The sys.* system views, queried through ordinary SQL.

The views are catalog-registered relations served by
:class:`~repro.engine.system_views.SystemViewTable`, so every test here
goes through the real parser, planner, plan cache, and executor — no
side doors.  What matters beyond "the rows come back":

* the numbers agree with the underlying telemetry APIs
  (``METRICS.snapshot()``, ``STATEMENTS.statements()``);
* snapshot semantics: a pinned session sees the ``sys_tables`` extents
  of *its* snapshot while live sessions see the moving tail;
* the ``sys_`` namespace is reserved — writes and DDL are refused.
"""

from __future__ import annotations

import pytest

from repro.engine.database import Database
from repro.errors import CatalogError, ExecutionError
from repro.obs import METRICS, STATEMENTS

VIEW_NAMES = (
    "sys_metrics", "sys_sessions", "sys_tables", "sys_indexes",
    "sys_statements", "sys_wal",
)


@pytest.fixture()
def db():
    database = Database("sysviews")
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    database.execute("CREATE INDEX t_v ON t (v)")
    database.bulk_insert("t", [(i, i * 10) for i in range(20)])
    return database


@pytest.fixture()
def statements():
    STATEMENTS.reset()
    STATEMENTS.enable()
    yield STATEMENTS
    STATEMENTS.disable()
    STATEMENTS.reset()


class TestViewsThroughSql:
    def test_every_view_is_selectable(self, db):
        for name in VIEW_NAMES:
            result = db.execute(f"SELECT * FROM {name}")
            assert result.columns, name

    def test_views_appear_in_catalog(self, db):
        for name in VIEW_NAMES:
            assert name in db.catalog.tables

    def test_sys_tables_matches_heap_extents(self, db):
        rows = db.execute(
            "SELECT table_name, row_count, index_count FROM sys_tables"
        ).rows
        by_name = {row[0]: row for row in rows}
        assert by_name["t"][1] == 20
        assert by_name["t"][2] == 1  # t_v (the pk is a heap property)

    def test_sys_indexes_lists_definitions(self, db):
        rows = db.execute(
            "SELECT index_name, table_name, column_name, entries "
            "FROM sys_indexes"
        ).rows
        by_name = {row[0]: row for row in rows}
        assert by_name["t_v"][1] == "t"
        assert by_name["t_v"][2] == "v"
        assert by_name["t_v"][3] == 20

    def test_sys_metrics_agrees_with_snapshot(self, db):
        rows = db.execute(
            "SELECT name, kind, value FROM sys_metrics"
        ).rows
        counters = {row[0]: row[2] for row in rows if row[1] == "counter"}
        snapshot = METRICS.snapshot()
        # rows_inserted is stable across the SELECT itself
        assert counters["storage.rows_inserted"] == float(
            snapshot["counters"]["storage.rows_inserted"]
        )

    def test_sys_sessions_lists_the_default_session(self, db):
        rows = db.execute(
            "SELECT session_id, name, pinned_version FROM sys_sessions"
        ).rows
        by_name = {row[1]: row for row in rows}
        assert "default" in by_name
        assert by_name["default"][2] == -1  # live, not pinned

    def test_sys_wal_reports_detached_for_volatile_db(self, db):
        rows = db.execute("SELECT name, value FROM sys_wal").rows
        assert ("attached", "false") in rows

    def test_sys_wal_reports_attached_log(self, tmp_path):
        database = Database.open(str(tmp_path / "wal.jsonl"))
        rows = database.execute("SELECT name, value FROM sys_wal").rows
        pairs = dict(rows)
        assert pairs["attached"] == "true"
        assert "wal.jsonl" in pairs["path"]
        database.close()

    def test_sys_partitions_is_an_unknown_table(self, db):
        # partition-parallel execution was deleted with its view
        with pytest.raises(CatalogError, match="unknown table 'sys_partitions'"):
            db.execute("SELECT * FROM sys_partitions")


class TestSysStatements:
    def test_order_by_total_ms_runs_through_the_planner(
        self, db, statements
    ):
        for _ in range(3):
            db.execute("SELECT id FROM t WHERE v > 50")
        db.execute("SELECT COUNT(*) FROM t")
        result = db.execute(
            "SELECT query, calls, total_ms, rows_returned "
            "FROM sys_statements ORDER BY total_ms DESC"
        )
        by_key = {row[0]: row for row in result.rows}
        repeated = by_key["SELECT id FROM t WHERE v > 50"]
        assert repeated[1] == 3
        assert repeated[2] > 0.0
        assert repeated[3] == 3 * 14  # ids 6..19, three times
        # ordered slowest-first, matching the collector's own ordering
        totals = [row[2] for row in result.rows]
        assert totals == sorted(totals, reverse=True)

    def test_sys_statements_agrees_with_collector(self, db, statements):
        db.execute("SELECT COUNT(*) FROM t")
        db.execute("SELECT COUNT(*) FROM t")
        rows = db.execute(
            "SELECT query, calls, plan_cache_hits, plan_cache_misses "
            "FROM sys_statements"
        ).rows
        stats = {s.key: s for s in statements.statements()}
        for key, calls, hits, misses in rows:
            # the collector keeps aggregating after the scan; compare
            # against its current numbers for stable fields
            assert stats[key].calls >= calls
            assert stats[key].plan_cache_hits >= hits
            assert stats[key].plan_cache_misses >= misses
        counted = {row[0]: row for row in rows}
        assert counted["SELECT COUNT(*) FROM t"][1] == 2
        assert counted["SELECT COUNT(*) FROM t"][2] == 1  # second call hit
        assert counted["SELECT COUNT(*) FROM t"][3] == 1


class TestSnapshotSemantics:
    def test_pinned_session_sees_stable_sys_tables(self, db):
        frozen = db.connect(name="frozen", auto_refresh=False)
        before = {
            row[0]: row[1]
            for row in frozen.execute(
                "SELECT table_name, row_count FROM sys_tables"
            ).rows
        }
        db.bulk_insert("t", [(100 + i, 0) for i in range(30)])
        after = {
            row[0]: row[1]
            for row in frozen.execute(
                "SELECT table_name, row_count FROM sys_tables"
            ).rows
        }
        assert before["t"] == after["t"] == 20
        live = {
            row[0]: row[1]
            for row in db.execute(
                "SELECT table_name, row_count FROM sys_tables"
            ).rows
        }
        assert live["t"] == 50
        frozen.refresh()
        refreshed = {
            row[0]: row[1]
            for row in frozen.execute(
                "SELECT table_name, row_count FROM sys_tables"
            ).rows
        }
        assert refreshed["t"] == 50
        frozen.close()

    def test_sys_metrics_stays_live_under_a_pin(self, db):
        # telemetry views that do not derive from table state are
        # always current, even for a frozen session
        frozen = db.connect(name="frozen", auto_refresh=False)
        first = {
            row[0]: row[2]
            for row in frozen.execute(
                "SELECT name, kind, value FROM sys_metrics"
            ).rows
        }
        db.bulk_insert("t", [(200 + i, 0) for i in range(10)])
        second = {
            row[0]: row[2]
            for row in frozen.execute(
                "SELECT name, kind, value FROM sys_metrics"
            ).rows
        }
        delta = (
            second["storage.rows_inserted"] - first["storage.rows_inserted"]
        )
        assert delta == 10.0
        frozen.close()


class TestReservedNamespace:
    def test_insert_into_view_is_refused(self, db):
        with pytest.raises(CatalogError, match="reserved"):
            db.insert("sys_metrics", ("x", "counter", 1.0))

    def test_bulk_insert_into_view_is_refused(self, db):
        with pytest.raises(CatalogError, match="reserved"):
            db.bulk_insert("sys_wal", [("a", "b")])

    def test_create_table_in_namespace_is_refused(self, db):
        with pytest.raises(CatalogError, match="reserved"):
            db.execute("CREATE TABLE sys_mine (id INTEGER PRIMARY KEY)")

    def test_drop_view_is_refused(self, db):
        with pytest.raises(CatalogError, match="reserved"):
            db.drop_table("sys_metrics")

    def test_create_index_on_view_is_refused(self, db):
        with pytest.raises(CatalogError, match="reserved"):
            db.execute("CREATE INDEX sys_idx ON sys_metrics (name)")

    def test_direct_heap_write_is_refused(self, db):
        heap = db.heap("sys_metrics")
        with pytest.raises(ExecutionError, match="read-only"):
            heap.insert(("x", "counter", 1.0))
