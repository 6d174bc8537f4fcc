"""Partitioned heaps and partition-parallel scatter-gather execution.

The contract under test, layer by layer:

* routing — :class:`~repro.engine.schema.PartitionSpec` validates its
  shape, routes values deterministically, and range specs prune
  inequality predicates;
* storage — :class:`~repro.engine.storage.PartitionedHeapTable` keeps
  the unified row-id order (k-way-merging the buckets reproduces the
  unpartitioned scan byte for byte) and truncates buckets on rollback;
* DDL and catalog — ``PARTITION BY HASH(...) PARTITIONS n`` and
  ``Database.partition_table`` publish the spec, survive WAL recovery,
  and bump the catalog version so cached plans stay sound;
* planning — partition pruning is visible in EXPLAIN
  (``exchange[k/n parts]``, ``?`` while bind-dependent) and partial
  aggregation / projection push down into the fragments;
* execution — the paper's Fig11/Fig13 workloads return *exactly* the
  unpartitioned results at 1, 2, and 4 workers, through worker crashes
  (respawn + retry) and total pool loss (inline degrade).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.harness import build_database, cold_query
from repro.engine.database import Database
from repro.engine.faults import FAULTS, FaultPlan
from repro.engine.io import work_seconds
from repro.engine.schema import Column, PartitionSpec, TableSchema, stable_hash
from repro.engine.storage import PartitionedHeapTable
from repro.engine.types import INTEGER, VARCHAR
from repro.errors import CatalogError, SqlSyntaxError
from repro.mapping import map_hybrid, map_xorator
from repro.obs import STATEMENTS
from repro.obs.metrics import METRICS
from repro.workloads.shakespeare_queries import SHAKESPEARE_QUERIES
from repro.workloads.shakespeare_queries import workload_sql as qs_workload
from repro.workloads.sigmod_queries import SIGMOD_QUERIES
from repro.workloads.sigmod_queries import workload_sql as qg_workload


def parallel(db: Database, workers: int) -> None:
    db.set_exec_config(
        dataclasses.replace(db.exec_config, parallel_workers=workers)
    )


def partition_every_table(db: Database, partitions: int = 4) -> None:
    """Partition each user table on its first column (hash routing
    accepts any value type, and parity must hold regardless of column)."""
    for name in list(db.catalog.tables):
        if not name.startswith("sys_"):
            db.partition_table(
                name, db.catalog.table(name).columns[0].name, partitions
            )


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------


class TestPartitionSpec:
    def test_needs_at_least_two_partitions(self):
        with pytest.raises(CatalogError):
            PartitionSpec(column="id", partitions=1)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(CatalogError):
            PartitionSpec(column="id", partitions=2, kind="round_robin")

    def test_hash_takes_no_bounds(self):
        with pytest.raises(CatalogError):
            PartitionSpec(column="id", partitions=2, bounds=(10,))

    def test_range_needs_n_minus_one_ascending_bounds(self):
        with pytest.raises(CatalogError):
            PartitionSpec(column="id", partitions=3, kind="range")
        with pytest.raises(CatalogError):
            PartitionSpec(
                column="id", partitions=3, kind="range", bounds=(20, 10)
            )

    def test_hash_routing_is_stable_and_in_range(self):
        spec = PartitionSpec(column="id", partitions=4)
        for value in (0, 1, 7, "abc", None, 3.5):
            p = spec.partition_for(value)
            assert 0 <= p < 4
            assert spec.partition_for(value) == p  # deterministic

    def test_stable_hash_survives_processes(self):
        # CRC-based, not PYTHONHASHSEED-salted: the value a worker
        # computes must match the coordinator's
        assert stable_hash("speech-1") == stable_hash("speech-1")
        assert stable_hash(42) == stable_hash(42)

    def test_range_routing_uses_bounds(self):
        spec = PartitionSpec(
            column="id", partitions=3, kind="range", bounds=(10, 20)
        )
        assert spec.partition_for(5) == 0
        assert spec.partition_for(10) == 1
        assert spec.partition_for(19) == 1
        assert spec.partition_for(20) == 2
        assert spec.partition_for(None) == 0

    def test_range_prune_bounds_inequalities(self):
        spec = PartitionSpec(
            column="id", partitions=3, kind="range", bounds=(10, 20)
        )
        assert spec.prune_range("<", 5) == [0]
        assert spec.prune_range(">=", 20) == [2]
        assert spec.prune_range(">", 10) == [1, 2]
        assert spec.prune_range("=", 5) is None  # equality prunes elsewhere

    def test_hash_never_prunes_ranges(self):
        spec = PartitionSpec(column="id", partitions=4)
        assert spec.prune_range("<", 5) is None


# ---------------------------------------------------------------------------
# storage
# ---------------------------------------------------------------------------


def make_heap(partitions: int = 3) -> PartitionedHeapTable:
    schema = TableSchema(
        "t",
        [Column("id", INTEGER), Column("v", VARCHAR)],
        partition=PartitionSpec(column="id", partitions=partitions),
    )
    return PartitionedHeapTable(schema)


class TestPartitionedHeap:
    def test_row_ids_and_scan_order_are_preserved(self):
        heap = make_heap()
        heap.bulk_insert([(i, f"r{i}") for i in range(50)])
        assert heap.row_count() == 50
        assert [heap.fetch(i)[0] for i in range(50)] == list(range(50))
        merged = sorted(
            (rid, row)
            for p in range(3)
            for rid, row in heap.partition_rows(p)
        )
        assert [rid for rid, _ in merged] == list(range(50))

    def test_buckets_partition_the_row_ids(self):
        heap = make_heap()
        heap.bulk_insert([(i, "x") for i in range(30)])
        ids = [rid for bucket in heap.buckets for rid in bucket]
        assert sorted(ids) == list(range(30))
        for bucket in heap.buckets:
            assert bucket == sorted(bucket)

    def test_horizon_limits_partition_reads(self):
        heap = make_heap()
        heap.bulk_insert([(i, "x") for i in range(20)])
        visible = sum(len(heap.partition_row_ids(p, limit=10)) for p in range(3))
        assert visible == 10
        for p in range(3):
            assert all(
                rid < 10 for rid in heap.partition_row_ids(p, limit=10)
            )

    def test_rollback_truncates_buckets(self):
        heap = make_heap()
        heap.bulk_insert([(i, "x") for i in range(10)])
        mark = heap.mark()
        heap.bulk_insert([(i, "x") for i in range(10, 25)])
        heap.rollback_to(mark)
        assert heap.row_count() == 10
        ids = [rid for bucket in heap.buckets for rid in bucket]
        assert sorted(ids) == list(range(10))

    def test_partition_bytes_covers_the_heap(self):
        heap = make_heap()
        heap.bulk_insert([(i, "payload" * (i % 5)) for i in range(40)])
        assert sum(heap.partition_bytes(p) for p in range(3)) > 0
        assert all(heap.partition_bytes(p) >= 0 for p in range(3))


# ---------------------------------------------------------------------------
# DDL, catalog, recovery
# ---------------------------------------------------------------------------


class TestDdlAndCatalog:
    def test_create_table_partition_by_hash(self):
        db = Database("ddl")
        db.execute(
            "CREATE TABLE d (doc INTEGER PRIMARY KEY, v INTEGER) "
            "PARTITION BY HASH(doc) PARTITIONS 4"
        )
        spec = db.catalog.table("d").partition
        assert spec is not None
        assert (spec.kind, spec.column, spec.partitions) == ("hash", "doc", 4)
        assert isinstance(db.engine.heap("d"), PartitionedHeapTable)

    def test_ddl_rejects_range_kind(self):
        db = Database("ddl")
        with pytest.raises(SqlSyntaxError):
            db.execute(
                "CREATE TABLE d (doc INTEGER) "
                "PARTITION BY RANGE(doc) PARTITIONS 4"
            )

    def test_partition_table_rebuilds_existing_heap(self):
        db = Database("ddl")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("CREATE INDEX t_v ON t (v)")
        db.bulk_insert("t", [(i, i * 2) for i in range(100)])
        before = db.execute("SELECT id, v FROM t WHERE v > 50").rows
        db.partition_table("t", "id", 4)
        heap = db.engine.heap("t")
        assert isinstance(heap, PartitionedHeapTable)
        assert sum(heap.partition_counts()) == 100
        assert len(heap.indexes) == 1  # rebuilt against the new heap
        assert db.execute("SELECT id, v FROM t WHERE v > 50").rows == before

    def test_partition_table_bumps_catalog_version(self):
        db = Database("ddl")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        before = db.catalog_version
        db.partition_table("t", "id", 2)
        assert db.catalog_version > before

    def test_range_partitioning_via_api(self):
        db = Database("ddl")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.bulk_insert("t", [(i, i) for i in range(30)])
        db.partition_table("t", "id", 3, kind="range", bounds=(10, 20))
        heap = db.engine.heap("t")
        assert heap.partition_counts() == [10, 10, 10]

    def test_recovery_replays_partition_layout(self, tmp_path):
        path = str(tmp_path / "part.jsonl")
        db = Database.open(path)
        db.execute(
            "CREATE TABLE d (doc INTEGER PRIMARY KEY, v VARCHAR) "
            "PARTITION BY HASH(doc) PARTITIONS 4"
        )
        db.bulk_insert("d", [(i, f"v{i}") for i in range(40)])
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.bulk_insert("t", [(i, i) for i in range(20)])
        db.partition_table("t", "id", 3, kind="range", bounds=(7, 14))
        db.bulk_insert("t", [(i, i) for i in range(20, 30)])
        expected_d = db.execute("SELECT doc, v FROM d").rows
        expected_t = db.execute("SELECT id, v FROM t").rows
        layout = db.engine.heap("t").partition_counts()
        db.close()

        recovered = Database.open(path, recover=True)
        assert recovered.execute("SELECT doc, v FROM d").rows == expected_d
        assert recovered.execute("SELECT id, v FROM t").rows == expected_t
        heap = recovered.engine.heap("t")
        assert isinstance(heap, PartitionedHeapTable)
        assert heap.spec.kind == "range"
        assert heap.spec.bounds == (7, 14)
        assert heap.partition_counts() == layout
        assert isinstance(recovered.engine.heap("d"), PartitionedHeapTable)
        recovered.close()


# ---------------------------------------------------------------------------
# planning: pruning, pushdown, default mode
# ---------------------------------------------------------------------------


@pytest.fixture()
def pdb():
    """100 rows hash-partitioned 4 ways, 2 workers configured."""
    db = Database("plan")
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, g INTEGER) "
        "PARTITION BY HASH(id) PARTITIONS 4"
    )
    db.bulk_insert("t", [(i, i * 3, i % 5) for i in range(100)])
    db.runstats()
    parallel(db, 2)
    yield db
    db.close()


class TestPlanning:
    def test_default_mode_has_no_exchange(self, pdb):
        parallel(pdb, 0)
        assert "Exchange" not in pdb.explain("SELECT id FROM t")

    def test_full_scan_shows_all_partitions(self, pdb):
        plan = pdb.explain("SELECT id FROM t")
        assert "exchange[4/4 parts]" in plan
        assert "workers=2" in plan

    def test_literal_equality_prunes_to_one_partition(self, pdb):
        plan = pdb.explain("SELECT v FROM t WHERE id = 7")
        assert "exchange[1/4 parts]" in plan

    def test_parameter_shows_bind_dependent_pruning(self, pdb):
        plan = pdb.explain("SELECT v FROM t WHERE id = ?")
        assert "exchange[?/4 parts]" in plan

    def test_range_pruning_on_range_partitions(self):
        db = Database("plan")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.bulk_insert("t", [(i, i) for i in range(30)])
        db.partition_table("t", "id", 3, kind="range", bounds=(10, 20))
        db.runstats()
        parallel(db, 2)
        assert "exchange[1/3 parts]" in db.explain(
            "SELECT v FROM t WHERE id < 5"
        )
        assert "exchange[2/3 parts]" in db.explain(
            "SELECT v FROM t WHERE id >= 10"
        )
        db.close()

    def test_partial_agg_is_pushed_down(self, pdb):
        plan = pdb.explain("SELECT COUNT(*), SUM(v) FROM t")
        assert "partial-agg" in plan

    def test_projection_is_pushed_down(self, pdb):
        plan = pdb.explain("SELECT v FROM t WHERE v > 10")
        assert "project[v]" in plan
        assert "Project" not in plan.replace("project[", "")

    def test_pruned_queries_return_unpruned_results(self, pdb):
        expected = {(i, i * 3, i % 5) for i in range(100)}
        got = set()
        for key in range(100):
            rows = pdb.execute(f"SELECT id, v, g FROM t WHERE id = {key}").rows
            got.update(rows)
        assert got == expected

    def test_prepared_statement_prunes_per_bind(self, pdb):
        stmt = pdb.prepare("SELECT v FROM t WHERE id = ?")
        for key in (3, 57, 99):
            assert stmt.execute(key).rows == [(key * 3,)]

    def test_aggregates_match_unpartitioned(self, pdb):
        sql = (
            "SELECT g, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) "
            "FROM t GROUP BY g"
        )
        with_pool = pdb.execute(sql).rows
        parallel(pdb, 0)
        assert pdb.execute(sql).rows == with_pool

    def test_grand_total_over_pruned_to_empty(self, pdb):
        # equality on a value no row has still answers COUNT(*) = 0
        assert pdb.execute(
            "SELECT COUNT(*) FROM t WHERE id = 1000"
        ).rows == [(0,)]


# ---------------------------------------------------------------------------
# execution: workload parity, crashes, accounting
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def partitioned_workloads(
    shakespeare_docs, shakespeare_simplified, sigmod_docs, sigmod_simplified
):
    """Fig11 + Fig13 databases with every table partitioned 4 ways,
    paired with the expected (unpartitioned, serial) result sets."""
    sides = {}
    for dataset, docs, simplified, queries, workload in (
        ("shakespeare", shakespeare_docs, shakespeare_simplified,
         SHAKESPEARE_QUERIES, qs_workload),
        ("sigmod", sigmod_docs, sigmod_simplified,
         SIGMOD_QUERIES, qg_workload),
    ):
        for algorithm, mapper in (
            ("hybrid", map_hybrid), ("xorator", map_xorator),
        ):
            loaded = build_database(
                algorithm, mapper(simplified), docs, workload(algorithm)
            )
            sqls = [
                q.hybrid_sql if algorithm == "hybrid" else q.xorator_sql
                for q in queries
            ]
            expected = [loaded.db.execute(sql).rows for sql in sqls]
            partition_every_table(loaded.db)
            sides[(dataset, algorithm)] = (loaded.db, sqls, expected)
    yield sides
    for db, _, _ in sides.values():
        db.close()


class TestWorkloadParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fig11_fig13_byte_parity(self, partitioned_workloads, workers):
        for (dataset, algorithm), (db, sqls, expected) in (
            partitioned_workloads.items()
        ):
            parallel(db, workers)
            for sql, want in zip(sqls, expected):
                got = db.execute(sql).rows
                assert got == want, (dataset, algorithm, workers, sql)

    def test_worker_crash_is_retried_without_wrong_results(
        self, partitioned_workloads
    ):
        db, sqls, expected = partitioned_workloads[("shakespeare", "xorator")]
        parallel(db, 2)
        db.worker_pool()  # spawn before arming so the fault hits dispatch
        respawns = METRICS.counter("exchange.worker_respawns").value
        FAULTS.install(FaultPlan().raise_at("worker.crash", hit=1))
        try:
            assert db.execute(sqls[0]).rows == expected[0]
        finally:
            FAULTS.clear()
        assert METRICS.counter("exchange.worker_respawns").value > respawns

    def test_total_pool_loss_degrades_inline(self, partitioned_workloads):
        db, sqls, expected = partitioned_workloads[("shakespeare", "xorator")]
        parallel(db, 2)
        fallbacks = METRICS.counter("exchange.inline_fallbacks").value
        FAULTS.install(
            FaultPlan().raise_at("worker.crash", probability=1.0)
        )
        try:
            assert db.execute(sqls[0]).rows == expected[0]
        finally:
            FAULTS.clear()
        assert (
            METRICS.counter("exchange.inline_fallbacks").value > fallbacks
        )


class TestAccounting:
    def test_parallel_scan_charges_widest_partition(self, pdb):
        parallel(pdb, 0)
        pdb.io.reset()
        pdb.execute("SELECT id FROM t")
        serial = pdb.io.snapshot()
        parallel(pdb, 2)
        pdb.io.reset()
        pdb.execute("SELECT id FROM t")
        seq, random, spill = pdb.io.snapshot()
        assert seq <= serial[0]  # widest partition, not the sum
        assert random >= 1       # one parallel dispatch seek
        assert spill == serial[2]

    def test_overlap_credit_is_all_lanes_but_the_busiest(self, pdb):
        # 4 partitions of 25 rows over 2 workers: two equal lanes of 50
        # rows scanned and projected, one of which overlaps the other
        run = cold_query(pdb, "SELECT v FROM t")
        assert run.work["scan_rows"] == run.work["operator_rows"] == 100
        assert run.cpu_seconds == work_seconds(
            {"scan_rows": 50, "operator_rows": 50}
        )
        assert work_seconds(pdb.io.overlapped) == run.cpu_seconds
        assert run.modeled_seconds == run.cpu_seconds + run.disk_seconds

    def test_serial_runs_have_no_overlap_credit(self, pdb):
        parallel(pdb, 0)
        run = cold_query(pdb, "SELECT v FROM t WHERE v > 10")
        assert not any(pdb.io.overlapped.values())
        assert run.cpu_seconds == work_seconds(run.work)

    def test_exchange_wait_is_attributed(self, pdb):
        STATEMENTS.reset()
        STATEMENTS.enable()
        try:
            pdb.execute("SELECT v FROM t WHERE v > 10")
            stats = STATEMENTS.statement("SELECT v FROM t WHERE v > 10")
            assert stats is not None
            assert stats.waits.get("exchange", 0.0) > 0.0
        finally:
            STATEMENTS.disable()
            STATEMENTS.reset()
