"""Snapshot isolation and concurrent query execution.

The layered engine's concurrency contract, stress-tested:

* readers racing one writer never observe a torn write — every read
  matches a published snapshot (a whole number of marker batches);
* concurrent execution of the paper's Fig11/Fig13 workloads returns
  exactly the single-threaded results on every reader — sessions on
  plain threads, and clients of the TCP server's session pool;
* engine/catalog versions advance monotonically, and plain inserts
  never invalidate cached plans.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine import CatalogManager, Database
from repro.engine.config import ExecutionConfig
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INTEGER
from repro.errors import CatalogError, ExecutionError
from repro.server import ReproClient, start_server_thread
from repro.server.protocol import jsonable_rows
from repro.workloads.shakespeare_queries import workload_sql as qs_workload
from repro.workloads.sigmod_queries import workload_sql as qg_workload


def make_db():
    db = Database("conc")
    db.execute("CREATE TABLE m (id INTEGER PRIMARY KEY, batch INTEGER)")
    return db


class TestSessionBasics:
    def test_connect_registers_and_close_forgets(self):
        db = make_db()
        session = db.connect(name="probe")
        assert session in db.sessions()
        assert session.session_id >= 1
        session.close()
        assert session not in db.sessions()

    def test_default_session_reads_live(self):
        db = make_db()
        default = db.sessions()[0]
        assert default.snapshot_version is None
        db.insert("m", (1, 0))
        assert len(db.execute("SELECT id FROM m")) == 1

    def test_pinned_session_reads_its_own_writes(self):
        db = make_db()
        with db.connect(name="w") as session:
            session.execute("INSERT INTO m VALUES (1, 0)")
            assert session.execute("SELECT id FROM m").column("id") == [1]

    def test_auto_refresh_sees_other_sessions_writes(self):
        db = make_db()
        with db.connect(name="r") as session:
            assert len(session.execute("SELECT id FROM m")) == 0
            db.insert("m", (1, 0))
            # next statement re-pins to the latest published snapshot
            assert len(session.execute("SELECT id FROM m")) == 1

    def test_frozen_session_ignores_later_writes_until_refresh(self):
        db = make_db()
        db.bulk_insert("m", [(i, 0) for i in range(5)])
        session = db.connect(name="frozen", auto_refresh=False)
        pinned = session.snapshot_version
        db.bulk_insert("m", [(i, 1) for i in range(5, 10)])
        assert len(session.execute("SELECT id FROM m")) == 5
        assert session.snapshot_version == pinned
        session.refresh()
        assert session.snapshot_version > pinned
        assert len(session.execute("SELECT id FROM m")) == 10
        session.close()

    def test_frozen_session_survives_new_indexes(self):
        # DDL publishes a new catalog; the frozen reader keeps planning
        # against the snapshot it pinned
        db = make_db()
        db.bulk_insert("m", [(i, i % 3) for i in range(20)])
        session = db.connect(name="frozen", auto_refresh=False)
        before = session.execute("SELECT id FROM m WHERE batch = 1").rows
        db.create_index("idx_batch", "m", "batch", "hash")
        db.runstats()
        after = session.execute("SELECT id FROM m WHERE batch = 1").rows
        assert sorted(after) == sorted(before)
        session.close()

    def test_closed_session_rejects_statements(self):
        db = make_db()
        session = db.connect()
        session.close()
        with pytest.raises(ExecutionError):
            session.execute("SELECT id FROM m")

    def test_session_query_counts_by_kind(self):
        db = make_db()
        with db.connect(name="counted") as session:
            session.execute("SELECT id FROM m")
            session.execute("SELECT id FROM m")
            session.execute("INSERT INTO m VALUES (1, 0)")
            assert session.query_counts["select"] == 2
            assert session.query_counts["insert"] == 1

    def test_size_report_counts_sessions(self):
        db = make_db()
        with db.connect():
            assert db.size_report()["sessions"] == 2


class TestVersionMonotonicity:
    def test_every_publish_advances_the_engine_version(self):
        db = make_db()
        seen = [db.version]
        db.insert("m", (1, 0))
        seen.append(db.version)
        db.bulk_insert("m", [(2, 0), (3, 0)])
        seen.append(db.version)
        db.execute("CREATE TABLE other (a INTEGER PRIMARY KEY)")
        seen.append(db.version)
        assert seen == sorted(set(seen)), "versions must strictly increase"

    def test_catalog_version_moves_only_on_ddl(self):
        db = make_db()
        before = db.catalog_version
        db.insert("m", (1, 0))
        db.bulk_insert("m", [(2, 0), (3, 0)])
        assert db.catalog_version == before
        db.execute("CREATE TABLE other (a INTEGER PRIMARY KEY)")
        assert db.catalog_version > before
        assert db.catalog_version <= db.version

    def test_inserts_never_invalidate_cached_plans(self):
        db = make_db()
        sql = "SELECT id FROM m WHERE batch = 0"
        db.execute(sql)
        for i in range(10):
            db.insert("m", (i, 0))
        db.execute(sql)
        report = db.plan_cache.report()
        assert report["invalidations"] == 0
        assert report["hits"] == 1

    def test_catalog_rejects_backwards_versions(self):
        manager = CatalogManager(ExecutionConfig())
        schema = TableSchema("t", [Column("a", INTEGER, primary_key=True)])
        manager.add_table(schema, version=3)
        with pytest.raises(CatalogError):
            manager.set_stats({}, version=2)


class TestTornReads:
    """N readers x 1 writer: reads land on whole published batches."""

    BATCH = 7
    BATCHES = 40
    READERS = 4

    def test_readers_never_observe_partial_batches(self):
        db = make_db()
        failures: list[str] = []
        done = threading.Event()

        def writer():
            for batch in range(self.BATCHES):
                base = batch * self.BATCH
                db.bulk_insert(
                    "m", [(base + i, batch) for i in range(self.BATCH)]
                )
            done.set()

        def reader(name):
            session = db.connect(name=name)
            try:
                last = 0
                while not done.is_set() or last < self.BATCH * self.BATCHES:
                    rows = session.execute(
                        "SELECT id FROM m"
                    ).column("id")
                    count = len(rows)
                    if count % self.BATCH != 0:
                        failures.append(
                            f"{name}: torn read of {count} rows"
                        )
                        return
                    if count < last:
                        failures.append(
                            f"{name}: count went backwards "
                            f"({last} -> {count})"
                        )
                        return
                    # the snapshot is a strict prefix of the insert order
                    if rows != list(range(count)):
                        failures.append(f"{name}: non-prefix snapshot")
                        return
                    last = count
            finally:
                session.close()

        threads = [
            threading.Thread(target=reader, args=(f"r{i}",))
            for i in range(self.READERS)
        ]
        write_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        write_thread.start()
        write_thread.join()
        for thread in threads:
            thread.join()
        assert not failures, failures

    def test_frozen_reader_is_stable_across_writer_churn(self):
        db = make_db()
        db.bulk_insert("m", [(i, 0) for i in range(self.BATCH)])
        session = db.connect(name="frozen", auto_refresh=False)
        counts = set()

        def writer():
            for batch in range(1, 20):
                base = batch * self.BATCH
                db.bulk_insert(
                    "m", [(base + i, batch) for i in range(self.BATCH)]
                )

        write_thread = threading.Thread(target=writer)
        write_thread.start()
        for _ in range(50):
            counts.add(len(session.execute("SELECT id FROM m")))
        write_thread.join()
        session.close()
        assert counts == {self.BATCH}


class TestWorkloadParity:
    """Fig11/Fig13 queries return identical rows on every reader."""

    READERS = 3

    @pytest.fixture()
    def parity(self, run_readers):
        def check(loaded, workload):
            baseline = [loaded.db.execute(sql).rows for sql in workload]
            outcomes = run_readers(
                loaded.db, workload, readers=self.READERS, rounds=2
            )
            for reader in outcomes:
                assert reader.error is None
                assert reader.queries == 2 * len(workload)
                assert [r.rows for r in reader.results] == baseline
            # every reader closed its session on the way out
            assert [s.name for s in loaded.db.sessions()] == ["default"]

        return check

    def test_fig11_shakespeare_hybrid(self, shakespeare_pair, parity):
        hybrid, _ = shakespeare_pair
        parity(hybrid, qs_workload("hybrid"))

    def test_fig11_shakespeare_xorator(self, shakespeare_pair, parity):
        _, xorator = shakespeare_pair
        parity(xorator, qs_workload("xorator"))

    def test_fig13_sigmod_hybrid(self, sigmod_pair, parity):
        hybrid, _ = sigmod_pair
        parity(hybrid, qg_workload("hybrid"))

    def test_fig13_sigmod_xorator(self, sigmod_pair, parity):
        _, xorator = sigmod_pair
        parity(xorator, qg_workload("xorator"))

    @pytest.mark.parametrize("mapping", ["hybrid", "xorator"])
    def test_fig11_parity_through_the_server_pool(
        self, shakespeare_pair, mapping
    ):
        """The concurrency mechanism production has: N wire clients
        multiplexed onto the server's session pool."""
        loaded = shakespeare_pair[0 if mapping == "hybrid" else 1]
        workload = qs_workload(mapping)
        baseline = [
            jsonable_rows(loaded.db.execute(sql).rows) for sql in workload
        ]
        seen: list[list] = []

        def client_pass(handle, name):
            with ReproClient(handle.host, handle.port, client_name=name) as c:
                for _ in range(2):
                    rows = [c.execute(sql).rows for sql in workload]
                seen.append(rows)

        with start_server_thread(loaded.db, max_inflight=4) as handle:
            threads = [
                threading.Thread(target=client_pass, args=(handle, f"c{i}"))
                for i in range(self.READERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        assert seen == [baseline] * self.READERS
