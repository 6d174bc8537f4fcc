"""Crash recovery: WAL replay rebuilds the last committed state."""

import gc
import json
import weakref

import pytest

from repro.engine.config import ExecutionConfig
from repro.engine.database import Database
from repro.engine.faults import FAULTS, FaultPlan
from repro.engine.recovery import _RETIRED_CONFIG_KEYS
from repro.engine.storage import HeapTable
from repro.errors import CrashPoint, RecoveryError, SqlSyntaxError
from repro.xadt import XadtValue, register_xadt_functions


@pytest.fixture(autouse=True)
def clean_injector():
    FAULTS.clear()
    yield
    FAULTS.clear()


DDL = "CREATE TABLE t (id INTEGER PRIMARY KEY, parent INTEGER, name VARCHAR)"


def load(db, lo, hi, marker=None):
    rows = [(i, i % 5, f"name{i % 3}") for i in range(lo, hi)]
    with db.transaction(marker=marker):
        db.bulk_insert("t", rows)


def write_log(path, records):
    with open(path, "w", encoding="utf-8") as log:
        log.writelines(json.dumps(record) + "\n" for record in records)


def fingerprint(db):
    return (
        db.execute("SELECT id, parent, name FROM t ORDER BY id").rows,
        db.execute(
            "SELECT parent, COUNT(*) FROM t GROUP BY parent ORDER BY parent"
        ).rows,
    )


class TestCleanRecovery:
    def test_recovered_state_matches_original(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = Database.open(path, sync_mode="always")
        db.execute(DDL)
        db.create_index("by_parent", "t", "parent", "hash")
        load(db, 0, 40)
        db.insert("t", (100, 1, "single"))
        db.runstats()
        expected = fingerprint(db)
        db.close()

        recovered = Database.open(path, recover=True)
        assert fingerprint(recovered) == expected
        assert recovered.row_count("t") == 41
        assert recovered.live_index("t", "parent") is not None
        report = recovered.recovery_report
        assert report is not None
        assert report.records_replayed > 0
        assert report.torn_tail is False

    @staticmethod
    def _log_with_exec_config(path, config):
        """A log whose one committed transaction is an ``exec_config``
        record carrying ``config`` (new logs write none)."""
        write_log(path, [
            {"type": "exec_config", "config": config, "lsn": 1, "txn": 1},
            {"type": "commit", "lsn": 2, "txn": 1},
        ])

    def test_retired_exec_config_keys_are_ignored(self, tmp_path):
        # the five-key record shape written before the row-at-a-time mode
        # and its three options, then the structural-index flag, then the
        # worker-pool size were removed
        assert len(_RETIRED_CONFIG_KEYS) == 5
        assert {"batch_size", "parallel_workers"} <= _RETIRED_CONFIG_KEYS
        path = str(tmp_path / "wal.jsonl")
        self._log_with_exec_config(path, {
            **dict.fromkeys(sorted(_RETIRED_CONFIG_KEYS), 1),
            "xadt_structural_index": True,
            "parallel_workers": 2,
        })
        recovered = Database.open(path, recover=True)
        assert recovered.exec_config == ExecutionConfig()

    def test_a_record_with_the_structural_index_flag_replays(self, tmp_path):
        # the two-key record a database with the retired flag on wrote
        path = str(tmp_path / "wal.jsonl")
        self._log_with_exec_config(
            path, {"xadt_structural_index": True, "parallel_workers": 0}
        )
        recovered = Database.open(path, recover=True)
        assert recovered.exec_config == ExecutionConfig()
        assert not recovered.exec_config.xadt_structural_index

    def test_unknown_exec_config_key_is_a_recovery_error(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        self._log_with_exec_config(path, {"parallel_workers": 1, "bogus": 1})
        with pytest.raises(RecoveryError, match="bogus"):
            Database.open(path, recover=True)

    def test_xadt_rows_survive_recovery(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = Database.open(path, sync_mode="always")
        register_xadt_functions(db)
        db.execute("CREATE TABLE x (id INTEGER PRIMARY KEY, frag XADT)")
        db.insert("x", (1, XadtValue.from_xml("<a>hi<b/></a>", "dict")))
        db.insert("x", (2, XadtValue.from_xml('<c attr="v">t</c>')))
        db.close()
        recovered = Database.open(path, recover=True)
        rows = recovered.execute("SELECT id, frag FROM x ORDER BY id").rows
        assert rows[0][1].to_xml() == "<a>hi<b/></a>"
        assert rows[0][1].codec == "dict"
        assert rows[1][1].to_xml() == '<c attr="v">t</c>'

    def test_drop_table_replayed(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = Database.open(path, sync_mode="always")
        db.execute(DDL)
        db.execute("CREATE TABLE gone (id INTEGER PRIMARY KEY)")
        db.drop_table("gone")
        db.close()
        recovered = Database.open(path, recover=True)
        user_tables = [
            name for name in recovered.catalog.tables
            if not name.startswith("sys_")
        ]
        assert sorted(user_tables) == ["t"]

    def test_missing_log_rejected(self, tmp_path):
        with pytest.raises(RecoveryError):
            Database.open(str(tmp_path / "absent"), recover=True)


class TestRetiredPartitioning:
    """Partition-parallel execution is gone; logs that used it replay."""

    ROWS = [(i, i % 5, f"name{i % 3}") for i in range(12)]

    def old_log(self, path):
        """The records a partitioned database wrote before the deletion."""
        columns = [
            ["id", "INTEGER", True], ["parent", "INTEGER", False],
            ["name", "VARCHAR", False],
        ]
        records = [
            {"type": "create_table", "table": "t", "columns": columns,
             "partition": {"column": "id", "partitions": 2, "kind": "hash",
                           "bounds": None}},
            *({"type": "insert", "table": "t", "row": list(row)}
              for row in self.ROWS[:6]),
            {"type": "partition_table", "table": "t", "column": "parent",
             "partitions": 3, "kind": "range", "bounds": [1, 3]},
            {"type": "exec_config", "config": {"parallel_workers": 2}},
            *({"type": "insert", "table": "t", "row": list(row)}
              for row in self.ROWS[6:]),
        ]
        lines, lsn = [], 0
        for txn, record in enumerate(records, start=1):
            lines.append({**record, "lsn": lsn + 1, "txn": txn})
            lines.append({"type": "commit", "lsn": lsn + 2, "txn": txn})
            lsn += 2
        write_log(path, lines)

    def test_an_old_partitioned_log_replays_to_a_plain_table(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        self.old_log(path)
        plain = Database("plain")
        plain.execute(DDL)
        plain.bulk_insert("t", self.ROWS)
        recovered = Database.open(path, recover=True)
        assert type(recovered.heap("t")) is HeapTable
        assert recovered.exec_config == ExecutionConfig()
        assert fingerprint(recovered) == fingerprint(plain)
        sql = "SELECT name FROM t WHERE parent = 3 ORDER BY id"
        assert recovered.execute(sql).rows == plain.execute(sql).rows
        # the log the recovered database appends to replays again
        recovered.insert("t", (99, 1, "late"))
        recovered.close()
        again = Database.open(path, recover=True)
        assert again.row_count("t") == len(self.ROWS) + 1
        again.close()

    def test_the_partition_ddl_is_a_syntax_error(self):
        db = Database()
        with pytest.raises(SqlSyntaxError, match="PARTITION"):
            db.execute(
                "CREATE TABLE t (a INTEGER) PARTITION BY HASH (a) PARTITIONS 2"
            )
        assert not db.catalog.has_table("t")


class TestCrashRecovery:
    def crash_and_recover(self, tmp_path, plan, committed_docs=1):
        """Load doc batches until ``plan`` kills the engine; recover."""
        path = str(tmp_path / "wal.jsonl")
        db = Database.open(path, sync_mode="always")
        db.execute(DDL)
        db.create_index("by_parent", "t", "parent", "hash")
        FAULTS.install(plan)
        crashed = False
        try:
            for doc in range(4):
                load(db, doc * 10, doc * 10 + 10, marker=f"doc:{doc}")
        except CrashPoint:
            crashed = True
        FAULTS.clear()
        assert crashed, "the fault plan never fired"
        db.wal.abandon()  # process death: buffered bytes are gone
        return Database.open(path, recover=True), path

    def finish_and_compare(self, recovered):
        """Resume the interrupted load, then compare with a clean run."""
        report = recovered.recovery_report
        for doc in range(4):
            if not report.has_marker(f"doc:{doc}"):
                load(recovered, doc * 10, doc * 10 + 10, marker=f"doc:{doc}")
        reference = Database("ref")
        reference.execute(DDL)
        reference.create_index("by_parent", "t", "parent", "hash")
        for doc in range(4):
            load(reference, doc * 10, doc * 10 + 10)
        assert fingerprint(recovered) == fingerprint(reference)

    def test_crash_during_row_store(self, tmp_path):
        # dies mid-batch of doc:1: doc:0 is durable, doc:1 is not
        plan = FaultPlan().crash_at("heap.store_row", hit=15)
        recovered, _ = self.crash_and_recover(tmp_path, plan)
        assert recovered.recovery_report.markers == ["doc:0"]
        assert recovered.row_count("t") == 10
        self.finish_and_compare(recovered)

    def test_crash_during_wal_append(self, tmp_path):
        plan = FaultPlan().crash_at("wal.append", hit=8)
        recovered, _ = self.crash_and_recover(tmp_path, plan)
        self.finish_and_compare(recovered)

    def test_crash_during_wal_fsync(self, tmp_path):
        # fsync fires once per committed load; hit 4 is doc:3's commit
        plan = FaultPlan().crash_at("wal.fsync", hit=4)
        recovered, _ = self.crash_and_recover(tmp_path, plan)
        self.finish_and_compare(recovered)

    def test_crash_during_publish(self, tmp_path):
        # the commit record is durable before publish: doc:2 must replay
        plan = FaultPlan().crash_at("index.publish", hit=3)
        recovered, _ = self.crash_and_recover(tmp_path, plan)
        assert recovered.recovery_report.has_marker("doc:2")
        self.finish_and_compare(recovered)

    def test_replay_is_idempotent(self, tmp_path):
        plan = FaultPlan().crash_at("heap.store_row", hit=25)
        first, path = self.crash_and_recover(tmp_path, plan)
        state = fingerprint(first)
        first.close()
        second = Database.open(path, recover=True)
        assert fingerprint(second) == state
        assert second.recovery_report.markers == first.recovery_report.markers

    def test_versions_stay_monotonic_after_recovery(self, tmp_path):
        plan = FaultPlan().crash_at("heap.store_row", hit=15)
        recovered, _ = self.crash_and_recover(tmp_path, plan)
        version = recovered.version
        catalog_version = recovered.catalog_version
        load(recovered, 1000, 1010, marker="doc:extra")
        assert recovered.version > version
        assert recovered.catalog_version >= catalog_version

    def test_recovered_wal_appends_after_boundary(self, tmp_path):
        from repro.engine.recovery import read_log

        plan = FaultPlan().crash_at("heap.store_row", hit=15)
        recovered, path = self.crash_and_recover(tmp_path, plan)
        load(recovered, 2000, 2005, marker="doc:late")
        recovered.close()
        committed, report = read_log(path)
        # the post-recovery transaction is durable alongside the replayed
        # prefix; the dead pre-crash transaction stayed dropped
        assert "doc:late" in report.markers
        assert "doc:1" not in report.markers


class TestTornTail:
    def commit_row(self, db, row_id, marker):
        with db.transaction(marker=marker):
            db.insert("t", (row_id, row_id, f"név{row_id}"))

    def test_commits_after_recovering_a_torn_tail_survive(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = Database.open(path, sync_mode="always")
        db.execute(DDL)
        self.commit_row(db, 1, "a")
        db.close()
        with open(path, "ab") as handle:
            handle.write(b'{"type":"insert","table":"t","ro')  # torn write

        recovered = Database.open(path, recover=True)
        assert recovered.recovery_report.torn_tail is True
        self.commit_row(recovered, 3, "b")
        recovered.close()

        again = Database.open(path, recover=True)
        report = again.recovery_report
        assert report.torn_tail is False
        assert report.markers == ["a", "b"]
        assert again.execute("SELECT id FROM t ORDER BY id").rows == [(1,), (3,)]
        again.close()

    def test_a_tail_cut_inside_a_multibyte_character_is_torn(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = Database.open(path, sync_mode="always")
        db.execute(DDL)
        self.commit_row(db, 1, "a")
        self.commit_row(db, 2, "é")
        db.close()
        data = open(path, "rb").read()
        cut = data.rindex("é".encode()) + 1  # between the two UTF-8 bytes
        with open(path, "wb") as handle:
            handle.write(data[:cut])

        recovered = Database.open(path, recover=True)
        report = recovered.recovery_report
        assert report.torn_tail is True
        assert report.markers == ["a"]
        self.commit_row(recovered, 3, "b")
        recovered.close()
        again = Database.open(path, recover=True)
        assert again.recovery_report.markers == ["a", "b"]
        assert again.execute("SELECT id FROM t ORDER BY id").rows == [(1,), (3,)]
        again.close()

    def test_a_last_record_without_its_newline_is_kept(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = Database.open(path, sync_mode="always")
        db.execute(DDL)
        self.commit_row(db, 1, "a")
        db.close()
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data.rstrip(b"\n"))

        recovered = Database.open(path, recover=True)
        assert recovered.recovery_report.markers == ["a"]
        self.commit_row(recovered, 2, "b")
        recovered.close()
        again = Database.open(path, recover=True)
        assert again.recovery_report.markers == ["a", "b"]
        again.close()


class TestAClosedDatabaseIsFreed:
    """A dropped database holds no reference cycle: reference counting
    frees it and its heaps, without waiting for a full collection."""

    def used(self, db):
        register_xadt_functions(db)
        db.runstats()
        db.execute("SELECT name FROM t WHERE parent = 2")
        db.execute("SELECT table_name, row_count FROM sys_tables")
        with db.connect() as session:
            session.execute("SELECT count(*) FROM t")
        db.backend("sqlite").execute("SELECT id FROM t WHERE id < 3")
        db.close()
        return weakref.ref(db), weakref.ref(db.engine.heap("t"))

    def test_loaded_and_recovered_databases(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        gc.collect()
        gc.disable()
        try:
            db = Database.open(path)
            db.execute(DDL)
            load(db, 0, 200, marker="doc:0")
            db.create_index("t_parent", "t", "parent", "hash")
            refs = self.used(db)
            del db
            assert [ref() for ref in refs] == [None, None]

            recovered = Database.open(path, recover=True)
            assert recovered.row_count() == 200
            refs = self.used(recovered)
            del recovered
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
