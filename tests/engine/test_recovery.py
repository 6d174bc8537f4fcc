"""Crash recovery: WAL replay rebuilds the last committed state."""

import json

import pytest

from repro.engine.config import ExecutionConfig
from repro.engine.database import Database
from repro.engine.faults import FAULTS, FaultPlan
from repro.engine.recovery import _RETIRED_CONFIG_KEYS
from repro.errors import CrashPoint, RecoveryError
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

    def test_exec_config_replayed(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        db = Database.open(path, sync_mode="always")
        db.set_exec_config(ExecutionConfig(parallel_workers=3))
        db.close()
        recovered = Database.open(path, recover=True)
        assert recovered.exec_config.parallel_workers == 3

    def _log_with_exec_config(self, path, config):
        """A log whose committed ``exec_config`` record carries ``config``."""
        db = Database.open(path, sync_mode="always")
        db.set_exec_config(ExecutionConfig(parallel_workers=1))
        db.close()
        with open(path, encoding="utf-8") as log:
            records = [json.loads(line) for line in log]
        for record in records:
            if record["type"] == "exec_config":
                record["config"] = config
        with open(path, "w", encoding="utf-8") as log:
            log.writelines(json.dumps(record) + "\n" for record in records)

    def test_retired_exec_config_keys_are_ignored(self, tmp_path):
        # the five-key record shape written before the row-at-a-time mode
        # and its three options were removed
        assert len(_RETIRED_CONFIG_KEYS) == 3 and "batch_size" in _RETIRED_CONFIG_KEYS
        path = str(tmp_path / "wal.jsonl")
        self._log_with_exec_config(path, {
            **dict.fromkeys(sorted(_RETIRED_CONFIG_KEYS), 1),
            "xadt_structural_index": True,
            "parallel_workers": 2,
        })
        recovered = Database.open(path, recover=True)
        assert recovered.exec_config == ExecutionConfig(
            xadt_structural_index=True, parallel_workers=2
        )

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
