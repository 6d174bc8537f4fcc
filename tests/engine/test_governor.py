"""The resource governor: timeouts, result caps, and memory budgets."""

import time

import pytest

from repro.engine.config import DEFAULT_BATCH_SIZE
from repro.engine.database import Database
from repro.engine.governor import GovernorLimits, ResourceGovernor, UNLIMITED
from repro.errors import ConfigError, ResourceExceeded, StatementTimeout


@pytest.fixture()
def db():
    database = Database("governed")
    database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, parent INTEGER, "
        "name VARCHAR)"
    )
    database.bulk_insert(
        "t", [(i, i % 5, f"name{i % 3}") for i in range(200)]
    )
    return database


class TestLimits:
    def test_nonpositive_limits_rejected(self):
        with pytest.raises(ConfigError):
            GovernorLimits(statement_timeout_seconds=0)
        with pytest.raises(ConfigError):
            GovernorLimits(max_result_rows=-1)

    def test_unlimited_produces_no_budget(self):
        governor = ResourceGovernor()
        assert governor.budget() is None
        assert not UNLIMITED.any()

    def test_configure_swaps_single_limits(self):
        governor = ResourceGovernor()
        governor.configure(max_result_rows=10)
        governor.configure(statement_timeout_seconds=1.0)
        limits = governor.limits
        assert limits.max_result_rows == 10
        assert limits.statement_timeout_seconds == 1.0
        governor.configure(max_result_rows=None)
        assert governor.limits.max_result_rows is None
        with pytest.raises(ConfigError):
            governor.configure(max_widgets=3)


class TestResultCaps:
    def test_row_cap_aborts_large_result(self, db):
        db.governor.configure(max_result_rows=50)
        with pytest.raises(ResourceExceeded):
            db.execute("SELECT id FROM t")
        db.governor.configure(max_result_rows=None)
        assert len(db.execute("SELECT id FROM t")) == 200

    def test_byte_cap_aborts_large_result(self, db):
        db.governor.configure(max_result_bytes=256)
        with pytest.raises(ResourceExceeded):
            db.execute("SELECT id, name FROM t")

    def test_small_results_pass_under_caps(self, db):
        db.governor.configure(max_result_rows=50, max_result_bytes=10_000)
        result = db.execute("SELECT id FROM t WHERE id < 10")
        assert len(result) == 10

    def test_session_override_beats_database_default(self, db):
        session = db.connect(name="capped")
        session.set_limits(GovernorLimits(max_result_rows=5))
        with pytest.raises(ResourceExceeded):
            session.execute("SELECT id FROM t")
        # the database-wide default (unlimited) governs other sessions
        other = db.connect(name="free")
        assert len(other.execute("SELECT id FROM t")) == 200
        session.set_limits(None)
        assert len(session.execute("SELECT id FROM t")) == 200


class TestMemoryBudget:
    def test_sort_charges_working_memory(self, db):
        db.governor.configure(memory_budget_bytes=512)
        with pytest.raises(ResourceExceeded):
            db.execute("SELECT id, name FROM t ORDER BY name")

    def test_join_build_charges_working_memory(self, db):
        db.governor.configure(memory_budget_bytes=512)
        with pytest.raises(ResourceExceeded):
            db.execute(
                "SELECT a.id FROM t a, t b WHERE a.parent = b.id"
            )

    def test_budget_large_enough_passes(self, db):
        db.governor.configure(memory_budget_bytes=50_000_000)
        result = db.execute("SELECT id FROM t ORDER BY name")
        assert len(result) == 200


class TestTimeout:
    def test_slow_udf_statement_aborts_within_twice_the_limit(self, db):
        db.registry.register_scalar(
            "dawdle", lambda v: time.sleep(0.01) or v, min_args=1, max_args=1
        )
        limit = 0.08
        db.governor.configure(statement_timeout_seconds=limit)
        started = time.perf_counter()
        with pytest.raises(StatementTimeout):
            db.execute("SELECT dawdle(id) FROM t")
        elapsed = time.perf_counter() - started
        assert elapsed < 2 * limit

    @pytest.mark.parametrize(
        "sql,counted",
        [
            ("SELECT nap(id) FROM t", "scalar_calls"),
            ("SELECT r.x FROM t, TABLE(nap_rows(id)) r", "table_calls"),
        ],
    )
    def test_timeout_fires_between_batch_boundaries(self, db, sql, counted):
        # all 200 rows travel in one batch: only the per-invocation tick
        # of the UDF boundary can stop the statement mid-batch
        from repro.engine.types import INTEGER

        db.registry.register_scalar(
            "nap", lambda v: time.sleep(0.005) or v, min_args=1, max_args=1
        )
        db.registry.register_table(
            "nap_rows", lambda v: time.sleep(0.005) or [(v,)], [("x", INTEGER)],
            min_args=1, max_args=1,
        )
        assert DEFAULT_BATCH_SIZE >= 200
        db.governor.configure(statement_timeout_seconds=0.05)
        db.reset_function_stats()
        with pytest.raises(StatementTimeout):
            db.execute(sql)
        calls = sum(getattr(db.registry.stats, counted).values())
        assert 1 <= calls < 200

    def test_abort_leaves_catalog_version_unchanged(self, db):
        db.registry.register_scalar(
            "dawdle2", lambda v: time.sleep(0.01) or v, min_args=1, max_args=1
        )
        db.governor.configure(statement_timeout_seconds=0.05)
        catalog_version = db.catalog_version
        with pytest.raises(StatementTimeout):
            db.execute("SELECT dawdle2(id) FROM t")
        assert db.catalog_version == catalog_version
        # the engine still works after the abort
        db.governor.configure(statement_timeout_seconds=None)
        assert len(db.execute("SELECT id FROM t")) == 200

    def test_bulk_load_timeout_rolls_back_the_batch(self, db):
        from repro.engine.faults import FAULTS, FaultPlan

        db.governor.configure(statement_timeout_seconds=0.02)
        FAULTS.install(
            FaultPlan().delay_at("heap.store_row", seconds=0.0005)
        )
        try:
            before = db.row_count("t")
            catalog_version = db.catalog_version
            with pytest.raises(StatementTimeout):
                db.bulk_insert(
                    "t", [(1000 + i, 0, "x") for i in range(600)]
                )
            assert db.row_count("t") == before
            assert db.catalog_version == catalog_version
        finally:
            FAULTS.clear()
            db.governor.configure(statement_timeout_seconds=None)
        # the same batch loads cleanly once the limit is lifted
        assert db.bulk_insert(
            "t", [(1000 + i, 0, "x") for i in range(600)]
        ) == 600


class TestReporting:
    def test_aborts_counted_in_report(self, db):
        db.governor.configure(max_result_rows=10)
        report_before = db.governor.report()
        with pytest.raises(ResourceExceeded):
            db.execute("SELECT id FROM t")
        report = db.governor.report()
        assert report["row_cap_aborts"] == report_before["row_cap_aborts"] + 1
        assert (
            report["statements_governed"]
            > report_before["statements_governed"]
        )
        assert report["limits"]["max_result_rows"] == 10
