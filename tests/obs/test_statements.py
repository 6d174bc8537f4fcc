"""Statement-level statistics and wait profiling.

The collector rides the session layer's execute path, so most tests run
real SQL against a real :class:`~repro.engine.database.Database` and
assert on what :data:`~repro.obs.statements.STATEMENTS` accumulated:
call counts, plan-cache hit attribution, error counting, governor
aborts, and — the load-bearing invariant — that the wait breakdown of a
statement sums to its measured wall time (the residual bucket ``other``
absorbs whatever the spans did not cover).
"""

from __future__ import annotations

import pytest

from repro.engine.database import Database
from repro.engine.governor import GovernorLimits
from repro.errors import PlanError, ResourceExceeded, SessionClosed
from repro.obs import METRICS, STATEMENTS, WAIT_NAMES
from repro.obs.statements import StatementStatsCollector


@pytest.fixture()
def db():
    database = Database("stmt")
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    database.bulk_insert("t", [(i, i % 7) for i in range(50)])
    return database


@pytest.fixture()
def collector():
    STATEMENTS.reset()
    STATEMENTS.enable()
    yield STATEMENTS
    STATEMENTS.disable()
    STATEMENTS.attach_slow_log(None)
    STATEMENTS.reset()


class TestAggregation:
    def test_calls_rows_and_key_normalization(self, db, collector):
        db.execute("SELECT id FROM t WHERE v = 3")
        db.execute("SELECT   id  FROM t\n WHERE v = 3")
        stats = collector.statement("SELECT id FROM t WHERE v = 3")
        assert stats is not None
        assert stats.calls == 2  # whitespace-normalized to one key
        assert stats.rows_returned == 2 * 7
        assert stats.kind == "select"
        assert stats.total_seconds > 0.0
        assert stats.min_seconds <= stats.max_seconds
        assert stats.bytes_returned > 0

    def test_plan_cache_attribution(self, db, collector):
        for _ in range(3):
            db.execute("SELECT COUNT(*) FROM t")
        stats = collector.statement("SELECT COUNT(*) FROM t")
        assert stats.plan_cache_misses == 1
        assert stats.plan_cache_hits == 2

    def test_errors_are_counted_per_key(self, db, collector):
        with pytest.raises(PlanError):
            db.execute("SELECT nope FROM t")
        stats = collector.statement("SELECT nope FROM t")
        assert stats.errors == 1
        assert stats.calls == 1

    def test_governor_abort_flagged(self, db, collector):
        db.governor.configure(max_result_rows=5)
        try:
            with pytest.raises(ResourceExceeded):
                db.execute("SELECT id FROM t")
        finally:
            db.governor.configure(max_result_rows=None)
        stats = collector.statement("SELECT id FROM t")
        assert stats.governor_aborts == 1
        assert stats.errors == 1

    def test_writes_are_observed_too(self, db, collector):
        db.execute("INSERT INTO t VALUES (1001, 2)")
        inserts = [
            s for s in collector.statements() if s.kind == "insert"
        ]
        assert len(inserts) == 1
        assert inserts[0].calls == 1

    def test_latency_histogram_feeds_percentiles(self, db, collector):
        for _ in range(10):
            db.execute("SELECT COUNT(*) FROM t")
        stats = collector.statement("SELECT COUNT(*) FROM t")
        assert stats.latency.count == 10
        assert stats.p95_seconds >= stats.latency.quantile(0.5)
        assert stats.mean_seconds > 0.0

    def test_lru_eviction_bounds_tracked_keys(self, db, collector):
        original = collector.max_statements
        collector.max_statements = 4
        try:
            for column in range(8):
                db.execute(f"SELECT id FROM t WHERE v = {column}")
            tracked = collector.statements()
            assert len(tracked) <= 4
            assert collector.evictions >= 4
        finally:
            collector.max_statements = original

    def test_disabled_collector_records_nothing(self, db):
        STATEMENTS.reset()
        assert not STATEMENTS.enabled
        db.execute("SELECT COUNT(*) FROM t")
        assert STATEMENTS.statements() == []

    def test_flight_recorder_keeps_recent_records(self, db, collector):
        for index in range(5):
            db.execute("SELECT id FROM t WHERE v = ?", (index,))
        recent = collector.recent(3)
        assert len(recent) == 3
        assert all(r["key"] == "SELECT id FROM t WHERE v = ?" for r in recent)
        assert all(r["ms"] >= 0.0 for r in recent)


def via_session(session, sql, *params):
    return session.execute(sql, params)


def via_prepared(session, sql, *params):
    return session.prepare(sql).execute(*params)


@pytest.mark.parametrize("run", [via_session, via_prepared])
class TestOneEnvelope:
    """``Session.execute`` and ``PreparedStatement.execute`` share one
    envelope, so they account identically — success, error, closed."""

    def test_success_books_one_call_and_one_latency_sample(
        self, db, collector, run
    ):
        histogram = METRICS.histogram("query.seconds.select")
        before = histogram.count
        with db.connect() as session:
            assert len(run(session, "SELECT id FROM t WHERE v = ?", 3)) == 7
            assert session.query_counts["select"] == 1
        stats = collector.statement("SELECT id FROM t WHERE v = ?")
        assert (stats.calls, stats.errors, stats.rows_returned) == (1, 0, 7)
        assert histogram.count == before + 1

    def test_error_books_the_call_but_not_the_latency(
        self, db, collector, run
    ):
        histogram = METRICS.histogram("query.seconds.select")
        before = histogram.count
        with db.connect() as session:
            session.set_limits(GovernorLimits(max_result_rows=5))
            with pytest.raises(ResourceExceeded):
                run(session, "SELECT id FROM t")
            assert session.query_counts["select"] == 0
        stats = collector.statement("SELECT id FROM t")
        assert (stats.calls, stats.errors, stats.governor_aborts) == (1, 1, 1)
        assert histogram.count == before

    def test_closed_session_books_nothing(self, db, collector, run):
        session = db.connect()
        statement = session.prepare("SELECT COUNT(*) FROM t")
        session.close()
        with pytest.raises(SessionClosed):
            if run is via_prepared:
                statement.execute()
            else:
                run(session, "SELECT COUNT(*) FROM t")
        # refused before STATEMENTS.begin: no call, no error, no record
        assert collector.statement("SELECT COUNT(*) FROM t") is None
        assert collector.recent(5) == []


class TestWaitProfile:
    def test_breakdown_sums_to_wall_time(self, db, collector):
        for _ in range(5):
            db.execute("SELECT id, v FROM t WHERE v > 2")
        stats = collector.statement("SELECT id, v FROM t WHERE v > 2")
        attributed = sum(stats.waits.values())
        assert stats.total_seconds > 0.0
        drift = abs(attributed - stats.total_seconds) / stats.total_seconds
        assert drift <= 0.10

    def test_wait_names_stay_within_taxonomy(self, db, collector):
        db.execute("SELECT COUNT(*) FROM t")
        db.insert("t", (2000, 0))
        allowed = set(WAIT_NAMES) | {"other"}
        for stats in collector.statements():
            assert set(stats.waits) <= allowed

    def test_phases_are_attributed(self, db, collector):
        db.execute("SELECT id FROM t WHERE v = 1")
        stats = collector.statement("SELECT id FROM t WHERE v = 1")
        assert stats.waits.get("parse", 0.0) > 0.0
        assert stats.waits.get("plan", 0.0) > 0.0
        assert stats.waits.get("execute", 0.0) > 0.0

    def test_wal_fsync_attributed_for_durable_writes(
        self, tmp_path, collector
    ):
        database = Database.open(
            str(tmp_path / "wal.jsonl"), sync_mode="always"
        )
        database.execute(
            "CREATE TABLE d (id INTEGER PRIMARY KEY, v INTEGER)"
        )
        database.insert("d", (1, 1))
        folded = [
            s for s in collector.statements()
            if s.waits.get("wal.fsync", 0.0) > 0.0
        ]
        assert folded, "no statement recorded wal.fsync wait"
        database.close()

    def test_record_wait_adds_out_of_band_time(self, db, collector):
        db.execute("SELECT COUNT(*) FROM t")
        collector.record_wait("SELECT COUNT(*) FROM t", "network", 0.25)
        stats = collector.statement("SELECT COUNT(*) FROM t")
        assert stats.waits["network"] == pytest.approx(0.25)

    def test_record_wait_ignores_unknown_keys(self, collector):
        collector.record_wait("never ran", "network", 1.0)
        assert collector.statement("never ran") is None


class TestConcurrentAggregation:
    def test_stats_aggregate_across_reader_threads(
        self, db, collector, run_readers
    ):
        workload = [
            "SELECT COUNT(*) FROM t",
            "SELECT id FROM t WHERE v = 1",
        ]
        outcomes = run_readers(db, workload, readers=4, rounds=3)
        assert all(reader.error is None for reader in outcomes)
        for sql in workload:
            stats = collector.statement(sql)
            assert stats is not None, sql
            assert stats.calls == 4 * 3
        total_calls = sum(s.calls for s in collector.statements())
        assert total_calls == sum(reader.queries for reader in outcomes)

    def test_session_stats_track_each_reader(
        self, db, collector, run_readers
    ):
        outcomes = run_readers(
            db, ["SELECT COUNT(*) FROM t"], readers=3, rounds=2
        )
        assert all(reader.error is None for reader in outcomes)
        sessions = collector.session_stats()
        reader_sessions = [
            s for s in sessions.values() if s.statements == 2
        ]
        assert len(reader_sessions) == 3


class TestCollectorRobustness:
    def test_finish_never_raises(self, db, collector, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("collector bug")

        monkeypatch.setattr(collector, "_fold", boom)
        # the statement still succeeds even though folding blew up
        result = db.execute("SELECT COUNT(*) FROM t")
        assert result.rows[0][0] == 50

    def test_reset_clears_everything(self, db, collector):
        db.execute("SELECT COUNT(*) FROM t")
        collector.reset()
        assert collector.statements() == []
        assert collector.session_stats() == {}
        assert collector.recent() == []

    def test_standalone_collector_instances_are_isolated(self):
        STATEMENTS.reset()
        mine = StatementStatsCollector(max_statements=2)
        mine.enable()
        observation = mine.begin("SELECT 1", "select", 7)
        assert observation is not None
        mine.finish(observation)
        assert len(mine.statements()) == 1
        assert STATEMENTS.statements() == []
