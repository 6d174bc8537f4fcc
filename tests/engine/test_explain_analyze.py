"""EXPLAIN ANALYZE: actual row counts, timings, and estimate-miss flags.

The acceptance bar: for every access path and join strategy the planner
can pick, the instrumented run's per-operator actual row counts must
agree with what the query actually returns — instrumentation observes
execution, it never changes it.
"""

import json

import pytest

from repro.engine import Database
from repro.engine.plan import physical
from repro.engine.plan_cache import normalize_sql
from repro.engine.types import INTEGER
from repro.engine.governor import GovernorLimits
from repro.errors import ExecutionError, ResourceExceeded, SessionClosed
from repro.obs import METRICS, MISS_FACTOR, TRACER, build_report, walk
from repro.obs.explain import OperatorStats
from repro.workloads import SIGMOD_QUERIES


@pytest.fixture()
def db():
    # same shape as the planner tests: wide orders rows over many pages
    # so selective index plans beat sequential scans, plus a tiny side
    # table for cheap cross joins
    database = Database("analyze")
    database.execute(
        "CREATE TABLE orders (oID INTEGER PRIMARY KEY, cID INTEGER, "
        "v INTEGER, pad VARCHAR)"
    )
    database.execute(
        "CREATE TABLE customers (custID INTEGER PRIMARY KEY, city VARCHAR)"
    )
    database.execute("CREATE TABLE tags (tag INTEGER PRIMARY KEY)")
    for i in range(5000):
        database.insert("orders", (i, i % 50, i % 7, "x" * 100))
    for i in range(50):
        database.insert("customers", (i, f"city{i % 5}"))
    for i in range(8):
        database.insert("tags", (i,))
    database.runstats()
    return database


def check(db, sql, operator_name):
    """explain_analyze ``sql``, assert plan shape and row agreement."""
    report = db.explain_analyze(sql)
    labels = " ".join(op.label for op in report.operators)
    assert operator_name in labels, labels
    expected = len(db.execute(sql))
    assert report.root.actual_rows == expected
    assert len(report.result) == expected
    assert report.root.loops == 1
    for phase in ("parse", "plan", "execute"):
        assert report.phases[phase] >= 0.0
    return report


class TestActualRowsPerOperator:
    def test_seq_scan(self, db):
        report = check(db, "SELECT oID FROM orders WHERE v = 3", "SeqScan")
        # the scan's pushed-down filter keeps 1/7th of the table
        scan = report.operators[-1]
        assert "SeqScan" in scan.label
        assert scan.actual_rows == len(db.execute(
            "SELECT oID FROM orders WHERE v = 3"
        ))

    def test_index_scan(self, db):
        db.create_index("idx_o", "orders", "oID", "hash")
        db.runstats()
        report = check(db, "SELECT v FROM orders WHERE oID = 3", "IndexScan")
        assert report.root.actual_rows == 1

    def test_hash_join(self, db):
        report = check(
            db,
            "SELECT city FROM customers, orders WHERE cID = custID",
            "HashJoin",
        )
        assert report.root.actual_rows == 5000

    def test_nested_loop_cross_join(self, db):
        report = check(db, "SELECT 1 FROM customers, tags", "NestedLoopJoin")
        assert report.root.actual_rows == 50 * 8

    def test_index_nl_join(self, db):
        db.create_index("idx_cid", "orders", "cID", "hash")
        db.runstats()
        check(
            db,
            "SELECT v FROM customers, orders "
            "WHERE cID = custID AND custID = 7",
            "IndexNLJoin",
        )

    def test_lateral_table_function(self, db):
        db.registry.register_table(
            "repeat_n", lambda n: [(i,) for i in range(n or 0)],
            [("i", INTEGER)],
        )
        report = check(
            db,
            "SELECT custID, r.i FROM customers, TABLE(repeat_n(custID)) r "
            "WHERE custID = 3",
            "LateralFunctionScan",
        )
        assert report.root.actual_rows == 3

    def test_unnest_lateral_scan(self, sigmod_pair):
        _, xorator = sigmod_pair
        query = next(q for q in SIGMOD_QUERIES if "unnest" in q.xorator_sql)
        report = xorator.db.explain_analyze(query.xorator_sql)
        labels = " ".join(op.label for op in report.operators)
        assert "LateralFunctionScan" in labels, labels
        assert report.root.actual_rows == len(
            xorator.db.execute(query.xorator_sql)
        )

    def test_inner_operator_times_nest(self, db):
        report = check(
            db,
            "SELECT city FROM customers, orders WHERE cID = custID",
            "HashJoin",
        )
        join = next(op for op in report.operators if "HashJoin" in op.label)
        children = [op for op in report.operators if op.depth == join.depth + 1]
        assert children
        # inclusive time covers the children; self time excludes them
        assert join.seconds >= join.self_seconds
        assert join.self_seconds >= 0.0


class _Static(physical.Operator):
    """Synthetic leaf with a forced cardinality estimate."""

    def __init__(self, rows, estimated):
        self._rows = list(rows)
        self.estimated_rows = float(estimated)

    def _execute(self):
        # batch contract: yield lists of rows (32-row chunks here)
        for start in range(0, len(self._rows), 32):
            yield self._rows[start:start + 32]

    def explain(self, depth=0):
        return [self._line(depth, "Static")]


def _static_root(rows, estimated):
    plan = _Static(rows, estimated)
    nodes = walk(plan)
    for node, _ in nodes:
        node.stats = OperatorStats()
    drained = list(plan.rows())
    return build_report(nodes, {}, drained).root


class TestEstimateMissFlag:
    def test_large_miss_is_flagged(self):
        report = _static_root([(i,) for i in range(100)], estimated=2)
        assert report.actual_rows == 100
        assert report.miss_factor == pytest.approx(50.0)
        assert report.flagged

    def test_accurate_estimate_not_flagged(self):
        report = _static_root([(i,) for i in range(10)], estimated=9)
        assert not report.flagged
        assert report.miss_factor < MISS_FACTOR

    def test_misses_surface_in_report_listing(self, db):
        report = db.explain_analyze("SELECT oID FROM orders WHERE v = 3")
        assert report.estimate_misses() == [
            op for op in report.operators if op.flagged
        ]


class TestEntryPoints:
    def test_prepared_statement_explain_analyze(self, db):
        statement = db.prepare("SELECT v FROM orders WHERE oID = ?")
        report = statement.explain_analyze(3)
        assert report.root.actual_rows == 1
        assert len(statement.execute(3)) == 1
        # a second analyze with another parameter replans cleanly
        assert statement.explain_analyze(4).root.actual_rows == 1

    def test_rejects_non_select(self, db):
        with pytest.raises(ExecutionError):
            db.explain_analyze("INSERT INTO tags VALUES (99)")

    def test_cached_plan_stays_uninstrumented(self, db):
        sql = "SELECT oID FROM orders WHERE v = 3"
        db.execute(sql)
        db.explain_analyze(sql)
        entry = db.plan_cache.lookup(normalize_sql(sql), db.catalog_version)
        assert entry is not None
        for node, _ in walk(entry.plan):
            assert node.stats is None

    def test_report_text_and_dict(self, db):
        report = db.explain_analyze("SELECT oID FROM orders WHERE v = 3")
        text = report.text()
        assert "actual" in text and "phases:" in text
        payload = report.to_dict()
        json.dumps(payload)
        assert payload["row_count"] == len(report.result)


class TestSameEnvelopeAsExecute:
    """EXPLAIN ANALYZE takes ``execute``'s path: pin, private I/O
    counters, governor budget — only the plan is private."""

    SQL = "SELECT tag FROM tags"

    def test_frozen_session_analyzes_its_pinned_snapshot(self, db):
        with db.connect(auto_refresh=False) as session:
            statement = session.prepare(self.SQL)
            db.bulk_insert("tags", [(100 + i,) for i in range(8)])
            pinned = len(statement.execute())
            assert pinned == 8
            report = statement.explain_analyze()
            assert report.root.actual_rows == pinned
            assert len(report.result) == pinned
            session.refresh()
            assert statement.explain_analyze().root.actual_rows == 16

    def test_governor_budget_applies(self, db):
        with db.connect() as session:
            session.set_limits(GovernorLimits(max_result_rows=5))
            statement = session.prepare(self.SQL)
            with pytest.raises(ResourceExceeded):
                statement.execute()
            with pytest.raises(ResourceExceeded):
                statement.explain_analyze()
        db.governor.set_limits(GovernorLimits(max_result_rows=5))
        with pytest.raises(ResourceExceeded):
            db.explain_analyze(self.SQL)

    def test_session_analyze_charges_the_sessions_counters(self, db):
        db.io.reset()
        with db.connect() as session:
            session.prepare(self.SQL).explain_analyze()
            assert session.io.snapshot() != (0, 0, 0)
        assert db.io.snapshot() == (0, 0, 0)
        # the default session charges its own counters: db.io
        db.explain_analyze(self.SQL)
        assert db.io.snapshot() != (0, 0, 0)

    def test_closed_session_refuses(self, db):
        session = db.connect()
        statement = session.prepare(self.SQL)
        session.close()
        with pytest.raises(SessionClosed):
            statement.explain_analyze()

    def test_operator_spans_reach_the_tracer(self, db):
        with db.connect() as session, TRACER.capture() as capture:
            report = session.prepare(self.SQL).explain_analyze()
        operators = [
            event for event in capture.events()
            if event.get("cat") == "operator"
        ]
        assert {event["name"] for event in operators} >= {"SeqScan"}
        assert len(operators) == len(report.operators)
        assert len(report.result) == 8


class TestObservabilityHousekeeping:
    def test_reset_function_stats_clears_udf_metrics(self, db):
        db.registry.register_scalar("double_it", lambda v: (v or 0) * 2)
        db.execute("SELECT double_it(tag) FROM tags")
        counter = METRICS.counter("udf.calls.not_fenced")
        assert counter.value > 0
        db.reset_function_stats()
        assert counter.value == 0
        assert METRICS.histogram("udf.seconds.not_fenced").count == 0

    def test_size_report_is_json_serializable(self, db):
        db.execute("SELECT oID FROM orders WHERE v = 3")
        report = db.size_report()
        observability = report["observability"]
        assert observability["metrics_entries"] > 0
        assert "trace_buffer_bytes" in observability
        json.dumps(report)
