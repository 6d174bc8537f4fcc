"""Batch execution: batch shapes, pushdown, config epoch, and parity.

The batch layer must be invisible except in speed: result sets do not
depend on where batch boundaries fall (checked on the full paper
workloads at a 7-row batch size against the default), EXPLAIN ANALYZE
still reports *row* counts, and flipping :class:`ExecutionConfig`
invalidates cached plans (which bake in the XADT access path).
"""

import pytest

from repro.engine import Database
from repro.engine.config import DEFAULT_BATCH_SIZE, ExecutionConfig
from repro.engine.expr import ParamBox
from repro.engine.plan.optimizer import plan_select
from repro.engine.plan.physical import Operator
from repro.engine.sql.parser import parse_sql
from repro.engine.values import render
from repro.workloads import SHAKESPEARE_QUERIES, SIGMOD_QUERIES


@pytest.fixture()
def db():
    database = Database("vectorized")
    database.execute(
        "CREATE TABLE items (id INTEGER PRIMARY KEY, grp INTEGER, "
        "name VARCHAR, pad VARCHAR)"
    )
    for i in range(3000):
        database.insert("items", (i, i % 10, f"item{i % 40}", "x" * 20))
    database.runstats()
    return database


@pytest.fixture()
def small_batches(monkeypatch):
    """Every plan node emits 7-row batches for the duration of a test."""
    monkeypatch.setattr(Operator, "batch_size", 7)


def _plan_of(db, sql):
    box = ParamBox(0)
    plan = plan_select(parse_sql(sql), db, box)
    box.bind(())
    return plan


class TestBatchShapes:
    def test_batches_respect_configured_size(self, db, small_batches):
        plan = _plan_of(db, "SELECT id FROM items")
        sizes = [len(batch) for batch in plan.batches()]
        assert sum(sizes) == 3000
        assert all(size <= 7 for size in sizes)
        assert max(sizes) == 7  # an unfiltered scan must fill its batches

    def test_filtered_scan_emits_only_survivors(self, db, small_batches):
        # the scan filters each storage chunk in place, so output batches
        # may be smaller than batch_size but never empty
        plan = _plan_of(db, "SELECT id FROM items WHERE grp = 3")
        sizes = [len(batch) for batch in plan.batches()]
        assert sum(sizes) == 300
        assert all(0 < size <= 7 for size in sizes)

    def test_default_batch_size_bounds_scan_output(self, db):
        plan = _plan_of(db, "SELECT id FROM items")
        sizes = [len(batch) for batch in plan.batches()]
        assert sum(sizes) == 3000
        assert all(size <= DEFAULT_BATCH_SIZE for size in sizes)

    def test_rows_flattens_batches(self, db):
        plan = _plan_of(db, "SELECT id FROM items WHERE id < 5")
        assert sorted(plan.rows()) == [(0,), (1,), (2,), (3,), (4,)]


class TestProjectionPushdown:
    def test_seq_scan_prunes_unneeded_columns(self, db):
        text = db.explain("SELECT id FROM items WHERE grp = 3")
        assert "cols[" in text
        assert "pad" not in text.split("cols[", 1)[1].split("]", 1)[0]

    def test_select_star_keeps_all_columns(self, db):
        text = db.explain("SELECT * FROM items")
        assert "cols[" not in text

    def test_pruned_scan_returns_same_rows(self, db):
        where = "WHERE grp = 3 AND id < 100"
        pruned = db.execute(f"SELECT name FROM items {where}")
        full = db.execute(f"SELECT * FROM items {where}")
        assert "cols[" in db.explain(f"SELECT name FROM items {where}")
        assert sorted(pruned) == sorted((row[2],) for row in full)


class TestConfigEpoch:
    def test_set_exec_config_invalidates_cached_plans(self, db):
        sql = "SELECT id FROM items WHERE grp = 3"
        db.execute(sql)
        db.execute(sql)
        hits_before = db.plan_cache.stats.hits
        assert hits_before >= 1
        db.set_exec_config(ExecutionConfig(xadt_structural_index=True))
        try:
            db.execute(sql)
        finally:
            db.set_exec_config(ExecutionConfig())
        assert db.plan_cache.stats.invalidations >= 1
        assert db.plan_cache.stats.hits == hits_before

    def test_exec_config_constructor_argument(self):
        database = Database("cfg", exec_config=ExecutionConfig(parallel_workers=2))
        assert database.exec_config.parallel_workers == 2
        assert not database.exec_config.xadt_structural_index


class TestExplainAnalyzeRowActuals:
    def test_actuals_count_rows_not_batches(self, db, small_batches):
        # small batches make the distinction unmissable: 300 rows in
        # 7-row batches is 43 batch pulls but must report 300 rows
        sql = "SELECT id FROM items WHERE grp = 3"
        report = db.explain_analyze(sql)
        assert report.root.actual_rows == 300
        scan = report.operators[-1]
        assert scan.actual_rows == 300

    def test_miss_flag_uses_row_counts(self, db):
        # grp has 10 distinct values; a fresh-stats equality estimate is
        # ~300 rows, so a correct per-row actual must NOT flag, while a
        # per-batch actual (~1 batch of 1024) would look like a >10x miss
        report = db.explain_analyze("SELECT id FROM items WHERE grp = 3")
        scan = report.operators[-1]
        assert scan.actual_rows == 300
        assert not scan.flagged


def _canonical(rows):
    return sorted(tuple(render(value) for value in row) for row in rows)


def _assert_batch_size_invisible(loaded, sql, key, monkeypatch):
    db = loaded.db
    default = db.execute(sql)
    with monkeypatch.context() as patch:
        patch.setattr(Operator, "batch_size", 7)
        small = db.execute(sql)
    assert _canonical(default) == _canonical(small), (
        f"{key}: result set depends on the batch size"
    )


class TestWorkloadParity:
    """Where batch boundaries fall changes no result: every Figure 11
    and Figure 13 query, both schemas, at 7-row batches vs the default.
    (Parity with an independent evaluator is the SQLite oracle's job:
    ``tests/backends/test_sqlite_backend.py``.)"""

    @pytest.mark.parametrize("query", SHAKESPEARE_QUERIES,
                             ids=lambda q: q.key)
    def test_fig11_agreement(self, shakespeare_pair, query, monkeypatch):
        hybrid, xorator = shakespeare_pair
        _assert_batch_size_invisible(
            hybrid, query.hybrid_sql, f"{query.key}/hybrid", monkeypatch
        )
        _assert_batch_size_invisible(
            xorator, query.xorator_sql, f"{query.key}/xorator", monkeypatch
        )

    @pytest.mark.parametrize("query", SIGMOD_QUERIES, ids=lambda q: q.key)
    def test_fig13_agreement(self, sigmod_pair, query, monkeypatch):
        hybrid, xorator = sigmod_pair
        _assert_batch_size_invisible(
            hybrid, query.hybrid_sql, f"{query.key}/hybrid", monkeypatch
        )
        _assert_batch_size_invisible(
            xorator, query.xorator_sql, f"{query.key}/xorator", monkeypatch
        )
