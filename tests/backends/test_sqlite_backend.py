"""The SQLite backend: parity with the native engine, errors, caching."""

from __future__ import annotations

import pytest

from repro.difftest.runner import canonical_rows
from repro.engine.plan_cache import normalize_sql
from repro.errors import (
    BackendError,
    BackendUnsupported,
    EngineError,
    ReproError,
)
from repro.workloads import sigmod_queries
from repro.workloads.shakespeare_queries import workload_sql


def _assert_parity(db, sql, params=()):
    native = canonical_rows(db.execute(sql, params).rows)
    mirrored = canonical_rows(db.execute(sql, params, backend="sqlite").rows)
    assert native == mirrored, sql


@pytest.fixture()
def loaded_db(empty_db):
    empty_db.execute(
        "CREATE TABLE part (partID INTEGER PRIMARY KEY, name VARCHAR, qty INTEGER)"
    )
    empty_db.execute(
        "INSERT INTO part VALUES (1, 'bolt', 40), (2, 'nut', NULL), "
        "(3, 'washer', 40), (4, NULL, 7)"
    )
    return empty_db


class TestParity:
    def test_workload_parity_hybrid(self, shakespeare_pair):
        hybrid, _ = shakespeare_pair
        for sql in workload_sql("hybrid"):
            _assert_parity(hybrid.db, sql)

    def test_workload_parity_xorator_xadt_methods(self, shakespeare_pair):
        _, xorator = shakespeare_pair
        for sql in workload_sql("xorator"):
            _assert_parity(xorator.db, sql)

    def test_fig13_parity_hybrid(self, sigmod_pair):
        hybrid, _ = sigmod_pair
        for sql in sigmod_queries.workload_sql("hybrid"):
            _assert_parity(hybrid.db, sql)

    def test_fig13_xorator_is_unsupported(self, sigmod_pair):
        # nested getElm / lateral unnest do not translate; the XORator
        # QG answers are pinned by tests/workloads/test_equivalence.py
        # (XORator = Hybrid, which the oracle above covers)
        _, xorator = sigmod_pair
        for sql in sigmod_queries.workload_sql("xorator"):
            with pytest.raises(BackendUnsupported):
                xorator.db.execute(sql, backend="sqlite")

    def test_scan_filter_parity(self, loaded_db):
        _assert_parity(loaded_db, "SELECT name FROM part WHERE qty = 40")
        _assert_parity(loaded_db, "SELECT * FROM part WHERE name LIKE '%t%'")
        _assert_parity(loaded_db, "SELECT partID FROM part WHERE qty IS NULL")
        _assert_parity(
            loaded_db, "SELECT partID FROM part WHERE NOT (qty = 40)"
        )

    def test_aggregate_parity(self, loaded_db):
        _assert_parity(
            loaded_db,
            "SELECT COUNT(*), COUNT(qty), SUM(qty), MIN(name), AVG(qty) FROM part",
        )
        _assert_parity(
            loaded_db,
            "SELECT qty, COUNT(*) FROM part GROUP BY qty HAVING COUNT(*) > 0",
        )
        # expressions over aggregates (the native side compiles them
        # against the aggregate's output row)
        _assert_parity(
            loaded_db,
            "SELECT qty, -COUNT(*), SUM(partID) + COUNT(*), SUM(partID) * 2 "
            "FROM part GROUP BY qty",
        )
        _assert_parity(
            loaded_db,
            "SELECT name FROM part GROUP BY name HAVING SUM(qty) IS NOT NULL",
        )
        _assert_parity(
            loaded_db,
            "SELECT qty FROM part GROUP BY qty "
            "ORDER BY -COUNT(*), SUM(partID) * 2 DESC LIMIT 2",
        )

    def test_order_limit_and_params(self, loaded_db):
        _assert_parity(
            loaded_db,
            "SELECT partID, name FROM part WHERE qty = ? "
            "ORDER BY partID DESC LIMIT 2",
            (40,),
        )

    def test_empty_table_parity(self, loaded_db):
        loaded_db.execute("CREATE TABLE hollow (x INTEGER)")
        _assert_parity(loaded_db, "SELECT COUNT(*), SUM(x) FROM hollow")
        _assert_parity(loaded_db, "SELECT * FROM hollow")


class TestNullOrdering:
    """NULLs sort high on both backends, as in DB2: last under ASC,
    first under DESC — row order, not just the multiset."""

    EXPECTED = {
        "ASC": [(0, 1), (2, 2), (3, 2), (1, None)],
        "DESC": [(1, None), (2, 2), (3, 2), (0, 1)],
    }

    @pytest.fixture()
    def nullable(self, empty_db):
        empty_db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, c INTEGER)")
        empty_db.execute("INSERT INTO t VALUES (0, 1), (1, NULL), (2, 2), (3, 2)")
        return empty_db

    @pytest.mark.parametrize("backend", ["native", "sqlite"])
    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    @pytest.mark.parametrize("limit", [None, 2])
    def test_nullable_key(self, nullable, backend, direction, limit):
        sql = f"SELECT id, c FROM t ORDER BY c {direction}, id"
        expected = self.EXPECTED[direction]
        if limit is not None:
            sql += f" LIMIT {limit}"
            expected = expected[:limit]
        assert nullable.execute(sql, backend=backend).rows == expected


class TestFreshness:
    def test_mirror_sees_appended_rows(self, loaded_db):
        before = loaded_db.execute(
            "SELECT COUNT(*) FROM part", backend="sqlite"
        ).scalar()
        loaded_db.execute("INSERT INTO part VALUES (5, 'cog', 9)")
        after = loaded_db.execute(
            "SELECT COUNT(*) FROM part", backend="sqlite"
        ).scalar()
        assert (before, after) == (4, 5)

    def test_mirror_survives_ddl(self, loaded_db):
        loaded_db.execute("SELECT COUNT(*) FROM part", backend="sqlite")
        loaded_db.execute("CREATE TABLE other (y INTEGER)")
        loaded_db.execute("INSERT INTO other VALUES (1)")
        assert (
            loaded_db.execute(
                "SELECT COUNT(*) FROM other", backend="sqlite"
            ).scalar()
            == 1
        )


class TestErrors:
    def test_unknown_backend(self, loaded_db):
        with pytest.raises(BackendError):
            loaded_db.execute("SELECT 1 FROM part", backend="duckdb")

    def test_non_select_is_unsupported(self, loaded_db):
        with pytest.raises(BackendUnsupported):
            loaded_db.execute(
                "INSERT INTO part VALUES (9, 'x', 1)", backend="sqlite"
            )

    def test_integer_division_is_unsupported(self, loaded_db):
        with pytest.raises(BackendUnsupported):
            loaded_db.execute("SELECT qty / 2 FROM part", backend="sqlite")

    def test_param_count_mismatch_stays_in_taxonomy(self, loaded_db):
        with pytest.raises(BackendError):
            loaded_db.execute(
                "SELECT name FROM part WHERE qty = ?", (), backend="sqlite"
            )

    def test_taxonomy_placement(self):
        assert issubclass(BackendError, EngineError)
        assert issubclass(BackendUnsupported, BackendError)
        assert issubclass(BackendError, ReproError)


class TestPlanCache:
    def test_keys_are_prefixed_and_separate(self, loaded_db):
        sql = "SELECT name FROM part WHERE qty = 40"
        loaded_db.execute(sql)
        loaded_db.execute(sql, backend="sqlite")
        version = loaded_db.catalog.version
        native = loaded_db.plan_cache.lookup(normalize_sql(sql), version)
        mirrored = loaded_db.plan_cache.lookup(
            "sqlite::" + normalize_sql(sql), version
        )
        assert native is not None and mirrored is not None
        assert native.plan is not mirrored.plan
        assert "SELECT" in mirrored.plan.text

    def test_repeat_execution_reuses_compiled_sql(self, loaded_db):
        sql = "SELECT partID FROM part"
        first = loaded_db.backend("sqlite").compile(sql)
        second = loaded_db.backend("sqlite").compile(sql)
        assert first is second

    def test_backend_names(self, loaded_db):
        assert "sqlite" in loaded_db.backend_names()
        assert "native" in loaded_db.backend_names()
