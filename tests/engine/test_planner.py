"""Planner behaviour: access paths, join strategy, lateral functions."""

import pytest

from repro.engine import Database
from repro.engine.types import INTEGER
from repro.errors import PlanError


@pytest.fixture()
def db():
    database = Database("plan")
    # wide rows over many pages: index plans must beat sequential scans
    # under the simulated-disk cost model for the selective queries below
    database.execute(
        "CREATE TABLE orders (oID INTEGER PRIMARY KEY, cID INTEGER, "
        "v INTEGER, pad VARCHAR)"
    )
    database.execute(
        "CREATE TABLE customers (custID INTEGER PRIMARY KEY, city VARCHAR)"
    )
    for i in range(5000):
        database.insert("orders", (i, i % 50, i % 7, "x" * 100))
    for i in range(50):
        database.insert("customers", (i, f"city{i % 5}"))
    database.runstats()
    return database


class TestAccessPaths:
    def test_selective_index_scan_chosen(self, db):
        db.create_index("idx_o", "orders", "oID", "hash")
        db.runstats()
        plan = db.explain("SELECT v FROM orders WHERE oID = 3")
        assert "IndexScan" in plan

    def test_unselective_index_avoided(self, db):
        db.create_index("idx_v", "orders", "v", "hash")
        db.runstats()
        # v has 7 distinct values over 1000 rows: scanning wins
        plan = db.explain("SELECT oID FROM orders WHERE v = 3")
        assert "SeqScan" in plan

    def test_predicate_pushed_into_scan(self, db):
        plan = db.explain("SELECT oID FROM orders WHERE v = 3 AND cID = 2")
        assert "filter" in plan

    def test_residual_on_index_scan(self, db):
        db.create_index("idx_o", "orders", "oID", "hash")
        db.runstats()
        plan = db.explain("SELECT v FROM orders WHERE oID = 3 AND v = 1")
        assert "IndexScan" in plan
        assert "residual" in plan


class TestJoinStrategy:
    def test_hash_join_for_full_join(self, db):
        plan = db.explain(
            "SELECT city FROM customers, orders WHERE cID = custID"
        )
        assert "HashJoin" in plan

    def test_index_nl_join_for_selective_outer(self, db):
        db.create_index("idx_cid", "orders", "cID", "hash")
        db.runstats()
        plan = db.explain(
            "SELECT v FROM customers, orders "
            "WHERE cID = custID AND custID = 7"
        )
        assert "IndexNLJoin" in plan

    def test_smallest_filtered_table_drives_order(self, db):
        plan = db.explain(
            "SELECT v FROM customers, orders "
            "WHERE cID = custID AND custID = 7"
        )
        # customers (1 row after filter) should be the outer side
        first_scan = [l for l in plan.splitlines() if "Scan" in l][0]
        assert "customers" in first_scan

    def test_cross_join_when_no_edge(self, db):
        plan = db.explain("SELECT 1 FROM customers, orders")
        assert "NestedLoopJoin" in plan

    def test_results_identical_with_and_without_indexes(self, db):
        sql = (
            "SELECT oID FROM customers, orders "
            "WHERE cID = custID AND city = 'city3'"
        )
        before = sorted(db.execute(sql).column("oID"))
        db.create_index("idx_cid", "orders", "cID", "hash")
        db.create_index("idx_city", "customers", "city", "hash")
        db.runstats()
        after = sorted(db.execute(sql).column("oID"))
        assert before == after and len(before) == 1000


class TestLateralFunctions:
    def test_lateral_sees_left_columns(self, db):
        db.registry.register_table(
            "repeat_n", lambda n: [(i,) for i in range(n or 0)], [("i", INTEGER)]
        )
        result = db.execute(
            "SELECT custID, r.i FROM customers, TABLE(repeat_n(custID)) r "
            "WHERE custID = 3"
        )
        assert result.column("i") == [0, 1, 2]

    def test_chained_laterals(self, db):
        db.registry.register_table(
            "repeat_n", lambda n: [(i,) for i in range(n or 0)], [("i", INTEGER)]
        )
        result = db.execute(
            "SELECT a.i, b.i FROM customers, TABLE(repeat_n(custID)) a, "
            "TABLE(repeat_n(a.i)) b WHERE custID = 3"
        )
        # a in {0,1,2}; b ranges over range(a): rows = 0 + 1 + 2
        assert len(result) == 3

    def test_filter_on_lateral_output(self, db):
        db.registry.register_table(
            "repeat_n", lambda n: [(i,) for i in range(n or 0)], [("i", INTEGER)]
        )
        result = db.execute(
            "SELECT r.i FROM customers, TABLE(repeat_n(custID)) r "
            "WHERE custID = 5 AND r.i >= 3"
        )
        assert result.column("i") == [3, 4]

    def test_scalar_calls_in_lateral_arguments_are_counted_per_row(self, db):
        db.registry.register_table(
            "repeat_n", lambda n: [(i,) for i in range(n or 0)], [("i", INTEGER)]
        )
        db.registry.register_scalar("halve", lambda n: n // 2, min_args=1, max_args=1)
        db.reset_function_stats()
        result = db.execute(
            "SELECT custID, r.i FROM customers, TABLE(repeat_n(halve(custID))) r "
            "WHERE custID < 6"
        )
        rows = len(db.execute("SELECT custID FROM customers WHERE custID < 6"))
        assert db.registry.stats.scalar_calls == {"halve": rows}
        assert db.registry.stats.table_calls == {"repeat_n": rows}
        assert sorted(result.rows) == sorted(
            (cust, i)
            for (cust,) in db.execute(
                "SELECT custID FROM customers WHERE custID < 6"
            ).rows
            for i in range(cust // 2)
        )

    def test_table_function_without_arguments(self, db):
        db.registry.register_table("pair", lambda: [(1,), (2,)], [("i", INTEGER)])
        result = db.execute(
            "SELECT custID, p.i FROM customers, TABLE(pair()) p WHERE custID = 3"
        )
        assert result.rows == [(3, 1), (3, 2)]

    def test_wrong_width_row_reports_the_first_offender(self, db):
        from repro.errors import ExecutionError

        db.registry.register_table(
            "ragged", lambda n: [(1,), (1, 2, 3), (1, 2)], [("i", INTEGER)]
        )
        with pytest.raises(
            ExecutionError,
            match="table function 'ragged' produced 3 columns, declared 1",
        ):
            db.execute("SELECT r.i FROM customers, TABLE(ragged(custID)) r")

    def test_lateral_cannot_reference_rightward(self, db):
        db.registry.register_table(
            "repeat_n", lambda n: [(i,) for i in range(n or 0)], [("i", INTEGER)]
        )
        with pytest.raises(PlanError):
            db.execute(
                "SELECT 1 FROM customers, TABLE(repeat_n(b.i)) a, "
                "TABLE(repeat_n(custID)) b"
            )
