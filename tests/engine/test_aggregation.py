"""Aggregation: GROUP BY, HAVING, COUNT/SUM/AVG/MIN/MAX, DISTINCT aggs."""

import pytest

from repro.engine import Database
from repro.errors import ExecutionError, PlanError


@pytest.fixture()
def db():
    database = Database("agg")
    database.execute(
        "CREATE TABLE papers (pID INTEGER PRIMARY KEY, author VARCHAR, "
        "section INTEGER, pages INTEGER)"
    )
    rows = [
        (1, "Codd", 1, 10),
        (2, "Codd", 1, 12),
        (3, "Codd", 2, 8),
        (4, "Gray", 1, 20),
        (5, "Gray", 3, 6),
        (6, "Bird", 2, None),
    ]
    database.bulk_insert("papers", rows)
    database.runstats()
    return database


class TestGrandTotals:
    def test_count_star(self, db):
        assert db.execute("SELECT COUNT(*) FROM papers").scalar() == 6

    def test_count_column_skips_nulls(self, db):
        assert db.execute("SELECT COUNT(pages) FROM papers").scalar() == 5

    def test_sum(self, db):
        assert db.execute("SELECT SUM(pages) FROM papers").scalar() == 56

    def test_avg(self, db):
        assert db.execute("SELECT AVG(pages) FROM papers").scalar() == 56 / 5

    def test_min_max(self, db):
        result = db.execute("SELECT MIN(pages), MAX(pages) FROM papers")
        assert result.rows[0] == (6, 20)

    def test_count_distinct(self, db):
        assert (
            db.execute("SELECT COUNT(DISTINCT author) FROM papers").scalar() == 3
        )

    def test_empty_input_count_is_zero(self, db):
        result = db.execute("SELECT COUNT(*) FROM papers WHERE pID > 100")
        assert result.scalar() == 0

    def test_empty_input_sum_is_null(self, db):
        result = db.execute("SELECT SUM(pages) FROM papers WHERE pID > 100")
        assert result.scalar() is None


class TestGroupBy:
    def test_group_counts(self, db):
        result = db.execute(
            "SELECT author, COUNT(*) AS n FROM papers GROUP BY author"
        )
        assert dict(result.rows) == {"Codd": 3, "Gray": 2, "Bird": 1}

    def test_group_by_with_filter(self, db):
        result = db.execute(
            "SELECT author, COUNT(*) FROM papers WHERE section = 1 GROUP BY author"
        )
        assert dict(result.rows) == {"Codd": 2, "Gray": 1}

    def test_count_distinct_per_group(self, db):
        result = db.execute(
            "SELECT author, COUNT(DISTINCT section) FROM papers GROUP BY author"
        )
        assert dict(result.rows) == {"Codd": 2, "Gray": 2, "Bird": 1}

    def test_group_by_expression(self, db):
        result = db.execute(
            "SELECT length(author), COUNT(*) FROM papers GROUP BY length(author)"
        )
        assert dict(result.rows) == {4: 6}

    def test_having(self, db):
        result = db.execute(
            "SELECT author FROM papers GROUP BY author HAVING COUNT(*) >= 2"
        )
        assert sorted(result.column("author")) == ["Codd", "Gray"]

    def test_order_by_aggregate(self, db):
        result = db.execute(
            "SELECT author, COUNT(*) AS n FROM papers GROUP BY author "
            "ORDER BY n DESC, author"
        )
        assert result.column("author") == ["Codd", "Gray", "Bird"]

    def test_aggregate_of_expression(self, db):
        result = db.execute("SELECT SUM(pages + 1) FROM papers")
        assert result.scalar() == 56 + 5  # five non-null pages

    def test_expression_over_aggregate(self, db):
        result = db.execute("SELECT COUNT(*) + 1 FROM papers")
        assert result.scalar() == 7

    def test_group_key_is_null_groups_together(self, db):
        db.insert("papers", (7, None, 9, 1))
        db.insert("papers", (8, None, 9, 2))
        result = db.execute(
            "SELECT author, COUNT(*) FROM papers GROUP BY author"
        )
        assert dict(result.rows)[None] == 2


class TestExpressionsOverAggregates:
    """Post-aggregate expressions go through the same generated compiler
    as every other expression, so they share its semantics: per-author
    sums are Codd 30 (3 rows), Gray 26 (2), Bird NULL (1)."""

    def test_integer_division_floors_like_a_plain_column(self, db):
        db.insert("papers", (7, "Gray", 1, 1))  # Gray: 27 pages over 3 rows
        plain = db.execute("SELECT pages / 4 FROM papers WHERE pID = 1")
        assert plain.scalar() == 2
        result = db.execute(
            "SELECT author, SUM(pages) / 2, SUM(pages) / COUNT(*) "
            "FROM papers GROUP BY author ORDER BY author"
        )
        assert result.rows == [("Bird", None, None), ("Codd", 15, 10), ("Gray", 13, 9)]
        assert all(
            type(value) is int for row in result.rows[1:] for value in row[1:]
        )

    def test_negated_aggregate(self, db):
        result = db.execute(
            "SELECT author, -COUNT(*) FROM papers GROUP BY author ORDER BY author"
        )
        assert result.rows == [("Bird", -1), ("Codd", -3), ("Gray", -2)]

    def test_having_aggregate_is_null(self, db):
        null = db.execute(
            "SELECT author FROM papers GROUP BY author HAVING SUM(pages) IS NULL"
        )
        assert null.rows == [("Bird",)]
        not_null = db.execute(
            "SELECT author FROM papers GROUP BY author "
            "HAVING SUM(pages) IS NOT NULL ORDER BY author"
        )
        assert not_null.rows == [("Codd",), ("Gray",)]

    def test_arithmetic_over_two_aggregates(self, db):
        result = db.execute(
            "SELECT author, SUM(pages) + COUNT(*), SUM(pages) * 2 "
            "FROM papers GROUP BY author ORDER BY author"
        )
        assert result.rows == [("Bird", None, None), ("Codd", 33, 60), ("Gray", 28, 52)]

    @pytest.mark.parametrize(
        "key, expected",
        [
            ("-COUNT(*)", ["Codd", "Gray", "Bird"]),
            ("SUM(pages) + COUNT(*)", ["Gray", "Codd", "Bird"]),  # NULLs last
            ("SUM(pages) * 2 DESC", ["Bird", "Codd", "Gray"]),
            ("SUM(pages) / COUNT(*)", ["Codd", "Gray", "Bird"]),
        ],
    )
    def test_as_order_by_key(self, db, key, expected):
        result = db.execute(
            f"SELECT author FROM papers GROUP BY author ORDER BY {key}"
        )
        assert result.column("author") == expected

    def test_division_by_zero_is_an_execution_error(self, db):
        with pytest.raises(ExecutionError):
            db.execute(
                "SELECT author, SUM(pages) / (COUNT(*) - COUNT(*)) "
                "FROM papers WHERE pages > 0 GROUP BY author"
            )


class TestAggregateErrors:
    def test_bare_column_outside_group_rejected(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT author, COUNT(*) FROM papers")

    def test_having_without_group_or_aggregate_rejected(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT pID FROM papers HAVING pID > 1")

    def test_sum_of_text_rejected(self, db):
        with pytest.raises(Exception):
            db.execute("SELECT SUM(author) FROM papers")

    def test_star_outside_count_rejected(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT SUM(*) FROM papers")
