"""Cost model and selectivity estimation."""

import pytest

from repro.engine.plan import cost
from repro.engine.sql.parser import parse_expression
from repro.engine.statistics import ColumnStatistics, TableStats


@pytest.fixture()
def stats():
    table = TableStats(row_count=1000, data_pages=10)
    table.columns["code"] = ColumnStatistics(n_distinct=4)
    table.columns["id"] = ColumnStatistics(n_distinct=1000)
    return table


class TestSelectivity:
    def test_equality_uses_distinct_count(self, stats):
        expr = parse_expression("code = 'ACT'")
        assert cost.predicate_selectivity(expr, stats) == pytest.approx(0.25)

    def test_equality_without_stats_defaults(self):
        expr = parse_expression("code = 'ACT'")
        assert cost.predicate_selectivity(expr, None) == pytest.approx(0.01)

    def test_range_predicate(self, stats):
        expr = parse_expression("id < 100")
        assert cost.predicate_selectivity(expr, stats) == pytest.approx(1 / 3)

    def test_like_default(self, stats):
        expr = parse_expression("code LIKE '%x%'")
        assert cost.predicate_selectivity(expr, stats) == pytest.approx(0.1)

    def test_or_combines_independently(self, stats):
        expr = parse_expression("code = 'A' OR code = 'B'")
        combined = cost.predicate_selectivity(expr, stats)
        assert 0.25 < combined < 0.5

    def test_not_inverts(self, stats):
        expr = parse_expression("NOT code = 'A'")
        assert cost.predicate_selectivity(expr, stats) == pytest.approx(0.75)

    def test_never_exceeds_one(self, stats):
        expr = parse_expression("code <> 'A' OR code <> 'B' OR id <> 1")
        assert cost.predicate_selectivity(expr, stats) <= 1.0

    def test_eq_match_estimate(self, stats):
        assert cost.eq_match_estimate(stats, "id", 1000) == pytest.approx(1.0)
        assert cost.eq_match_estimate(stats, "code", 1000) == pytest.approx(250)
        assert cost.eq_match_estimate(None, "x", 1000) == pytest.approx(10)

    def test_join_selectivity_uses_larger_side(self, stats):
        sel = cost.join_selectivity(stats, "id", stats, "code")
        assert sel == pytest.approx(1 / 1000)

    def test_join_selectivity_default(self):
        assert cost.join_selectivity(None, "a", None, "b") == pytest.approx(0.01)


class TestCostShapes:
    def test_seq_scan_grows_with_pages(self):
        assert cost.seq_scan_cost(100, 50) > cost.seq_scan_cost(100, 5)

    def test_index_scan_capped_by_table_pages(self):
        uncapped = cost.index_scan_cost(10_000)
        capped = cost.index_scan_cost(10_000, table_pages=20)
        assert capped < uncapped

    def test_selective_index_beats_scan_on_big_tables(self):
        scan = cost.seq_scan_cost(100_000, 1000)
        probe = cost.index_scan_cost(3, table_pages=1000)
        assert probe < scan

    def test_hash_join_spill_penalty(self):
        in_memory = cost.hash_join_cost(1000, 1000, work_mem_bytes=10**9)
        spilling = cost.hash_join_cost(1000, 1000, work_mem_bytes=1024)
        assert spilling > in_memory

    def test_index_nl_join_cap(self):
        uncapped = cost.index_nl_join_cost(1000, 50)
        capped = cost.index_nl_join_cost(1000, 50, table_pages=100)
        assert capped < uncapped

    def test_random_page_dearer_than_sequential(self):
        assert cost.MS_RANDOM_PAGE > cost.MS_SEQ_PAGE
