"""Experiment functions: structure and paper-shape assertions at DSx1.

These run the real experiments at the base scale, asserting the paper's
*qualitative* claims (the quantitative sweeps live in benchmarks/).
"""

import pytest

from repro.bench import experiments as E
from repro.bench import report as R


@pytest.fixture(scope="module")
def table1():
    return E.run_table1(1)


@pytest.fixture(scope="module")
def table2():
    return E.run_table2(1)


class TestTable1:
    def test_table_counts_match_paper(self, table1):
        assert table1.hybrid.tables == 17
        assert table1.xorator.tables == 7

    def test_xorator_database_smaller(self, table1):
        # paper: XORator's database is ~60 % of Hybrid's
        assert 0.4 <= table1.database_ratio <= 0.8

    def test_xorator_index_much_smaller(self, table1):
        assert table1.xorator.index_bytes < 0.5 * table1.hybrid.index_bytes

    def test_render(self, table1):
        text = R.render_size_table(table1, "Table 1")
        assert "Hybrid" in text and "XORator" in text


class TestTable2:
    def test_table_counts_match_paper(self, table2):
        assert table2.hybrid.tables == 7
        assert table2.xorator.tables == 1

    def test_xorator_database_smaller(self, table2):
        # paper: ~65 % with compression chosen
        assert 0.35 <= table2.database_ratio <= 0.85


class TestFig14:
    @pytest.fixture(scope="class")
    def results(self):
        return E.run_fig14(1)

    def test_udf_slower_than_builtin(self, results):
        assert [r.key for r in results] == ["QT1", "QT2"]
        for result in results:
            assert (
                result.builtin_seconds < result.udf_seconds < result.fenced_seconds
            )
            assert result.udf_overhead == pytest.approx(0.40)
            assert result.fenced_overhead > result.udf_overhead

    def test_render(self, results):
        text = R.render_fig14(results)
        assert "QT1" in text and "QT2" in text


class TestCompressionChoice:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return {o.dataset: o for o in E.run_compression_choice(1)}

    def test_sigmod_chooses_compression(self, outcomes):
        assert set(outcomes["sigmod"].codecs.values()) == {"dict"}
        # paper: ~38 % smaller
        assert outcomes["sigmod"].savings >= 0.2

    def test_shakespeare_keeps_dominant_columns_plain(self, outcomes):
        codecs = outcomes["shakespeare"].codecs
        assert codecs["speech.speech_line"] == "plain"
        assert codecs["speech.speech_speaker"] == "plain"
        # overall savings below the 20 % threshold
        assert outcomes["shakespeare"].savings < 0.2


class TestTableCounts:
    def test_all_rows_present(self):
        rows = {r.dataset: r for r in E.run_table_counts()}
        assert rows["plays"].xorator == 5
        assert rows["plays"].hybrid == 9
        assert rows["shakespeare"].monet > rows["shakespeare"].basic
        assert rows["sigmod"].xorator == 1

    def test_render(self):
        assert "Monet" in R.render_table_counts(E.run_table_counts())


class TestAblations:
    def test_decoupling_reduces_tables(self):
        ablation = E.run_ablation_decouple(1)
        assert ablation.with_decoupling_tables == 7
        assert ablation.without_decoupling_tables > 7

    def test_inlining_family_ordering(self):
        results = {r.algorithm: r for r in E.run_ablation_inlining(1)}
        assert (
            results["xorator"].tables
            < results["hybrid"].tables
            <= results["shared"].tables
            <= results["basic"].tables
        )
        # XORator's path query touches fewer relations (fewer joins)
        assert results["xorator"].path_relations < results["hybrid"].path_relations

    def test_growth_points_collected(self):
        points = E.run_ablation_join_growth(scales=(1, 2), query_key="QG2")
        assert [p.scale for p in points] == [1, 2]
        assert all(p.hybrid_seconds > 0 for p in points)


class TestRatioSweepSmall:
    def test_single_scale_sweep(self):
        sweep = E.run_ratio_sweep(
            "shakespeare", E.SHAKESPEARE_QUERIES[:2], scales=(1,)
        )
        assert set(sweep.ratios) == {"QS1", "QS2"}
        assert sweep.ratio("QS1", 1) > 0
        assert 1 in sweep.load_ratios
        text = R.render_ratio_sweep(sweep, "Figure 11 (partial)")
        assert "QS1" in text and "LOAD" in text
