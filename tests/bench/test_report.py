"""Report renderers produce the paper-style layouts."""

import pytest

from repro.bench.experiments import (
    CompressionChoice,
    DecoupleAblation,
    GrowthPoint,
    InliningAblation,
    MicroResult,
    QueryRatio,
    RatioSweep,
    TableCountComparison,
)
from repro.bench.harness import ColdRun
from repro.bench.report import (
    render_compression,
    render_decouple,
    render_fig14,
    render_growth,
    render_inlining,
    render_ratio_sweep,
    render_size_table,
    render_table_counts,
)
from repro.bench.sizing import SizeComparison, SizeRow


def _cold(seconds):
    """A run modeled at ``seconds`` of CPU (and some unrelated wall)."""
    return ColdRun(
        rows=1, wall_seconds=123.0, sequential_pages=0,
        random_pages=0, spill_pages=0, cpu_seconds=seconds, disk_seconds=0.0,
    )


class TestRenderers:
    def test_size_table(self):
        comparison = SizeComparison(
            "shakespeare", 1,
            SizeRow("hybrid", 17, 15 * 2**20, 30 * 2**20, 1000),
            SizeRow("xorator", 7, 9 * 2**20, 3 * 2**20, 100),
        )
        text = render_size_table(comparison, "Table 1")
        assert "17" in text and "9.00 MB" in text
        assert "0.60" in text  # the ratio

    def test_ratio_sweep(self):
        sweep = RatioSweep("shakespeare", (1, 2))
        sweep.ratios["QS1"] = {
            1: QueryRatio("QS1", 1, _cold(0.02), _cold(0.01)),
            2: QueryRatio("QS1", 2, _cold(0.03), _cold(0.01)),
        }
        sweep.load_ratios = {1: 1.5, 2: 1.4}
        text = render_ratio_sweep(sweep, "Figure 11")
        assert "QS1" in text and "2.00" in text and "LOAD" in text

    def test_ratio_handles_zero_denominator(self):
        ratio = QueryRatio("Q", 1, _cold(0.01), _cold(0.0))
        assert ratio.ratio == float("inf")

    def test_fig14(self):
        text = render_fig14(
            [MicroResult("QT1", 0.001, 0.0014, 0.002)]
        )
        assert "QT1" in text and "40%" in text

    def test_micro_overheads(self):
        result = MicroResult("QT1", 0.001, 0.0014, 0.003)
        assert result.udf_overhead == pytest.approx(0.4)
        assert result.fenced_overhead == pytest.approx(2.0)

    def test_compression(self):
        text = render_compression(
            [CompressionChoice("sigmod", {"pp.pp_slist": "dict"},
                               100_000, 62_000)]
        )
        assert "sigmod" in text and "38%" in text

    def test_table_counts(self):
        text = render_table_counts(
            [TableCountComparison("plays", 5, 9, 10, 11, 42)]
        )
        assert "plays" in text and "42" in text

    def test_decouple(self):
        text = render_decouple(
            DecoupleAblation("shakespeare", 7, 15, 1000, 2000)
        )
        assert "7 tables" in text and "15 tables" in text

    def test_growth(self):
        text = render_growth(
            [GrowthPoint(1, 0.01, 0.02), GrowthPoint(8, 0.4, 0.05)],
            "QG2",
        )
        assert "DSx8" in text and "8.00" in text

    def test_inlining(self):
        text = render_inlining(
            [InliningAblation("xorator", 7, 150_000, 362, 4)]
        )
        assert "xorator" in text and "4" in text

