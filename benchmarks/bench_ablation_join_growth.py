"""Ablation 4 (DESIGN.md §5): scan vs join growth with scale (paper §4.4).

The paper explains the Figure-13 crossover by growth rates: XORator's
no-join queries grow with the scan O(n), while Hybrid's joins degrade
once their build sides outgrow working memory.  This bench plots both
series for QG2 and checks the jump where the spill starts.
"""

from bench_fig13_sigmod_queries import KNOWN_DEVIATIONS
from conftest import print_report

from repro.bench.experiments import run_ablation_join_growth
from repro.bench.report import render_growth


def test_join_growth_qg2(benchmark):
    points = run_ablation_join_growth(scales=(1, 2, 4, 8), query_key="QG2")
    print_report(
        "Growth with scale — QG2 (paper §4.4: Hybrid grows faster than "
        "XORator once joins spill; ratio crosses 1)",
        render_growth(points, "QG2"),
    )
    first, last = points[0], points[-1]
    first_ratio = first.hybrid_seconds / first.xorator_seconds
    last_ratio = last.hybrid_seconds / last.xorator_seconds
    assert last_ratio > 4 * first_ratio  # Hybrid degrades faster once it spills
    # "and eventually loses" is QG2's entry in Figure 13's known deviations
    assert (last_ratio > 1.0) == (8 not in KNOWN_DEVIATIONS["QG2"][0])
    # both sides grow with data
    assert last.hybrid_seconds > first.hybrid_seconds
    assert last.xorator_seconds > first.xorator_seconds
    benchmark(run_ablation_join_growth, (1,), "QG2")


def test_join_growth_selection_query(benchmark):
    points = run_ablation_join_growth(scales=(1, 4), query_key="QG5")
    print_report(
        "Growth with scale — QG5 (aggregation with selection)",
        render_growth(points, "QG5"),
    )
    assert points[-1].hybrid_seconds > points[0].hybrid_seconds
    benchmark(lambda: None)
