"""Figure 13: Hybrid/XORator ratios for QG1-QG6 + loading, DSx1-DSx8.

Every assertion reads the modeled cold time (counted work and pages x
pinned constants; ``repro.engine.io``), one execution per cell.  The
paper's first observation reproduces in full: at DSx1/DSx2 XORator is
slower on every query (its queries make 4-8 UDF calls scanning the big
sList fragments while Hybrid's joins still fit in memory).  The second
— the ratio crosses above 1 as the data outgrows join memory —
reproduces where the mechanism the paper names exists in the plan: the
queries whose hash joins spill (QG1, QG2, QG4) jump between DSx2 and
DSx4.  The cells where the model and the paper disagree are listed in
``KNOWN_DEVIATIONS`` and asserted in both directions.
"""

import pytest
from conftest import assert_figure_shape, print_report

from repro.bench.experiments import run_fig13
from repro.bench.report import render_ratio_sweep
from repro.workloads import SIGMOD_QUERIES

#: query -> (scales where the model disagrees with the paper's
#: "below 1 at DSx1/DSx2, above 1 at DSx4/DSx8", the counter that decides
#: it).  Mirrored line for line in EXPERIMENTS.md "Known deviations"; a
#: listed cell that stops deviating fails the sweep like an unlisted one
#: that starts.  Shortening this list is ROADMAP item 2's experiment (the
#: paper-scale corpus), not a matter of changing a constant.
KNOWN_DEVIATIONS = {
    "QG1": ((4, 8), "spills from DSx4 and jumps 0.20 -> 0.92, short of 1: "
                    "xadt_bytes_decoded (the dict payload decompressed on "
                    "two calls per document) keeps XORator's CPU ahead"),
    "QG2": ((4, 8), "spills from DSx4 and jumps 0.09 -> 0.50: "
                    "xadt_bytes_scanned (unnest over every sListTuple, then "
                    "over every author) outweighs Hybrid's spill pages"),
    "QG3": ((4, 8), "no spill_pages at any scale (the filtered build side "
                    "fits work_mem): both sides grow linearly, ratio flat"),
    "QG5": ((4, 8), "no spill_pages at any scale: both sides grow linearly"),
    "QG6": ((4, 8), "no spill_pages at any scale: both sides grow linearly"),
}
#: the queries whose Hybrid plan spills once the data outgrows work_mem
SPILLING = ("QG1", "QG2", "QG4")


@pytest.mark.parametrize("query", SIGMOD_QUERIES, ids=lambda q: q.key)
def test_hybrid_query(query, sigmod_pair_x1, benchmark):
    db = sigmod_pair_x1.hybrid.db
    benchmark(db.execute, query.hybrid_sql)


@pytest.mark.parametrize("query", SIGMOD_QUERIES, ids=lambda q: q.key)
def test_xorator_query(query, sigmod_pair_x1, benchmark):
    db = sigmod_pair_x1.xorator.db
    benchmark(db.execute, query.xorator_sql)


def test_figure13_sweep(benchmark):
    sweep = run_fig13(scales=(1, 2, 4, 8))
    print_report(
        "Figure 13 — Hybrid/XORator performance ratios, SIGMOD Proceedings "
        "(paper: below 1 at DSx1/DSx2, above 1 at DSx4/DSx8)",
        render_ratio_sweep(sweep, "Figure 13"),
    )
    # observation (a): Hybrid wins when the data is small
    assert sum(1 for key in sweep.ratios if sweep.ratio(key, 1) < 1.0) >= 4
    # observation (b), cell by cell, against the paper's shape
    assert_figure_shape(
        sweep, lambda key, scale: scale >= 4, KNOWN_DEVIATIONS
    )
    # the mechanism: a query crosses over exactly where its joins start
    # to spill, and a query that never spills keeps its ratio
    for key, cells in sweep.ratios.items():
        spills = [cells[scale].hybrid.spill_pages for scale in sweep.scales]
        if key in SPILLING:
            assert spills[:2] == [0, 0] and min(spills[2:]) > 0, (key, spills)
            assert sweep.ratio(key, 4) > 2 * sweep.ratio(key, 2), key
        else:
            assert spills == [0, 0, 0, 0], (key, spills)
    assert sweep.ratio("QG4", 4) > 1.0 and sweep.ratio("QG4", 8) > 1.0
    # loading: XORator prepares its database faster at every scale
    assert all(ratio > 1.0 for ratio in sweep.load_ratios.values())

    from repro.bench.harness import build_pair, cold_query

    pair = build_pair("sigmod", 1)
    benchmark(
        lambda: cold_query(pair.xorator.db, SIGMOD_QUERIES[0].xorator_sql)
    )
