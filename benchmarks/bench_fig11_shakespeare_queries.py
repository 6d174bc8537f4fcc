"""Figure 11: Hybrid/XORator ratios for QS1-QS6 + loading, DSx1-DSx8.

The per-query pytest benchmarks measure wall CPU at DSx1; the printed
sweep regenerates the figure's ratio series over the paper's four
scales using modeled cold time — counted work and pages x pinned
constants (``repro.engine.io``), one execution per cell — and every
shape assertion reads that model.  The cells where the model and the
paper disagree are listed in ``KNOWN_DEVIATIONS`` and asserted in both
directions.
"""

import json

import pytest
from conftest import assert_figure_shape, print_report

from repro.bench.experiments import run_fig11
from repro.bench.harness import cold_query
from repro.bench.report import render_ratio_sweep, sweep_to_json
from repro.workloads import SHAKESPEARE_QUERIES

#: query -> (scales where the model disagrees with the paper's "QS1-QS5
#: above 1, QS6 below 1, at every scale", the counter that decides it).
#: Mirrored line for line in EXPERIMENTS.md "Known deviations"; asserted
#: in both directions.  Shortening this list is the experiment of the
#: ROADMAP item "Run Figs. 11 and 13 at the paper's data sizes" (the
#: paper-scale corpus), not a matter of changing a constant.
KNOWN_DEVIATIONS = {
    "QS4": ((1, 2), "spill_pages: Hybrid's speech join only spills from DSx4 "
                    "(0, 0, 13, 24); before that XORator's extra "
                    "sequential_pages (21 vs 9: wider speech rows) decide"),
    "QS6": ((1, 2, 4, 8), "xadt_bytes_scanned vs spill_pages: getElmIndex "
                          "scans 3.5 KB (DSx1) to 38.5 KB (DSx8) of short "
                          "generated prologues, 0.7-6.6 ms of CPU, while "
                          "Hybrid's speech-line join spills from DSx2 "
                          "(0, 11, 22, 43)"),
}


@pytest.mark.parametrize("query", SHAKESPEARE_QUERIES, ids=lambda q: q.key)
def test_hybrid_query(query, shakespeare_pair_x1, benchmark):
    db = shakespeare_pair_x1.hybrid.db
    benchmark(db.execute, query.hybrid_sql)


@pytest.mark.parametrize("query", SHAKESPEARE_QUERIES, ids=lambda q: q.key)
def test_xorator_query(query, shakespeare_pair_x1, benchmark):
    db = shakespeare_pair_x1.xorator.db
    benchmark(db.execute, query.xorator_sql)


def test_figure11_sweep(benchmark):
    sweep = run_fig11(scales=(1, 2, 4, 8))
    print_report(
        "Figure 11 — Hybrid/XORator performance ratios, Shakespeare "
        "(paper: QS1-QS5 above 1 and often ~10x; QS6 below 1; "
        "see EXPERIMENTS.md for the QS4/QS6 deviations)",
        render_ratio_sweep(sweep, "Figure 11"),
    )
    artifact = sweep_to_json(sweep)
    print_report("Figure 11 — JSON artifact (model beside host wall)", artifact)
    # every cold run in the artifact carries the model's two terms and,
    # beside them, the host's parse/plan/execute split
    payload = json.loads(artifact)
    for cell in payload["queries"]["QS1"].values():
        run = cell["xorator"]
        assert run["modeled_seconds"] == run["cpu_seconds"] + run["disk_seconds"]
        assert "execute" in run["phase_seconds"]
    # the paper's shape, cell by cell
    assert_figure_shape(
        sweep, lambda key, scale: key != "QS6", KNOWN_DEVIATIONS
    )
    for scale in sweep.scales:
        assert sweep.ratio("QS3", scale) > 5.0
    # loading: XORator prepares its database faster at every scale
    assert all(ratio > 1.0 for ratio in sweep.load_ratios.values())
    # re-run the cheapest cell as the timed payload
    from repro.bench.harness import build_pair

    pair = build_pair("shakespeare", 1)
    benchmark(
        lambda: cold_query(
            pair.xorator.db, SHAKESPEARE_QUERIES[0].xorator_sql
        )
    )
