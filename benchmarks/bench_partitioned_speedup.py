"""Partition-parallel scatter-gather speedup on the Fig11 workload.

The tentpole acceptance gate: hash-partitioning the XORator ``speech``
table 4 ways and scanning it through the multiprocessing Exchange must
cut the *modeled cold* time of the Fig11 sweep by >= 2.5x median at
DSx16 — the partitioned analogue of the paper's cold-number methodology
on a scaled-out 2002 machine (one disk spindle and one worker core per
partition plus the coordinator; DESIGN.md §12).  Both sides of the
ratio use the same accounting discipline:

* serial baseline: counted work + modeled disk of the full sequential
  scan;
* partitioned: counted work of the busiest lane and the coordinator
  (every other lane overlaps it) + modeled disk of the *widest*
  partition plus one parallel dispatch seek.

The model is a function of (data, plan), so the gate is one pass.
Every parallel run must return byte-identical rows to the serial
baseline (``run_partitioned_sweep`` raises otherwise), and the default
configuration (``parallel_workers = 0``) must keep planning exactly as
before — no Exchange in any plan.
"""

from __future__ import annotations

import statistics

from conftest import print_report

from repro.bench.experiments import (
    PARTITIONED_PARTITIONS as PARTITIONS,
    PARTITIONED_SCALE as SCALE,
    partitioned_speedups,
    run_partitioned_sweep,
)
from repro.bench.harness import build_pair
from repro.workloads import SHAKESPEARE_QUERIES

WORKERS = 4
TARGET_SPEEDUP = 2.5


def test_partitioned_sweep_speedup(benchmark):
    """The acceptance gate: median Fig11 speedup >= the target."""
    runs = run_partitioned_sweep((WORKERS,))
    speedups = partitioned_speedups(runs, WORKERS)
    median_speedup = statistics.median(speedups.values())
    lines = [
        f"{key}: serial {runs[0][key].modeled_seconds * 1000:7.1f} ms   "
        f"parallel {runs[WORKERS][key].modeled_seconds * 1000:7.1f} ms   "
        f"speedup {speedup:.2f}x"
        for key, speedup in speedups.items()
    ]
    lines.append(
        f"median speedup: {median_speedup:.2f}x "
        f"(target >= {TARGET_SPEEDUP:.1f}x)"
    )
    print_report(
        f"Partitioned Fig11 sweep, XORator DSx{SCALE}, "
        f"{PARTITIONS} hash partitions, {WORKERS} workers",
        "\n".join(lines),
    )
    assert median_speedup >= TARGET_SPEEDUP, (
        f"expected >= {TARGET_SPEEDUP}x median, modeled {median_speedup:.2f}x"
    )
    benchmark(lambda: None)


def test_default_mode_is_unchanged(benchmark):
    """``parallel_workers = 0`` (the default) never plans an Exchange,
    even over a partitioned table."""
    pair = build_pair("shakespeare", 1)
    db = pair.xorator.db
    expected = [
        db.execute(query.xorator_sql).rows for query in SHAKESPEARE_QUERIES
    ]
    db.partition_table("speech", "speechID", PARTITIONS)
    assert db.exec_config.parallel_workers == 0
    for query, rows in zip(SHAKESPEARE_QUERIES, expected):
        assert "Exchange" not in db.explain(query.xorator_sql)
        assert db.execute(query.xorator_sql).rows == rows, query.key
    db.close()
    pair.hybrid.db.close()
    benchmark(lambda: None)
