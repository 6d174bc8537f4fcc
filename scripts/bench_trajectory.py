"""Regenerate the committed benchmark trajectory artifacts.

``BENCH_fig11.json`` (Shakespeare) and ``BENCH_fig13.json`` (SIGMOD)
are ``repro.bench.report.sweep_to_json`` of
``repro.bench.experiments.run_fig11`` / ``run_fig13`` — the same sweep
and the same serializer ``benchmarks/bench_fig1*.py`` assert on.  Per
query and scale: the *modeled cold* seconds of both schemas (counted
work and pages x the constants of ``repro.engine.io``, the paper's
reported metric) with their counters, the Hybrid / XORator ratio (> 1
means XORator wins), and beside them the host's wall seconds.  One
execution per cell: the model is a function of (data, plan).

``BENCH_partitioned.json`` is ``partitioned_to_json`` of
``run_partitioned_sweep``: the Fig11 XORator queries over the ``speech``
table hash-partitioned 4 ways, executed serially and through the
multiprocessing Exchange at 1/2/4 workers, with modeled cold seconds and
the speedup per worker count (``benchmarks/bench_partitioned_speedup.py``
gates the same sweep; DESIGN.md §12 has the scaled-out machine model).

Usage::

    PYTHONPATH=src python scripts/bench_trajectory.py [--out-dir .]
        [--only fig11,fig13,partitioned]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.bench.experiments import (
    run_fig11,
    run_fig13,
    run_partitioned_sweep,
)
from repro.bench.report import partitioned_to_json, sweep_to_json

ARTIFACTS = {
    "fig11": lambda: sweep_to_json(run_fig11()),
    "fig13": lambda: sweep_to_json(run_fig13()),
    "partitioned": lambda: partitioned_to_json(run_partitioned_sweep()),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir", type=Path, default=Path(__file__).resolve().parent.parent,
        help="directory for the BENCH_*.json artifacts (default: repo root)",
    )
    parser.add_argument(
        "--only", default=",".join(ARTIFACTS),
        help="comma-separated subset of artifacts to regenerate (default all)",
    )
    args = parser.parse_args()
    for name in filter(None, map(str.strip, args.only.split(","))):
        path = args.out_dir / f"BENCH_{name}.json"
        path.write_text(ARTIFACTS[name]() + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
