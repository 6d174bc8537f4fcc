"""CI gate: differential native-vs-sqlite execution with zero tolerance.

Builds both schemas of the dataset at scale 1, generates seeded random
queries (selects, joins, aggregates, XADT method predicates, bound
parameters — see ``repro.difftest.generator``), executes every query on
the native engine and on the sqlite backend, and exits nonzero on any
divergence.  After that sweep it turns structural indexes on for the
XORator database and reruns the same seeds, so the native side's XADT
methods take the index route.  Defaults run 540 queries per dataset.

Usage::

    PYTHONPATH=src python scripts/difftest_smoke.py
        [--count 60] [--seeds 0,1,2] [--dataset shakespeare]
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import build_pair
from repro.difftest import run_difftest
from repro.xadt.register import enable_structural_indexes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=60,
                        help="queries per (schema, seed) run (default 60)")
    parser.add_argument("--seeds", default="0,1,2",
                        help="comma-separated generator seeds (default 0,1,2)")
    parser.add_argument("--dataset", default="shakespeare",
                        choices=("shakespeare", "sigmod", "plays"))
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

    pair = build_pair(args.dataset, scale=1)
    failed = False
    total = 0
    for loaded, route in (
        (pair.hybrid, "scan"), (pair.xorator, "scan"), (pair.xorator, "xindex"),
    ):
        if route == "xindex":
            enable_structural_indexes(loaded.db)
        for seed in seeds:
            report = run_difftest(
                loaded.db, loaded.schema, count=args.count, seed=seed
            )
            total += report.executed
            print(f"{loaded.algorithm} [{route}]: {report.summary()}")
            for divergence in report.divergences:
                failed = True
                print(f"  DIVERGENCE [{divergence.shape}] {divergence.sql}")
                print(f"    params : {divergence.params}")
                print(f"    native : {divergence.native_count} row(s) "
                      f"e.g. {divergence.native_sample!r}")
                print(f"    sqlite : {divergence.backend_count} row(s) "
                      f"e.g. {divergence.backend_sample!r}")
    print(f"difftest-smoke: {total} queries executed differentially")
    if failed:
        print("difftest-smoke: FAILED (backends diverged)")
        return 1
    print("difftest-smoke: OK (zero divergences)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
