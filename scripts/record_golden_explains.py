"""Record golden EXPLAIN snapshots for the Fig11/Fig13 workloads.

Builds the same loaded database pairs the test suite's session fixtures
use (tests/conftest.py) and writes one plan file per (dataset,
algorithm, query) under tests/golden/explain/.  The snapshot test
(tests/workloads/test_golden_explain.py) asserts the live planner
reproduces these byte-for-byte — the plan-neutrality proof for the
logical-IR refactor.  ``--check`` writes nothing, lists the files that
differ (or are missing, or no longer produced) and exits 1 unless every
plan is reproduced exactly.

Run from the repo root:

    PYTHONPATH=src python scripts/record_golden_explains.py [--check]
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, "src")

from repro.bench.harness import build_database
from repro.datagen.shakespeare import (
    ShakespeareConfig,
    generate_corpus as generate_shakespeare,
)
from repro.datagen.sigmod import SigmodConfig, generate_corpus as generate_sigmod
from repro.dtd import samples
from repro.mapping import map_hybrid, map_xorator
from repro.workloads import SHAKESPEARE_QUERIES, SIGMOD_QUERIES
from repro.workloads.shakespeare_queries import workload_sql as qs_workload_sql
from repro.workloads.sigmod_queries import workload_sql as qg_workload_sql

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / (
    "tests/golden/explain"
)


def build_pairs():
    shakespeare_docs = generate_shakespeare(ShakespeareConfig(plays=3))
    shakespeare_dtd = samples.shakespeare_simplified()
    sigmod_docs = generate_sigmod(SigmodConfig(documents=8))
    sigmod_dtd = samples.sigmod_simplified()
    return {
        "shakespeare": (
            build_database(
                "hybrid", map_hybrid(shakespeare_dtd), shakespeare_docs,
                qs_workload_sql("hybrid"),
            ),
            build_database(
                "xorator", map_xorator(shakespeare_dtd), shakespeare_docs,
                qs_workload_sql("xorator"), sample_for_codecs=2,
            ),
            SHAKESPEARE_QUERIES,
        ),
        "sigmod": (
            build_database(
                "hybrid", map_hybrid(sigmod_dtd), sigmod_docs,
                qg_workload_sql("hybrid"),
            ),
            build_database(
                "xorator", map_xorator(sigmod_dtd), sigmod_docs,
                qg_workload_sql("xorator"), sample_for_codecs=2,
            ),
            SIGMOD_QUERIES,
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare with the committed plans, write nothing",
    )
    check = parser.parse_args().check
    plans = {}
    for dataset, (hybrid, xorator, queries) in build_pairs().items():
        for query in queries:
            for algorithm, loaded in (("hybrid", hybrid), ("xorator", xorator)):
                plan = loaded.db.explain(query.sql_for(algorithm))
                plans[f"{dataset}_{algorithm}_{query.key}.txt"] = plan + "\n"
    if not check:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        for name, text in plans.items():
            (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
        print(f"wrote {len(plans)} golden plans to {GOLDEN_DIR}")
        return
    committed = {path.name for path in GOLDEN_DIR.glob("*.txt")}
    differing = sorted(
        name
        for name in committed | plans.keys()
        if name not in plans
        or name not in committed
        or (GOLDEN_DIR / name).read_text(encoding="utf-8") != plans[name]
    )
    if differing:
        sys.exit(f"golden plans not reproduced exactly: {', '.join(differing)}")
    print(f"{len(plans)} golden plans reproduced")


if __name__ == "__main__":
    main()
