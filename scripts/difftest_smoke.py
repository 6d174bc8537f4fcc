"""CI gate: differential native-vs-sqlite execution with zero tolerance.

Builds both schemas of the dataset at scale 1, generates seeded random
queries (selects, joins, aggregates, XADT method predicates, bound
parameters — see ``repro.difftest.generator``), executes every query on
the native engine and on the sqlite backend, and exits nonzero on any
divergence.  After that sweep it loads the same corpus into XORator with
every XADT column ``indexed`` and reruns the same seeds, so the native
side's XADT methods answer from each value's directory.  Defaults run
540 queries per dataset.

Usage::

    PYTHONPATH=src python scripts/difftest_smoke.py
        [--count 60] [--seeds 0,1,2] [--dataset shakespeare]
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import (
    BASE_PLAYS,
    BASE_SHAKESPEARE,
    BASE_SIGMOD,
    build_pair,
)
from repro.datagen.plays import generate_corpus as generate_plays
from repro.datagen.shakespeare import generate_corpus as generate_shakespeare
from repro.datagen.sigmod import generate_corpus as generate_sigmod
from repro.difftest import run_difftest
from repro.engine.database import Database
from repro.mapping.base import MappedSchema
from repro.shred import load_documents
from repro.xadt import register_xadt_functions

#: the scale-1 corpus ``build_pair`` loads, per dataset
CORPORA = {
    "shakespeare": lambda: generate_shakespeare(BASE_SHAKESPEARE.scaled(1)),
    "sigmod": lambda: generate_sigmod(BASE_SIGMOD.scaled(1)),
    "plays": lambda: generate_plays(BASE_PLAYS),
}


def load_indexed(dataset: str, schema: MappedSchema) -> Database:
    """The XORator database again, with every XADT column ``indexed``."""
    codecs = {
        f"{table.name}.{column.name}": "indexed"
        for table in schema.tables
        for column in table.xadt_columns()
    }
    db = Database("xorator-indexed")
    register_xadt_functions(db)
    load_documents(db, schema, CORPORA[dataset](), codecs)
    db.runstats()
    return db


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
    hybrid, xorator = pair.hybrid, pair.xorator
    for algorithm, db, schema, route in (
        ("hybrid", hybrid.db, hybrid.schema, "scan"),
        ("xorator", xorator.db, xorator.schema, "scan"),
        ("xorator", load_indexed(args.dataset, xorator.schema), xorator.schema,
         "indexed"),
    ):
        for seed in seeds:
            report = run_difftest(db, schema, count=args.count, seed=seed)
            total += report.executed
            print(f"{algorithm} [{route}]: {report.summary()}")
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
