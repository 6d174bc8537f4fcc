"""Record (or ``--check``) the model gates for the Fig11/Fig13 workloads.

Builds the same loaded database pairs the golden-EXPLAIN recorder uses
and writes two files the test suite holds the live engine to, exactly:

* ``tests/golden/io_counters.json`` — per (dataset, algorithm, query),
  what ``tests/engine/test_io_model.py::capture_io_model`` observes:
  result row count, ``IoCounters.snapshot()``, ``io.notes`` and the
  governor's verdict under a fixed working-memory budget;
* ``tests/golden/work_counters.json`` — per statement, what
  ``tests/engine/test_work_model.py::capture_work_model`` observes (the
  work counters and the modeled cpu / disk / total seconds they price
  to), plus the four loads' counted work and modeled seconds.

Re-record only when a change to the model is intended.  ``--check``
writes nothing and exits 1 unless both files are reproduced exactly —
the modeled time is a function of (data, plan), so CI runs the check
under two Python versions and two hash seeds: the gate that keeps a
clock, a hash order or a float summation order from creeping in.

Run from the repo root:

    PYTHONPATH=src python scripts/record_golden_io_counters.py [--check]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "scripts"))

from record_golden_explains import build_pairs  # noqa: E402
from tests.engine.test_io_model import GOLDEN_IO, capture_io_model  # noqa: E402
from tests.engine.test_work_model import (  # noqa: E402
    GOLDEN_WORK,
    capture_load_model,
    capture_work_model,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare with the committed files, write nothing",
    )
    check = parser.parse_args().check
    io_model, work_model = {}, {}
    for dataset, (hybrid, xorator, queries) in build_pairs().items():
        for algorithm, loaded in (("hybrid", hybrid), ("xorator", xorator)):
            work_model[f"{dataset}_{algorithm}_LOAD"] = capture_load_model(loaded)
            for query in queries:
                key = f"{dataset}_{algorithm}_{query.key}"
                sql = query.sql_for(algorithm)
                io_model[key] = capture_io_model(loaded.db, sql)
                work_model[key] = capture_work_model(loaded.db, sql)
    stale = []
    for path, golden in ((GOLDEN_IO, io_model), (GOLDEN_WORK, work_model)):
        text = json.dumps(golden, indent=1, sort_keys=True) + "\n"
        if not check:
            path.write_text(text, encoding="utf-8")
            print(f"wrote {len(golden)} entries to {path}")
        elif not path.exists() or path.read_text(encoding="utf-8") != text:
            stale.append(path.name)
    if stale:
        sys.exit(f"not reproduced exactly: {', '.join(stale)}")


if __name__ == "__main__":
    main()
