"""Record the disk-model / governor gate for the Fig11/Fig13 workloads.

Builds the same loaded database pairs the golden-EXPLAIN recorder uses
and writes, per (dataset, algorithm, query), what
``tests/engine/test_io_model.py::capture_io_model`` observes: result row
count, ``IoCounters.snapshot()``, ``io.notes`` and the governor's verdict
under a fixed working-memory budget.  The test asserts the live engine
reproduces the file exactly, so re-record only when a change to the
model is intended.

Run from the repo root:

    PYTHONPATH=src python scripts/record_golden_io_counters.py
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "scripts"))

from record_golden_explains import build_pairs  # noqa: E402
from tests.engine.test_io_model import GOLDEN_IO, capture_io_model  # noqa: E402


def main() -> None:
    golden = {}
    for dataset, (hybrid, xorator, queries) in build_pairs().items():
        for query in queries:
            for algorithm, loaded in (("hybrid", hybrid), ("xorator", xorator)):
                golden[f"{dataset}_{algorithm}_{query.key}"] = capture_io_model(
                    loaded.db, query.sql_for(algorithm)
                )
    GOLDEN_IO.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(golden)} entries to {GOLDEN_IO}")


if __name__ == "__main__":
    main()
