"""Record the Fig. 14 call-count gate: who called which function how often.

Builds the same loaded database pairs the golden-EXPLAIN recorder uses
and writes, per statement of ``tests/engine/test_udf.py::udf_call_cases``
(the Fig. 11/13 workloads on both mappings, six ``xquery``-compiled
paths and four statements with conditional or unusually hosted call
sites), what ``capture_udf_calls`` observes: result rows, per-function
``scalar_calls`` / ``table_calls`` and the ``udf.calls.*`` deltas.  The
test asserts the live engine reproduces the file exactly, so re-record
only when a change to *which calls are made* is intended.

Run from the repo root:

    PYTHONPATH=src python scripts/record_golden_udf_calls.py
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "scripts"))

from record_golden_explains import build_pairs  # noqa: E402
from tests.engine.test_udf import (  # noqa: E402
    GOLDEN_UDF_CALLS,
    capture_udf_calls,
    udf_call_cases,
)


def main() -> None:
    pairs = build_pairs()
    golden = {
        key: capture_udf_calls(db, sql)
        for key, db, sql in udf_call_cases(
            pairs["shakespeare"][:2], pairs["sigmod"][:2]
        )
    }
    GOLDEN_UDF_CALLS.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(golden)} entries to {GOLDEN_UDF_CALLS}")


if __name__ == "__main__":
    main()
