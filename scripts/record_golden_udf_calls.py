"""Record the Fig. 14 call-count gate: who called which function how often.

Builds the same loaded database pairs the golden-EXPLAIN recorder uses
and writes, per statement of ``tests/engine/test_udf.py::udf_call_cases``
(the Fig. 11/13 workloads on both mappings, six ``xquery``-compiled
paths and four statements with conditional or unusually hosted call
sites), what ``capture_udf_calls`` observes: result rows, per-function
``scalar_calls`` / ``table_calls`` and the ``udf.calls.*`` deltas.  The
test asserts the live engine reproduces the file exactly, so re-record
only when a change to *which calls are made* is intended.  ``--check``
writes nothing, lists the statements whose entries differ and exits 1
unless the file is reproduced exactly.

Run from the repo root:

    PYTHONPATH=src python scripts/record_golden_udf_calls.py [--check]
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
from tests.engine.test_udf import (  # noqa: E402
    GOLDEN_UDF_CALLS,
    capture_udf_calls,
    udf_call_cases,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare with the committed file, write nothing",
    )
    check = parser.parse_args().check
    pairs = build_pairs()
    golden = {
        key: capture_udf_calls(db, sql)
        for key, db, sql in udf_call_cases(
            pairs["shakespeare"][:2], pairs["sigmod"][:2]
        )
    }
    text = json.dumps(golden, indent=1, sort_keys=True) + "\n"
    if not check:
        GOLDEN_UDF_CALLS.write_text(text, encoding="utf-8")
        print(f"wrote {len(golden)} entries to {GOLDEN_UDF_CALLS}")
        return
    committed = {}
    if GOLDEN_UDF_CALLS.exists():
        old_text = GOLDEN_UDF_CALLS.read_text(encoding="utf-8")
        if old_text == text:
            print(f"{len(golden)} entries of {GOLDEN_UDF_CALLS.name} reproduced")
            return
        committed = json.loads(old_text)
    golden = json.loads(text)  # tuples as JSON lists, like the file's
    differing = sorted(
        key
        for key in committed.keys() | golden.keys()
        if committed.get(key) != golden.get(key)
    )
    sys.exit(
        f"{GOLDEN_UDF_CALLS.name} not reproduced exactly: "
        f"{', '.join(differing) or 'formatting'}"
    )


if __name__ == "__main__":
    main()
