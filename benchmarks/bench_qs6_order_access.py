"""QS6 order access: the ``indexed`` directory vs tag scan on the XADT column.

Figure 11's one inversion is QS6 — ``getElmIndex`` over XORator's
``speech_line`` fragments loses to Hybrid because every call re-scans
the fragment text for the Nth ``<LINE>`` sibling.  The directory an
``indexed`` value stores (:mod:`repro.xadt.metadata`) holds per-tag
ordinal arrays and a keyword map of NUL-joined token blobs per fragment,
so ordinal and keyword access stop paying the O(fragment-bytes) walk.

This is the acceptance gate for that directory: the **median
per-access-kind ratio of counted bytes** — ``xadt_bytes_scanned`` of the
paper-faithful tag scan over each fragment, over that of the same
fragment recoded to ``indexed``, one pass per codec under counters of
its own — must be **>= 10x** at the largest Figure 11 scale
(DSx8).  Counted bytes are the model's XADT cost (``repro.engine.io``):
identical run to run and independent of the decode cache, unlike a wall
ratio on a shared host.  Wall time per call is printed beside them,
ungated.  The gated access kinds are the two QS6-style method shapes:

* *ordinal* — ``getElmIndex(speech_line, '', 'LINE', 2, 2)`` (QS6's
  projection, verbatim);
* *keyword* — ``findKeyInElm(speech_line, 'LINE', 'love')`` (the §3.4.2
  keyword probe over the same fragments).

``getElm`` with a keyword is reported but not gated: its cost is the
matched-subtree slice assembly, which the index prunes but cannot skip.

The corpus is the DSx8 Shakespeare corpus with ``lines_per_speech=14``:
the stock generator miniaturizes speeches to 4 lines to keep the tier-1
suite fast, while the play prologues the paper's corpus stores are
14-line sonnets.  The override restores paper-realistic fragment sizes
(~800 bytes); the access-path comparison below is otherwise the stock
harness.

Also asserted here, per the issue:

* **parity** — indexed and scan paths return byte-identical results for
  every fragment and access kind;
* **default mode preserves the paper shape** — with the chooser's codecs
  (it never picks ``indexed``), QS6 stays XORator's weakest structural
  win, so Figure 11's published shape is untouched unless a column is
  stored ``indexed``;
* **engine parity** — the corpus loaded with every XADT column
  ``indexed`` answers the QS6 SQL like the scan-codec load, and both
  plans label the method call ``xadt[scan]``: the stored value, not the
  plan, picks the path.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

from conftest import print_report

from repro.bench.harness import BASE_SHAKESPEARE, build_database, cold_query
from repro.datagen.shakespeare import generate_corpus
from repro.dtd import samples
from repro.engine.database import Database
from repro.engine.io import IoCounters
from repro.engine.snapshot import activate, deactivate
from repro.mapping import map_xorator
from repro.shred import load_documents
from repro.workloads import SHAKESPEARE_QUERIES, shakespeare_queries
from repro.xadt import methods, register_xadt_functions

import pytest

#: required median ratio of counted bytes over the gated access kinds
RATIO_GATE = 10.0

#: the largest Figure 11 scale (DSx8)
SCALE = 8

QS6 = next(q for q in SHAKESPEARE_QUERIES if q.key == "QS6")

#: (name, gated, callable) — the measured access kinds
ACCESS_KINDS = (
    ("ordinal", True, lambda f: methods.get_elm_index(f, "", "LINE", 2, 2)),
    ("keyword", True, lambda f: methods.find_key_in_elm(f, "LINE", "love")),
    ("getelm", False, lambda f: methods.get_elm(f, "", "LINE", "love")),
)


@pytest.fixture(scope="module")
def qs6_db():
    """A DSx8 XORator database with paper-sized prologue fragments.

    Yields ``(db, docs, fragments)``: the database loaded with the
    chooser's codecs, its documents, and the stored prologue fragments
    the access kinds are measured over.
    """
    config = replace(BASE_SHAKESPEARE.scaled(SCALE), lines_per_speech=14)
    docs = generate_corpus(config)
    loaded = build_database(
        "xorator",
        map_xorator(samples.shakespeare_simplified()),
        docs,
        shakespeare_queries.workload_sql("xorator"),
        sample_for_codecs=4,
    )
    db = loaded.db
    rows = db.execute(
        "SELECT speech_line FROM speech "
        "WHERE speech_parentCODE = 'PROLOGUE'"
    ).rows
    fragments = [row[0] for row in rows]
    assert fragments, "corpus produced no prologue speeches"
    yield db, docs, fragments
    db.close()


def _counted_pass(fn, fragments) -> tuple[int, float]:
    """One pass under counters of its own: (bytes the access path
    scanned, wall seconds per call)."""
    counters = IoCounters()
    token = activate(None, counters)
    try:
        started = time.perf_counter()
        for fragment in fragments:
            fn(fragment)
        wall = time.perf_counter() - started
    finally:
        deactivate(token)
    return counters.work["xadt_bytes_scanned"], wall / len(fragments)


def test_qs6_order_access_gate(qs6_db, benchmark):
    _, _, fragments = qs6_db
    indexed = [fragment.recode("indexed") for fragment in fragments]

    # parity first: both paths agree on every fragment and access kind
    for name, _, fn in ACCESS_KINDS:
        for fragment, recoded in zip(fragments, indexed):
            assert fn(recoded) == fn(fragment), name

    lines = [
        f"{'access':10}{'scan B':>10}{'index B':>10}{'ratio':>8}"
        f"{'scan/call':>12}{'index/call':>13}{'gated':>7}"
    ]
    gated_ratios = []
    for name, gated, fn in ACCESS_KINDS:
        scan_bytes, scan_s = _counted_pass(fn, fragments)
        index_bytes, index_s = _counted_pass(fn, indexed)
        ratio = scan_bytes / index_bytes if index_bytes else float("inf")
        if gated:
            gated_ratios.append(ratio)
        lines.append(
            f"{name:10}{scan_bytes:>10}{index_bytes:>10}{ratio:>7.2f}x"
            f"{scan_s * 1e6:>10.2f}us{index_s * 1e6:>11.2f}us"
            f"{'  yes' if gated else '   no':>7}"
        )
    median_ratio = statistics.median(gated_ratios)
    lines.append(
        f"median gated ratio of bytes scanned: {median_ratio:.1f}x (gate: "
        f">= {RATIO_GATE:.0f}x; DSx{SCALE}, {len(fragments)} prologue "
        f"fragments; wall per call is one pass, ungated)"
    )
    print_report(
        "QS6 order access — indexed directory vs tag scan "
        "(XORator speech_line, paper-sized prologues)",
        "\n".join(lines),
    )
    assert median_ratio >= RATIO_GATE, (
        f"median ratio of bytes scanned {median_ratio:.1f}x is below the "
        f"{RATIO_GATE:.0f}x gate"
    )

    # the timed payload: the indexed ordinal pass (QS6's projection)
    ordinal = ACCESS_KINDS[0][2]

    def indexed_pass():
        for fragment in indexed:
            ordinal(fragment)

    benchmark(indexed_pass)


def test_indexed_load_answers_like_the_scan_load(qs6_db):
    """An ``indexed`` load answers the QS6 SQL like the scan-codec one;
    both plans say ``xadt[scan]``."""
    db, docs, _ = qs6_db
    schema = map_xorator(samples.shakespeare_simplified())
    codecs = {
        f"{table.name}.{column.name}": "indexed"
        for table in schema.tables
        for column in table.xadt_columns()
    }
    indexed_db = Database("xorator-indexed")
    register_xadt_functions(indexed_db)
    load_documents(indexed_db, schema, docs, codecs)
    indexed_db.runstats()
    sql = QS6.sql_for("xorator")
    for plan in (db.explain(sql), indexed_db.explain(sql)):
        assert "xadt[scan]" in plan and "xindex" not in plan
    canon = lambda rows: sorted(tuple(str(v) for v in row) for row in rows)
    assert canon(indexed_db.execute(sql).rows) == canon(db.execute(sql).rows)
    indexed_db.close()


def test_default_mode_preserves_fig11_shape(shakespeare_pair_x1):
    """Chooser codecs: QS6 stays XORator's weakest structural-query ratio.

    The paired databases are loaded with the chooser's codecs, which
    never pick ``indexed``.  This repro does not reproduce
    the paper's literal QS6 inversion (a scale artifact — see
    EXPERIMENTS.md); its recorded Figure 11 shape is that QS6 is
    XORator's *weakest* win of the structural queries.  This run shows
    that shape is intact unless a column is stored ``indexed`` — the
    scan path stays the default.
    """
    pair = shakespeare_pair_x1
    ratios = {}
    for query in SHAKESPEARE_QUERIES:
        if query.key == "QS4":  # its own recorded deviation
            continue
        xorator = cold_query(
            pair.side("xorator").db, query.sql_for("xorator")
        ).modeled_seconds
        hybrid = cold_query(
            pair.side("hybrid").db, query.sql_for("hybrid")
        ).modeled_seconds
        ratios[query.key] = hybrid / xorator
    others = {key: r for key, r in ratios.items() if key != "QS6"}
    print_report(
        "QS6 default (chooser codecs) — Figure 11 relative shape intact",
        "hybrid/xorator cold ratios: "
        + "  ".join(f"{k} {r:.2f}" for k, r in ratios.items())
        + f"\nQS6 {ratios['QS6']:.2f} vs min(others) "
        f"{min(others.values()):.2f} (recorded shape: QS6 weakest)",
    )
    assert ratios["QS6"] < min(others.values()), (
        f"QS6 ratio {ratios['QS6']:.2f} is no longer XORator's weakest "
        "structural-query win — the scan-codec default changed the "
        "recorded Figure 11 shape"
    )
