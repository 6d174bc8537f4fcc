"""The unnest table UDF (paper §3.5, Figure 9).

``TABLE(unnest(attr, 'tag')) alias`` turns an XADT attribute into a
table with a single ``out`` column: one row per (non-nested) element in
the fragment whose tag is ``tag``.  With an empty tag, the fragment's
top-level elements are produced.

The matching is descendant-aware: ``unnest(pp_slist, 'sListTuple')``
finds the ``sListTuple`` elements *inside* the stored ``sList`` element,
which is how the paper's SIGMOD queries iterate the single-table
XORator database.

Like the methods (:mod:`repro.xadt.methods`), the body is written once,
over a column: :func:`unnest_column` produces the rows of every value of
a lateral's input batch in one call, and :func:`unnest` is that body
over one value.  It runs the methods' loop (``methods._run_column``), so
a run of one object — an outer lateral's value, copied into each row of
its fan-out — is unnested once; coercion, access path, ``scan_text()``,
the deadline tick and the bytes charged stay per value.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.xadt import fastscan
from repro.xadt.fragment import XadtValue
from repro.xadt.metadata import SpanDirectory
from repro.xadt.methods import _PROBE_BYTES, _run_column, _tag_arg
from repro.xadt.storage import PLAIN


def unnest_column(
    results: list, column: Sequence[object], tag: str = ""
) -> None:
    """Append, per value, its rows: one single-column row per matching
    element.  The rows of a run of one value are one list, appended once
    per row of the run (no consumer mutates it)."""
    tag = _tag_arg("unnest", "tag", tag)
    new = XadtValue._trusted
    unnest_plain = fastscan.unnest_plain

    def scan(text: str, _value) -> list[tuple[XadtValue]]:
        return [(new(piece, PLAIN),) for piece in unnest_plain(text, tag)]

    def probe(directory: SpanDirectory, _value) -> tuple[list, int]:
        pieces = directory.unnest(tag)
        rows = [(new(piece, PLAIN),) for piece in pieces]
        return rows, _PROBE_BYTES + sum(map(len, pieces))

    _run_column(results, column, scan, probe)


def unnest(fragment: object, tag: str = "") -> Iterator[tuple[XadtValue]]:
    """Yield one single-column row per matching element.

    A generator, like any table function's body: nothing runs before
    the first row is asked for, so a caller timing the rows (the traced
    benchmark's ``UdfTimer``) times the work.
    """
    results: list = []
    unnest_column(results, (fragment,), tag)
    yield from results[0]


def unnest_values(fragment: object, tag: str = "") -> list[XadtValue]:
    """Convenience list form of :func:`unnest` (tests and examples)."""
    return [row[0] for row in unnest(fragment, tag)]
