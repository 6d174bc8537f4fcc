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
over one value.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.xadt import fastscan
from repro.xadt.fragment import XadtValue, coerce_fragment
from repro.xadt.methods import _PROBE_BYTES, _access_path, _charge, _tag_arg
from repro.xadt.storage import DICT, PLAIN


def unnest_column(
    results: list, column: Sequence[object], tag: str = ""
) -> None:
    """Append, per value, its rows: one single-column row per matching
    element."""
    tag = _tag_arg("unnest", "tag", tag)
    new = XadtValue._trusted
    append = results.append
    scanned = decoded = 0
    try:
        for value in column:
            if type(value) is not XadtValue:
                value = coerce_fragment(value)
            directory = _access_path(value)
            if directory is not None:
                pieces = directory.unnest(tag)
                scanned += _PROBE_BYTES + sum(map(len, pieces))
            else:
                text = value.scan_text()
                scanned += len(text)
                pieces = fastscan.unnest_plain(text, tag)
            if value.codec == DICT:
                decoded += len(value.payload)
            append([(new(piece, PLAIN),) for piece in pieces])
    finally:
        _charge(scanned, decoded)


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
