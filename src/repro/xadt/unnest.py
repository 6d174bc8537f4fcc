"""The unnest table UDF (paper §3.5, Figure 9).

``TABLE(unnest(attr, 'tag')) alias`` turns an XADT attribute into a
table with a single ``out`` column: one row per (non-nested) element in
the fragment whose tag is ``tag``.  With an empty tag, the fragment's
top-level elements are produced.

The matching is descendant-aware: ``unnest(pp_slist, 'sListTuple')``
finds the ``sListTuple`` elements *inside* the stored ``sList`` element,
which is how the paper's SIGMOD queries iterate the single-table
XORator database.
"""

from __future__ import annotations

from typing import Iterator

from repro.xadt import fastscan
from repro.xadt.fragment import XadtValue, coerce_fragment
from repro.xadt.methods import _PROBE_BYTES, _charge, _directory


def unnest(fragment: object, tag: str = "") -> Iterator[tuple[XadtValue]]:
    """Yield one single-column row per matching element."""
    value = coerce_fragment(fragment)
    directory = _directory(value)
    if directory is not None:
        pieces = directory.unnest(tag)
        _charge(value, _PROBE_BYTES + sum(map(len, pieces)))
    else:
        text = value.scan_text()
        _charge(value, len(text))
        pieces = fastscan.unnest_plain(text, tag)
    wrap = XadtValue.wrap_plain
    for piece in pieces:
        yield (wrap(piece),)


def unnest_values(fragment: object, tag: str = "") -> list[XadtValue]:
    """Convenience list form of :func:`unnest` (tests and examples)."""
    return [row[0] for row in unnest(fragment, tag)]
