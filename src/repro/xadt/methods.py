"""The XADT methods (paper §3.4.2): getElm, findKeyInElm, getElmIndex.

All three scan the fragment's tagged text with ``str.find``
(:mod:`repro.xadt.fastscan`) and answer with slices of it — they never
build a DOM or re-serialize — mirroring the paper's C-string
implementation whose cost is proportional to the amount of fragment data
scanned (that scan cost is what makes QS6 slower under XORator, §4.3).
One kernel serves every codec: a plain payload is the text, a dict
payload's text comes from the decode cache
(``XadtValue.scan_text``), and the indexed codec jumps through its span
directory into the same text.  Only ``getElm`` with an explicit
``level >= 0`` walks the event stream, because depth is not visible to
a tag scan.

Semantics follow the paper's definitions:

* ``get_elm(x, rootElm, searchElm, searchKey, level)`` returns every
  (non-nested) ``rootElm`` element that has a ``searchElm`` element
  within ``level`` levels (``level < 0`` means unlimited; the root
  itself is level 0, so ``rootElm == searchElm`` matches the root, which
  query QE1 relies on) whose text content contains ``searchKey``.
  Empty-string arguments relax the respective constraint exactly as the
  paper specifies.
* ``find_key_in_elm(x, searchElm, searchKey)`` returns 1 as soon as a
  match is found, else 0; both arguments empty is an error.
* ``get_elm_index(x, parentElm, childElm, startPos, endPos)`` returns the
  ``childElm`` children of each ``parentElm`` element whose sibling
  position *among same-tag siblings* lies in [startPos, endPos]
  (1-based).  An empty ``parentElm`` treats the fragment's top-level
  elements as the sibling list.  Sibling order is counted per tag so the
  semantics agree with the Hybrid schema's ``childOrder`` field (see
  ``repro.shred.loader``).

``elm_text`` is a convenience addition ("more specialized methods can be
implemented", §3.4.2) returning the concatenated character content; the
SIGMOD workload uses it to group unnested fragments by their text.

Decoding cost is amortized underneath these methods, not inside them:
``XadtValue.scan_text()`` reuses the memoized text of dict payloads and
``XadtValue.directory()`` reuses memoized span directories (see
:mod:`repro.xadt.decode_cache`), so repeated method calls over the same
hot fragments skip the decompressor / directory rebuild — but never the
scan itself.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import XadtMethodError
from repro.xadt import fastscan
from repro.xadt.decode_cache import memoize_predicate
from repro.xadt.fragment import XadtValue, coerce_fragment
from repro.xadt.storage import INDEXED, Event, events_to_text
from repro.xadt.structural_index import (
    XINDEX,
    record_hit,
    record_miss,
    routing_enabled,
)


def get_elm(
    fragment: object,
    root_elm: str,
    search_elm: str = "",
    search_key: str = "",
    level: int = -1,
) -> XadtValue:
    """Return all matching ``root_elm`` elements as a new fragment."""
    value = coerce_fragment(fragment)
    if level < 0:
        if routing_enabled():
            index = XINDEX.lookup(value)
            if index is not None:
                record_hit("get_elm")
                return XadtValue.wrap_plain(
                    index.get_elm(root_elm, search_elm, search_key)
                )
            record_miss("get_elm")
        if value.codec == INDEXED:
            from repro.xadt import metadata

            return XadtValue.wrap_plain(
                metadata.get_elm_indexed(
                    value.payload, value.directory(), root_elm, search_elm, search_key
                )
            )
        return XadtValue.wrap_plain(
            fastscan.get_elm_plain(value.scan_text(), root_elm, search_elm, search_key)
        )
    matched: list[str] = []
    for subtree in _iter_subtrees(value.events(), root_elm):
        if _subtree_matches(subtree, search_elm, search_key, level):
            matched.append(events_to_text(subtree))
    return XadtValue.wrap_plain("".join(matched))


def find_key_in_elm(fragment: object, search_elm: str, search_key: str) -> int:
    """1 if any ``search_elm`` element's content contains ``search_key``.

    The per-codec verdicts are memoized in the process-wide decode cache
    (keyed on payload identity + search terms), and the indexed codec
    consults the span directory's tag index first: a document that never
    contains ``search_elm`` is rejected in O(1) without decoding any
    payload text — the predicate-pushdown half of the vectorized scan
    path.
    """
    if not search_elm and not search_key:
        raise XadtMethodError(
            "findKeyInElm: searchElm and searchKey cannot both be empty"
        )
    value = coerce_fragment(fragment)
    if routing_enabled():
        index = XINDEX.lookup(value)
        if index is not None:
            record_hit("find_key_in_elm")
            return index.find_key(search_elm, search_key)
        record_miss("find_key_in_elm")
    if value.codec == INDEXED:
        from repro.xadt import metadata

        directory = value.directory()
        if search_elm and not directory.has_tag(search_elm):
            return 0  # tag index proves absence; skip the payload entirely
        return memoize_predicate(
            "findkey-indexed",
            value.payload,
            (search_elm, search_key),
            lambda: metadata.find_key_in_elm_indexed(
                value.payload, directory, search_elm, search_key
            ),
            version=XINDEX.epoch,
        )
    return memoize_predicate(
        "findkey-" + value.codec,
        value.payload,
        (search_elm, search_key),
        lambda: fastscan.find_key_in_elm_plain(
            value.scan_text(), search_elm, search_key
        ),
        version=XINDEX.epoch,
    )


def get_elm_index(
    fragment: object,
    parent_elm: str,
    child_elm: str,
    start_pos: int,
    end_pos: int,
) -> XadtValue:
    """Positional child access (paper QE2 / QS6 / QG6)."""
    if not child_elm:
        raise XadtMethodError("getElmIndex: childElm cannot be an empty string")
    value = coerce_fragment(fragment)
    if routing_enabled():
        index = XINDEX.lookup(value)
        if index is not None:
            record_hit("get_elm_index")
            return XadtValue.wrap_plain(
                index.get_elm_index(
                    parent_elm, child_elm, int(start_pos), int(end_pos)
                )
            )
        record_miss("get_elm_index")
    if value.codec == INDEXED:
        from repro.xadt import metadata

        return XadtValue.wrap_plain(
            metadata.get_elm_index_indexed(
                value.payload, value.directory(), parent_elm, child_elm,
                int(start_pos), int(end_pos),
            )
        )
    return XadtValue.wrap_plain(
        fastscan.get_elm_index_plain(
            value.scan_text(), parent_elm, child_elm, int(start_pos), int(end_pos)
        )
    )


def elm_equals(fragment: object, search_elm: str, value: str) -> int:
    """1 if any (non-nested) ``search_elm`` element's text content
    equals ``value``.

    The exact-match companion of :func:`find_key_in_elm` (a "more
    specialized method" in the sense of §3.4.2); the path-query compiler
    uses it for ``=`` predicates so Hybrid and XORator translations agree
    on equality semantics.
    """
    if not search_elm:
        raise XadtMethodError("elmEquals: searchElm cannot be empty")
    fragment_value = coerce_fragment(fragment)
    text = fragment_value.scan_text()
    if fragment_value.codec == INDEXED:
        spans = fragment_value.directory().outermost_of(search_elm)
    else:
        spans = fastscan.find_spans(text, search_elm)
    for span in spans:
        if fastscan.text_of(span.content(text)) == value:
            return 1
    return 0


def elm_text(fragment: object) -> str:
    """Concatenated character content of the fragment."""
    return coerce_fragment(fragment).text()


# ---------------------------------------------------------------------------
# stream helpers
# ---------------------------------------------------------------------------


def _iter_subtrees(events: Iterator[Event], tag: str) -> Iterator[list[Event]]:
    """Non-nested subtrees whose root tag is ``tag`` ('' = top level).

    A matched subtree's inner occurrences of the same tag are not yielded
    separately (they are part of the outer match).
    """
    capture: list[Event] | None = None
    depth = 0  # open elements inside the capture
    for event in events:
        kind = event[0]
        if capture is not None:
            capture.append(event)
            if kind == "open":
                depth += 1
            elif kind == "close":
                depth -= 1
                if depth == 0:
                    yield capture
                    capture = None
        elif kind == "open" and (event[1] == tag or not tag):
            capture = [event]
            depth = 1


def _subtree_matches(
    subtree: list[Event], search_elm: str, search_key: str, level: int
) -> bool:
    """Does the captured subtree satisfy getElm's condition within
    ``level`` (>= 0) levels of its root?"""
    if not search_elm and not search_key:
        return True
    if not search_elm:
        text = "".join(event[1] for event in subtree if event[0] == "text")
        return search_key in text
    # find search_elm occurrences (root itself is level 0)
    collectors: list[list[str]] = []
    collector_depths: list[int] = []
    satisfied = False
    depth = -1  # the root's open event brings us to level 0
    for event in subtree:
        kind = event[0]
        if kind == "open":
            depth += 1
            if event[1] == search_elm and depth <= level:
                if not search_key:
                    return True
                collectors.append([])
                collector_depths.append(depth)
        elif kind == "close":
            if collector_depths and collector_depths[-1] == depth:
                text = "".join(collectors.pop())
                collector_depths.pop()
                if search_key in text:
                    satisfied = True
            depth -= 1
        else:
            if collectors:
                for collector in collectors:
                    collector.append(event[1])
        if satisfied:
            return True
    return satisfied
