"""The XADT methods (paper §3.4.2): getElm, findKeyInElm, getElmIndex.

Each method has two implementations and answers with slices of the
fragment's tagged text either way — it never builds a DOM or
re-serializes:

* the **tag scan** (``fastscan.*_plain``): ``str.find`` over the text,
  mirroring the paper's C-string implementation whose cost is
  proportional to the amount of fragment data scanned (that scan cost is
  what makes QS6 slower under XORator, §4.3).  One kernel serves the
  scan codecs: a plain payload is the text, a dict payload's text comes
  from the decode cache (``XadtValue.scan_text``);
* the **directory** (``SpanDirectory.*`` in :mod:`repro.xadt.metadata`):
  jumps through recorded element spans into the same text.

:func:`_directory` decides which, in one place: the published
structural index when the statement routes through the store, else the
directory an ``indexed`` value stores, else the scan.  ``getElm`` with an
explicit ``level >= 0`` always asks a directory (built for the call from
a scan-codec value), because depth is not visible to a tag scan.

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

The *modeled* cost is not amortized at all: every call charges the
running statement for what its access path reads on a cold machine,
whatever a memo or cache held (:func:`_charge`).
"""

from __future__ import annotations

from repro.engine.io import work_counters
from repro.errors import XadtMethodError
from repro.xadt import fastscan
from repro.xadt.decode_cache import memoize_predicate
from repro.xadt.fragment import XadtValue, coerce_fragment
from repro.xadt.metadata import ENTRY_BYTES, HEADER_BYTES, SpanDirectory
from repro.xadt.storage import DICT, INDEXED
from repro.xadt.structural_index import (
    XINDEX,
    StructuralIndex,
    record_hit,
    record_miss,
    routing_enabled,
)


def _directory(value: XadtValue, method: str = "") -> SpanDirectory | None:
    """The access-path decision, made here and nowhere else.

    The published structural index when the statement routes through the
    store (``method`` names the hit / miss counter; callers that never
    consult the store pass none), else the directory an ``indexed``
    value stores, else None: scan the text.
    """
    if method and routing_enabled():
        index = XINDEX.lookup(value)
        if index is not None:
            record_hit(method)
            return index
        record_miss(method)
    if value.codec == INDEXED:
        return value.directory()
    return None


#: what one directory probe reads of the stored metadata
_PROBE_BYTES = HEADER_BYTES + ENTRY_BYTES


def _charge(value: XadtValue, scanned: int) -> None:
    """Charge one call's reads to the running statement: ``scanned``
    bytes of tagged text (all of it on the scan route, a probe plus the
    spans touched on a directory route) and a dict payload's decoding."""
    work = work_counters().work
    work["xadt_bytes_scanned"] += scanned
    if value.codec == DICT:
        work["xadt_bytes_decoded"] += len(value.payload)


def _probed(spans) -> int:
    """Bytes a directory route reads: one probe plus these spans."""
    return _PROBE_BYTES + sum(span.end - span.start for span in spans)


def get_elm(
    fragment: object,
    root_elm: str,
    search_elm: str = "",
    search_key: str = "",
    level: int = -1,
) -> XadtValue:
    """Return all matching ``root_elm`` elements as a new fragment."""
    value = coerce_fragment(fragment)
    directory = _directory(value, "get_elm" if level < 0 else "")
    if directory is not None:
        matched = directory.get_elm(root_elm, search_elm, search_key, level)
        _charge(value, _PROBE_BYTES + len(matched))
        return XadtValue.wrap_plain(matched)
    text = value.scan_text()
    _charge(value, len(text))
    if level >= 0:
        # depth is not visible to a tag scan: a directory for the call
        # (building it reads the whole text, as charged)
        matched = SpanDirectory.build(text).get_elm(
            root_elm, search_elm, search_key, level
        )
    else:
        matched = fastscan.get_elm_plain(text, root_elm, search_elm, search_key)
    return XadtValue.wrap_plain(matched)


def find_key_in_elm(fragment: object, search_elm: str, search_key: str) -> int:
    """1 if any ``search_elm`` element's content contains ``search_key``.

    Scan and stored-directory verdicts are memoized in the process-wide
    decode cache (keyed on payload identity + search terms + store
    epoch), and a directory's tag index is consulted first: a document
    that never contains ``search_elm`` is rejected in O(1) without
    decoding any payload text — the predicate-pushdown half of the
    vectorized scan path.  A structural-index probe costs no more than
    the memo lookup would, so its verdicts are returned as they come.
    """
    if not search_elm and not search_key:
        raise XadtMethodError(
            "findKeyInElm: searchElm and searchKey cannot both be empty"
        )
    value = coerce_fragment(fragment)
    directory = _directory(value, "find_key_in_elm")
    if isinstance(directory, StructuralIndex):
        _charge(value, _PROBE_BYTES)
        return directory.find_key(search_elm, search_key)
    if directory is not None and search_elm and not directory.has_tag(search_elm):
        _charge(value, _PROBE_BYTES)
        return 0  # tag index proves absence; skip the payload entirely

    def verdict() -> tuple[int, int]:
        """(bytes read, answer): the charge rides in the memo entry, so
        a hit charges exactly what the miss that made it did."""
        if directory is not None:  # reads the candidate elements for the key
            return (
                _probed(directory.outermost_of(search_elm)),
                directory.find_key(search_elm, search_key),
            )
        text = value.scan_text()
        return len(text), fastscan.find_key_in_elm_plain(text, search_elm, search_key)

    scanned, found = memoize_predicate(
        "findkey-" + value.codec,
        value.payload,
        (search_elm, search_key),
        verdict,
        version=XINDEX.epoch,
    )
    _charge(value, scanned)
    return found


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
    directory = _directory(value, "get_elm_index")
    if directory is not None:
        matched = directory.get_elm_index(
            parent_elm, child_elm, int(start_pos), int(end_pos)
        )
        _charge(value, _PROBE_BYTES + len(matched))
    else:
        text = value.scan_text()
        _charge(value, len(text))
        matched = fastscan.get_elm_index_plain(
            text, parent_elm, child_elm, int(start_pos), int(end_pos)
        )
    return XadtValue.wrap_plain(matched)


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
    directory = _directory(fragment_value)
    if directory is not None:
        spans = directory.outermost_of(search_elm)
        _charge(fragment_value, _probed(spans))
    else:
        _charge(fragment_value, len(text))
        spans = fastscan.find_spans(text, search_elm)
    for span in spans:
        if fastscan.text_of(span.content(text)) == value:
            return 1
    return 0


def elm_text(fragment: object) -> str:
    """Concatenated character content of the fragment."""
    value = coerce_fragment(fragment)
    text = value.scan_text()
    _charge(value, len(text))
    return fastscan.text_of(text)
