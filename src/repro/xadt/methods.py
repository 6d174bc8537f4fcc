"""The XADT methods (paper §3.4.2): getElm, findKeyInElm, getElmIndex.

Each method is written once, over a column: ``get_elm_column(results,
column, rootElm, ...)`` appends to ``results`` one answer per value of
``column``, in order, and the scalar ``get_elm(fragment, rootElm, ...)``
is that body over a one-element column.  The UDF boundary hands a body a
batch's whole column in one call (``engine/udf.py``), so what does not
depend on the value is done once per column:

* the constant arguments are checked — an empty or mistyped argument
  raises :class:`XadtMethodError` before any value is touched (a NULL
  tag or key relaxes the constraint like ``''``);
* the running statement is charged once, with what all the values read
  (:func:`_charge`), also when a value fails part-way;
* a value that already is an :class:`XadtValue` — every stored column
  value is — skips :func:`coerce_fragment`.

What belongs to a value stays per value: its coercion, its access path
(:func:`_access_path`), ``XadtValue.scan_text()`` (a dict payload passes
the ``xadt.decode`` fault site and the decode cache once per value, in
row order), the directory of an indexed value, the statement's deadline
tick and the bytes it is charged.

What a value's answer is computed from does not always change from row
to row: a lateral copies its outer row into every row it produces, so
``getElm(st.out, …)`` over its fan-out sees one object many times in a
row.  Every body runs one loop (:func:`_run_column`) that computes an
answer once per *run* — a value that ``is`` the previous row's reuses
the previous answer, on the scan and the directory route alike.  A
fragment-valued answer is the same immutable :class:`XadtValue`, so a
nested ``elmText(getElm(…))`` hits its own run too.  Everything listed
above still happens per value, and a hit charges what a miss would have;
the memo dies when the body returns.  The one answer that outlives a
call is ``findKeyInElm``'s scanned verdict, memoized in the decode cache
on the payload and the search terms: a 0/1 costs nothing to keep.

Every answer is a slice of the fragment's tagged text, taken one of two
ways — it never builds a DOM or re-serializes:

* the **tag scan** (``fastscan.*_plain``, all over the one flat
  ``str.find`` span walk ``fastscan.find_spans``), mirroring the paper's
  C-string implementation whose cost is proportional to the amount of
  fragment data scanned (that scan cost is what makes QS6 slower under
  XORator, §4.3).  One kernel serves the scan codecs: a plain payload is
  the text, a dict payload's text comes from the decode cache
  (``XadtValue.scan_text``);
* the **directory** (``SpanDirectory.*`` in :mod:`repro.xadt.metadata`):
  jumps through recorded element spans into the same text, and answers
  word keys from its keyword map.

:func:`_access_path` decides which, in one place, from the value alone:
an ``indexed`` value answers from the directory it stores
(``XadtValue.directory``), every other value scans.  A fragment a method
returns is ``plain``, so it scans.  ``getElm`` with an explicit
``level >= 0`` always asks a directory (built for the call, without a
keyword map, from a scan-codec value), because depth is not visible to a
tag scan.

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

The *modeled* cost is not amortized at all: every value charges the
running statement for what its access path reads on a cold machine,
whatever a memo or cache held — a column's charge is the sum of its
values' (:func:`_charge`).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.engine.io import work_counters
from repro.errors import XadtMethodError
from repro.xadt import fastscan
from repro.xadt.decode_cache import memoize_predicate
from repro.xadt.fragment import XadtValue, coerce_fragment
from repro.xadt.metadata import ENTRY_BYTES, HEADER_BYTES, SpanDirectory
from repro.xadt.storage import DICT, INDEXED, PLAIN


def _access_path(value: XadtValue) -> SpanDirectory | None:
    """The access-path decision, made here and nowhere else: the
    directory an ``indexed`` value stores, else None — scan the text."""
    return value.directory() if value.codec == INDEXED else None


#: what one directory probe reads of the stored metadata
_PROBE_BYTES = HEADER_BYTES + ENTRY_BYTES


def _charge(scanned: int, decoded: int) -> None:
    """Charge a column's reads to the running statement: ``scanned``
    bytes of tagged text (all of a value's on the scan route, a probe
    plus the spans touched on a directory route) and ``decoded`` bytes of
    dict payloads."""
    work = work_counters().work
    work["xadt_bytes_scanned"] += scanned
    if decoded:
        work["xadt_bytes_decoded"] += decoded


def _probed(spans) -> int:
    """Bytes a directory route reads: one probe plus these spans."""
    return _PROBE_BYTES + sum(span.end - span.start for span in spans)


def _tag_arg(method: str, name: str, value: object) -> str:
    """A tag or search-key argument: a string, or NULL, which relaxes the
    constraint exactly as ``''`` does."""
    if value is None:
        return ""
    if not isinstance(value, str):
        raise XadtMethodError(
            f"{method}: {name} must be a string, not {type(value).__name__}"
        )
    return value


def _int_arg(method: str, name: str, value: object) -> int:
    """An integer argument (anything ``int()`` takes; NULL is not one)."""
    try:
        return int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        shown = "NULL" if value is None else repr(value)
        raise XadtMethodError(
            f"{method}: {name} must be an integer, not {shown}"
        ) from None


# ---------------------------------------------------------------------------
# the column bodies
# ---------------------------------------------------------------------------


def _run_column(
    results: list,
    column: Sequence[object],
    scan: Callable[[str, XadtValue], object],
    probe: Callable[[SpanDirectory, XadtValue], tuple[object, int]] | None,
) -> None:
    """The loop every body runs: append one answer per value of
    ``column``, in order, and charge the column's reads.

    ``scan(text, value)`` answers from a value's tagged text, which the
    value's whole length is charged for; ``probe(directory, value)``
    answers from the directory :func:`_access_path` picks and returns
    ``(answer, bytes read)``.  Without a ``probe`` every value scans.

    A run of one object — the outer value a lateral copies into each row
    it produces — computes once: a value that ``is`` the previous row's
    reuses the previous answer.  Its own coercion, access path,
    ``scan_text()`` and bytes charged stay per value, so a hit fires the
    same fault sites, touches the decode cache and charges what a miss
    would have.  The memo is these locals: it dies with the call.
    """
    append = results.append
    scanned = decoded = read = 0
    last = answer = None
    try:
        for value in column:
            if type(value) is not XadtValue:
                value = coerce_fragment(value)
            directory = None if probe is None else _access_path(value)
            if directory is None:
                text = value.scan_text()
                scanned += len(text)
                if value is not last:
                    answer = scan(text, value)
                    last = value
            else:
                if value is not last:
                    answer, read = probe(directory, value)
                    last = value
                scanned += read
            if value.codec == DICT:
                decoded += len(value.payload)
            append(answer)
    finally:
        _charge(scanned, decoded)


def get_elm_column(
    results: list,
    column: Sequence[object],
    root_elm: str,
    search_elm: str = "",
    search_key: str = "",
    level: int = -1,
) -> None:
    """``getElm`` of every value: the matching ``root_elm`` elements of
    each, as a new fragment."""
    root_elm = _tag_arg("getElm", "rootElm", root_elm)
    search_elm = _tag_arg("getElm", "searchElm", search_elm)
    search_key = _tag_arg("getElm", "searchKey", search_key)
    level = _int_arg("getElm", "level", level)
    new = XadtValue._trusted
    get_elm_plain = fastscan.get_elm_plain

    def probe(directory: SpanDirectory, _value) -> tuple[XadtValue, int]:
        matched = directory.get_elm(root_elm, search_elm, search_key, level)
        return new(matched, PLAIN), _PROBE_BYTES + len(matched)

    def scan(text: str, _value) -> XadtValue:
        if level >= 0:
            # depth is not visible to a tag scan: a directory for the
            # call (building it reads the whole text, as charged)
            return probe(SpanDirectory.build(text, keywords=False), None)[0]
        return new(get_elm_plain(text, root_elm, search_elm, search_key), PLAIN)

    _run_column(results, column, scan, probe)


def find_key_in_elm_column(
    results: list, column: Sequence[object], search_elm: str, search_key: str
) -> None:
    """``findKeyInElm`` of every value: 1 if any ``search_elm`` element's
    content contains ``search_key``.

    A scanned verdict is memoized in the process-wide decode cache, keyed
    on the payload and the search terms.  A directory answers from a
    probe when its tag index proves ``search_elm`` absent — the
    predicate-pushdown half of the vectorized scan path — or its keyword
    map holds a word key, and otherwise reads the candidate elements.
    """
    search_elm = _tag_arg("findKeyInElm", "searchElm", search_elm)
    search_key = _tag_arg("findKeyInElm", "searchKey", search_key)
    if not search_elm and not search_key:
        raise XadtMethodError(
            "findKeyInElm: searchElm and searchKey cannot both be empty"
        )
    terms = (search_elm, search_key)
    find_key_in_elm_plain = fastscan.find_key_in_elm_plain

    def scan(text: str, value: XadtValue) -> int:
        return memoize_predicate(
            "findkey", value.payload, terms,
            find_key_in_elm_plain, text, search_elm, search_key,
        )

    def probe(directory: SpanDirectory, _value) -> tuple[int, int]:
        shortcut = (
            search_elm and not directory.has_tag(search_elm)
        ) or directory.keyed(search_key)
        if shortcut:
            read = _PROBE_BYTES
        else:
            read = _probed(directory.outermost_of(search_elm))
        return directory.find_key(search_elm, search_key), read

    _run_column(results, column, scan, probe)


def get_elm_index_column(
    results: list,
    column: Sequence[object],
    parent_elm: str,
    child_elm: str,
    start_pos: int,
    end_pos: int,
) -> None:
    """``getElmIndex`` of every value: positional child access (paper
    QE2 / QS6 / QG6)."""
    parent_elm = _tag_arg("getElmIndex", "parentElm", parent_elm)
    child_elm = _tag_arg("getElmIndex", "childElm", child_elm)
    if not child_elm:
        raise XadtMethodError("getElmIndex: childElm cannot be an empty string")
    start_pos = _int_arg("getElmIndex", "startPos", start_pos)
    end_pos = _int_arg("getElmIndex", "endPos", end_pos)
    new = XadtValue._trusted
    get_elm_index_plain = fastscan.get_elm_index_plain

    def scan(text: str, _value) -> XadtValue:
        return new(
            get_elm_index_plain(text, parent_elm, child_elm, start_pos, end_pos),
            PLAIN,
        )

    def probe(directory: SpanDirectory, _value) -> tuple[XadtValue, int]:
        matched = directory.get_elm_index(parent_elm, child_elm, start_pos, end_pos)
        return new(matched, PLAIN), _PROBE_BYTES + len(matched)

    _run_column(results, column, scan, probe)


def elm_equals_column(
    results: list, column: Sequence[object], search_elm: str, value: str
) -> None:
    """``elmEquals`` of every fragment: 1 if any (non-nested)
    ``search_elm`` element's text content equals ``value`` (a NULL
    ``value`` equals nothing).

    The exact-match companion of ``findKeyInElm`` (a "more specialized
    method" in the sense of §3.4.2); the path-query compiler uses it for
    ``=`` predicates so Hybrid and XORator translations agree on
    equality semantics.
    """
    search_elm = _tag_arg("elmEquals", "searchElm", search_elm)
    if not search_elm:
        raise XadtMethodError("elmEquals: searchElm cannot be empty")
    if value is not None and not isinstance(value, str):
        raise XadtMethodError(
            f"elmEquals: value must be a string, not {type(value).__name__}"
        )
    text_of = fastscan.text_of
    find_spans = fastscan.find_spans

    def scan(text: str, _value) -> int:
        contents = [text[cs:ce] for _, cs, ce, _ in find_spans(text, search_elm)]
        return 1 if value in map(text_of, contents) else 0

    def probe(directory: SpanDirectory, fragment: XadtValue) -> tuple[int, int]:
        text = fragment.scan_text()
        spans = directory.outermost_of(search_elm)
        found = value in map(text_of, [span.content(text) for span in spans])
        return (1 if found else 0), _probed(spans)

    _run_column(results, column, scan, probe)


def elm_text_column(results: list, column: Sequence[object]) -> None:
    """``elmText`` of every value: its concatenated character content."""
    text_of = fastscan.text_of
    _run_column(results, column, lambda text, _value: text_of(text), None)


# ---------------------------------------------------------------------------
# the scalar forms: each body over a one-element column
# ---------------------------------------------------------------------------


def get_elm(
    fragment: object,
    root_elm: str,
    search_elm: str = "",
    search_key: str = "",
    level: int = -1,
) -> XadtValue:
    """Return all matching ``root_elm`` elements as a new fragment."""
    results: list = []
    get_elm_column(results, (fragment,), root_elm, search_elm, search_key, level)
    return results[0]


def find_key_in_elm(fragment: object, search_elm: str, search_key: str) -> int:
    """1 if any ``search_elm`` element's content contains ``search_key``."""
    results: list = []
    find_key_in_elm_column(results, (fragment,), search_elm, search_key)
    return results[0]


def get_elm_index(
    fragment: object,
    parent_elm: str,
    child_elm: str,
    start_pos: int,
    end_pos: int,
) -> XadtValue:
    """Positional child access (paper QE2 / QS6 / QG6)."""
    results: list = []
    get_elm_index_column(
        results, (fragment,), parent_elm, child_elm, start_pos, end_pos
    )
    return results[0]


def elm_equals(fragment: object, search_elm: str, value: str) -> int:
    """1 if any (non-nested) ``search_elm`` element's text content
    equals ``value``."""
    results: list = []
    elm_equals_column(results, (fragment,), search_elm, value)
    return results[0]


def elm_text(fragment: object) -> str:
    """Concatenated character content of the fragment."""
    results: list = []
    elm_text_column(results, (fragment,))
    return results[0]
