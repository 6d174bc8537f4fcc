"""C-speed span scanning over plain-codec fragment text.

The paper implemented the XADT methods "using the C string functions"
over the VARCHAR payload; the Python-faithful equivalent is
``str.find``-based scanning, which runs in C and keeps the method cost
proportional to the fragment bytes scanned — the property the §4.3/§4.4
analysis depends on.  Plain payloads are scanned as stored, dict
payloads through their decode-cached tagged text.

One kernel, :func:`find_spans`, finds a tag's outermost elements for
every scan-route method — the ``*_plain`` bodies below, ``elmEquals`` in
:mod:`repro.xadt.methods` and ``unnest`` — as one flat loop that returns
a list: of ``(start, content_start, content_end, end)`` bounds, or, for
a caller that only wants the elements, of their slices.  Per element it
runs a ``find`` of the open tag, of that tag's ``>`` (a
self-closing element ends there) and of the close tag, then one ``find``
of the open tag bounded by that close tag.  Only when the bounded find
lands on a same-tag open — the element nests its own tag, so the first
close tag may be the inner element's — does the element go to
:func:`_match_span`'s depth-counting walk.  That walk is also what
:func:`top_level_spans` runs for every element: it serves the
empty-tag forms (a fragment's or a parent's top-level elements) and the
indexed codec's span directory.

How a span is found is host wall only.  The methods charge every value
``len(text)`` scanned bytes (:func:`repro.xadt.methods._charge`) — what
the paper's C scan reads — whichever walk found its spans.

Assumption (guaranteed by the XADT encoders and serializer, and by
``XadtValue.from_xml``, which stores what it validates in canonical
serialization): fragment text is well-formed, holds elements and
character data only, and ``<``/``>`` appear escaped inside character
data and attribute values, so every raw ``<`` in the payload starts an
element tag.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from repro.errors import XadtMethodError
from repro.xmlkit.chars import unescape

_TAG_RE = re.compile(r"<[^>]*>")
_OPEN_BOUNDARY = (">", " ", "\t", "\n", "\r", "/")


def text_of(fragment_text: str) -> str:
    """Concatenated character content of ``fragment_text`` (tags stripped)."""
    stripped = _TAG_RE.sub("", fragment_text)
    if "&" in stripped:
        return unescape(stripped)
    return stripped


class Span(NamedTuple):
    """One element occurrence inside a payload string."""

    start: int          #: offset of '<'
    content_start: int  #: offset just past the opening tag's '>'
    content_end: int    #: offset of the matching '</'
    end: int            #: offset just past the closing '>'

    def slice(self, payload: str) -> str:
        return payload[self.start:self.end]

    def content(self, payload: str) -> str:
        return payload[self.content_start:self.content_end]


def find_spans(
    payload: str,
    tag: str,
    start: int = 0,
    end: int | None = None,
    *,
    slices: bool = False,
) -> list:
    """Outermost (non-nested) occurrences of ``tag`` in payload[start:end],
    as ``(start, content_start, content_end, end)`` bounds (a
    :class:`Span`'s fields) or, with ``slices``, as the elements' own
    slices of ``payload``."""
    if not tag:
        raise XadtMethodError("find_spans requires a tag name")
    limit = len(payload) if end is None else end
    open_pat = "<" + tag
    close_pat = "</" + tag + ">"
    open_len = len(open_pat)
    close_len = len(close_pat)
    find = payload.find
    spans: list = []
    append = spans.append
    pos = start
    while True:
        i = find(open_pat, pos, limit)
        if i == -1:
            return spans
        after = i + open_len
        if after >= limit or payload[after] not in _OPEN_BOUNDARY:
            pos = i + 1  # a longer tag name sharing the prefix
            continue
        gt = find(">", i, limit)
        if gt == -1:
            raise XadtMethodError(f"unterminated tag <{tag} at offset {i}")
        content_start = gt + 1
        if payload[gt - 1] == "/":  # self-closing
            pos = content_start
            append(payload[i:pos] if slices else (i, pos, pos, pos))
            continue
        close_at = find(close_pat, content_start, limit)
        if close_at == -1:
            raise XadtMethodError(f"missing </{tag}> for tag at offset {i}")
        # a same-tag open before the close tag means nesting; an open of a
        # longer name sharing the prefix does not
        inner = find(open_pat, content_start, close_at)
        while inner != -1 and payload[inner + open_len] not in _OPEN_BOUNDARY:
            inner = find(open_pat, inner + 1, close_at)
        if inner == -1:
            pos = close_at + close_len
            append(payload[i:pos] if slices else (i, content_start, close_at, pos))
        else:  # nests its own tag: count depth to the matching close
            span = _match_span(payload, tag, i, limit)
            pos = span.end
            append(payload[i:pos] if slices else span)


def top_level_spans(payload: str, start: int = 0, end: int | None = None) -> Iterator[tuple[str, Span]]:
    """(tag, span) for each top-level element of payload[start:end]."""
    limit = len(payload) if end is None else end
    pos = start
    find = payload.find
    while pos < limit:
        lt = find("<", pos, limit)
        if lt == -1:
            return
        name_end = lt + 1
        while name_end < limit and payload[name_end] not in _OPEN_BOUNDARY:
            name_end += 1
        tag = payload[lt + 1:name_end]
        if not tag:
            raise XadtMethodError(f"malformed fragment near offset {lt}")
        span = _match_span(payload, tag, lt, limit)
        yield tag, span
        pos = span.end


def _match_span(payload: str, tag: str, open_at: int, limit: int) -> Span:
    """Resolve the span of the element whose open tag starts at ``open_at``."""
    find = payload.find
    gt = find(">", open_at, limit)
    if gt == -1:
        raise XadtMethodError(f"unterminated tag <{tag} at offset {open_at}")
    if payload[gt - 1] == "/":  # self-closing
        return Span(open_at, gt + 1, gt + 1, gt + 1)

    open_pat = "<" + tag
    close_pat = "</" + tag + ">"
    open_len = len(open_pat)
    close_len = len(close_pat)
    content_start = gt + 1
    depth = 1
    scan = content_start
    while True:
        close_at = find(close_pat, scan, limit)
        if close_at == -1:
            raise XadtMethodError(f"missing </{tag}> for tag at offset {open_at}")
        inner_open = find(open_pat, scan, close_at)
        advanced = False
        while inner_open != -1:
            boundary = (
                payload[inner_open + open_len]
                if inner_open + open_len < limit
                else ""
            )
            if boundary in _OPEN_BOUNDARY:
                inner_gt = find(">", inner_open, limit)
                if inner_gt == -1:
                    raise XadtMethodError(
                        f"unterminated nested <{tag} at offset {inner_open}"
                    )
                if payload[inner_gt - 1] != "/":
                    depth += 1
                scan = inner_gt + 1
                advanced = True
                break
            inner_open = find(open_pat, inner_open + 1, close_at)
        if advanced:
            continue
        depth -= 1
        scan = close_at + close_len
        if depth == 0:
            return Span(open_at, content_start, close_at, close_at + close_len)


# ---------------------------------------------------------------------------
# method fast paths (plain codec)
# ---------------------------------------------------------------------------


def get_elm_plain(
    payload: str, root_elm: str, search_elm: str, search_key: str
) -> str:
    """Fast path for getElm with the default (unlimited) level."""
    if root_elm:
        if not search_elm and not search_key:
            return "".join(find_spans(payload, root_elm, slices=True))
        candidates = find_spans(payload, root_elm)
    else:
        candidates = [span for _, span in top_level_spans(payload)]
    return "".join([
        payload[s:e]
        for s, _, _, e in candidates
        if _holds(payload, s, e, search_elm, search_key)
    ])


def _holds(
    payload: str, start: int, end: int, search_elm: str, search_key: str
) -> bool:
    """Whether payload[start:end] holds a ``search_elm`` element (any
    text, without one) whose character content contains ``search_key``."""
    if not search_elm:
        return not search_key or search_key in text_of(payload[start:end])
    # find_spans also matches the window's own root when the tags coincide
    # (descendant-or-self semantics: QE1's rootElm == searchElm case).
    spans = find_spans(payload, search_elm, start, end)
    if not search_key:
        return bool(spans)
    for _, content_start, content_end, _ in spans:
        if search_key in text_of(payload[content_start:content_end]):
            return True
    return False


def find_key_in_elm_plain(payload: str, search_elm: str, search_key: str) -> int:
    return 1 if _holds(payload, 0, len(payload), search_elm, search_key) else 0


def get_elm_index_plain(
    payload: str, parent_elm: str, child_elm: str, start_pos: int, end_pos: int
) -> str:
    matched: list[str] = []
    if not parent_elm:
        position = 0
        for tag, span in top_level_spans(payload):
            if tag != child_elm:
                continue
            position += 1
            if start_pos <= position <= end_pos:
                matched.append(span.slice(payload))
        return "".join(matched)
    for _, content_start, content_end, _ in find_spans(payload, parent_elm):
        position = 0
        for tag, child in top_level_spans(payload, content_start, content_end):
            if tag != child_elm:
                continue
            position += 1
            if start_pos <= position <= end_pos:
                matched.append(child.slice(payload))
    return "".join(matched)


def unnest_plain(payload: str, tag: str) -> list[str]:
    if tag:
        return find_spans(payload, tag, slices=True)
    return [span.slice(payload) for _, span in top_level_spans(payload)]
