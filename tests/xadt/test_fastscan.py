"""The plain-codec fast scanner: spans, edge cases, and the flat span walk
held to the depth-counting reference walk it replaced."""

from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XadtMethodError
from repro.xadt import fastscan
from repro.xadt.fastscan import _OPEN_BOUNDARY, Span
from tests.xadt.test_codec_parity import TAGS, fragments


def spans_of(payload, tag, start=0, end=None):
    """``find_spans``' bounds as :class:`Span` s (for ``slice`` / ``content``)."""
    return [Span(*bounds) for bounds in fastscan.find_spans(payload, tag, start, end)]


# ---------------------------------------------------------------------------
# the reference walk: a generator resumed once per element, every element
# resolved by the depth-counting loop (the scan kernel before the flat walk)
# ---------------------------------------------------------------------------


def reference_find_spans(
    payload: str, tag: str, start: int = 0, end: int | None = None
) -> Iterator[Span]:
    """Outermost (non-nested) occurrences of ``tag`` in payload[start:end]."""
    if not tag:
        raise XadtMethodError("find_spans requires a tag name")
    limit = len(payload) if end is None else end
    open_pat = "<" + tag
    open_len = len(open_pat)
    find = payload.find
    pos = start
    while pos < limit:
        i = find(open_pat, pos, limit)
        if i == -1:
            return
        boundary = payload[i + open_len] if i + open_len < limit else ""
        if boundary not in _OPEN_BOUNDARY:
            pos = i + 1  # a longer tag name sharing the prefix
            continue
        span = reference_match_span(payload, tag, i, limit)
        yield span
        pos = span.end


def reference_match_span(payload: str, tag: str, open_at: int, limit: int) -> Span:
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


def both_walks(payload, tag, start=0, end=None):
    """(flat walk, reference walk): each a list of bounds or the
    ``XadtMethodError`` message it raised.  The flat walk's slices output
    must agree with its bounds."""
    outcomes = []
    for walk in (fastscan.find_spans, reference_find_spans):
        try:
            outcomes.append([tuple(span) for span in walk(payload, tag, start, end)])
        except XadtMethodError as exc:
            outcomes.append(str(exc))
    try:
        slices = fastscan.find_spans(payload, tag, start, end, slices=True)
    except XadtMethodError as exc:
        assert str(exc) == outcomes[0]
    else:
        assert slices == [payload[s:e] for s, _, _, e in outcomes[0]]
    return outcomes


class TestTextOf:
    def test_strips_tags(self):
        assert fastscan.text_of("<a>x<b>y</b>z</a>") == "xyz"

    def test_unescapes_entities(self):
        assert fastscan.text_of("<a>1 &lt; 2</a>") == "1 < 2"

    def test_plain_text_fast_path(self):
        assert fastscan.text_of("no tags here") == "no tags here"


class TestFindSpans:
    def test_simple_span(self):
        payload = "<a>x</a><b>y</b>"
        (span,) = spans_of(payload, "b")
        assert span.slice(payload) == "<b>y</b>"
        assert span.content(payload) == "y"

    def test_tag_prefix_not_confused(self):
        payload = "<LINEAGE>x</LINEAGE><LINE>y</LINE>"
        spans = spans_of(payload, "LINE")
        assert len(spans) == 1
        assert spans[0].slice(payload) == "<LINE>y</LINE>"

    def test_nested_same_tag_counted(self):
        payload = "<d>a<d>b</d>c</d>"
        (span,) = spans_of(payload, "d")
        assert span.slice(payload) == payload

    def test_self_closing_span(self):
        payload = '<a/><a k="v"/>'
        spans = spans_of(payload, "a")
        assert len(spans) == 2
        assert spans[0].content(payload) == ""

    def test_self_closing_nested_same_tag(self):
        payload = "<d>x<d/>y</d>"
        (span,) = spans_of(payload, "d")
        assert span.slice(payload) == payload

    def test_attributes_on_open_tag(self):
        payload = '<a k="v">x</a>'
        (span,) = spans_of(payload, "a")
        assert span.content(payload) == "x"

    def test_missing_close_rejected(self):
        with pytest.raises(XadtMethodError):
            fastscan.find_spans("<a>x", "a")

    def test_window_restricts_search(self):
        payload = "<a>1</a><a>2</a>"
        spans = spans_of(payload, "a", start=8)
        assert len(spans) == 1
        assert spans[0].content(payload) == "2"

    def test_empty_tag_rejected(self):
        with pytest.raises(XadtMethodError):
            fastscan.find_spans("<a/>", "")

    def test_returns_a_list_of_bounds_or_slices(self):
        payload = "<a>1</a><a/>"
        assert fastscan.find_spans(payload, "a") == [(0, 3, 4, 8), (8, 12, 12, 12)]
        assert fastscan.find_spans(payload, "a", slices=True) == ["<a>1</a>", "<a/>"]


class TestTopLevelSpans:
    def test_yields_tag_and_span(self):
        payload = "<a>1</a><bb>2</bb>"
        result = [(tag, span.content(payload))
                  for tag, span in fastscan.top_level_spans(payload)]
        assert result == [("a", "1"), ("bb", "2")]

    def test_skips_inter_element_text(self):
        payload = "<a/> \n <b/>"
        tags = [tag for tag, _ in fastscan.top_level_spans(payload)]
        assert tags == ["a", "b"]

    def test_window_within_parent(self):
        payload = "<p><x>1</x><y>2</y></p>"
        (parent,) = spans_of(payload, "p")
        inner = [
            tag
            for tag, _ in fastscan.top_level_spans(
                payload, parent.content_start, parent.content_end
            )
        ]
        assert inner == ["x", "y"]


class TestMethodFastPaths:
    def test_get_elm_plain_empty_root(self):
        result = fastscan.get_elm_plain("<a>k</a><b>k</b>", "", "", "k")
        assert result == "<a>k</a><b>k</b>"

    def test_find_key_early_exit_semantics(self):
        # result identical whether the match is first or last
        assert fastscan.find_key_in_elm_plain("<a>hit</a><a>x</a>", "a", "hit") == 1
        assert fastscan.find_key_in_elm_plain("<a>x</a><a>hit</a>", "a", "hit") == 1

    def test_get_elm_index_per_parent_reset(self):
        payload = "<p><c>1</c></p><p><c>2</c><c>3</c></p>"
        result = fastscan.get_elm_index_plain(payload, "p", "c", 2, 2)
        assert result == "<c>3</c>"

    def test_unnest_plain_any_depth(self):
        payload = "<w><c>1</c></w><c>2</c>"
        assert fastscan.unnest_plain(payload, "c") == ["<c>1</c>", "<c>2</c>"]

    def test_get_elm_plain_searches_within_each_root(self):
        # the search element of one root is not credited to its neighbour
        payload = "<r><s>k</s></r><r><t>k</t></r><r><s>x</s></r>"
        assert fastscan.get_elm_plain(payload, "r", "s", "k") == "<r><s>k</s></r>"
        assert fastscan.get_elm_plain(payload, "r", "s", "") == (
            "<r><s>k</s></r><r><s>x</s></r>"
        )
        assert fastscan.get_elm_plain(payload, "r", "", "x") == "<r><s>x</s></r>"


# ---------------------------------------------------------------------------
# the flat walk gives the reference walk's spans
# ---------------------------------------------------------------------------


class TestFlatWalkEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(payload=fragments(), tag=st.sampled_from(TAGS + ("c",)))
    def test_same_spans_over_generated_fragments(self, payload, tag):
        flat, reference = both_walks(payload, tag)
        assert flat == reference

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), payload=fragments(), tag=st.sampled_from(TAGS))
    def test_same_spans_or_error_in_any_window(self, data, payload, tag):
        # a window may cut an element in two: both walks then fail alike
        start = data.draw(st.integers(0, len(payload)))
        end = data.draw(st.integers(0, len(payload)))
        flat, reference = both_walks(payload, tag, start, end)
        assert flat == reference

    @pytest.mark.parametrize("payload, tag, expected", [
        # same-tag nesting three deep, then a sibling
        ("<a><a><a>x</a></a><a/></a><a>y</a>", "a",
         ["<a><a><a>x</a></a><a/></a>", "<a>y</a>"]),
        ("<a><a/></a>", "a", ["<a><a/></a>"]),
        ("<a><a/></a>", "b", []),
        # prefix-sharing tags
        ("<ab><a>x</a></ab><a><ab/>y</a>", "a", ["<a>x</a>", "<a><ab/>y</a>"]),
        ("<ab><a>x</a></ab><a><ab/>y</a>", "ab", ["<ab><a>x</a></ab>", "<ab/>"]),
        ("<a><ab>1</ab><a>2</a></a>", "a", ["<a><ab>1</ab><a>2</a></a>"]),
        ("<authors><author>A</author><author>B</author></authors>", "author",
         ["<author>A</author>", "<author>B</author>"]),
        ("<authors><author>A</author><author>B</author></authors>", "authors",
         ["<authors><author>A</author><author>B</author></authors>"]),
        # attributes holding '/', '&gt;' and whitespace
        ('<a href="x/y/" k="1&gt;2" s=" b c ">t</a><a k="/"/>', "a",
         ['<a href="x/y/" k="1&gt;2" s=" b c ">t</a>', '<a k="/"/>']),
        ('<a\n k="/&gt;">u</a><a\tk=" "/><a k="&gt;/"><a k="/"/></a>', "a",
         ['<a\n k="/&gt;">u</a>', '<a\tk=" "/>', '<a k="&gt;/"><a k="/"/></a>']),
    ])
    def test_named_cases(self, payload, tag, expected):
        flat, reference = both_walks(payload, tag)
        assert flat == reference
        assert [payload[s:e] for s, _, _, e in flat] == expected

    @pytest.mark.parametrize("payload, tag", [
        ("<a>x", "a"),                # missing close tag
        ("<a><a>x</a>", "a"),         # missing close of a nesting element
        ("<b/><a>x</b>", "a"),
        ('<a x="1"', "a"),            # unterminated tag
        ("<a>x</a><a ", "a"),
        ("<a><a x</a>", "a"),         # a nested tag running into the close tag
    ])
    def test_malformed_text_raises_the_same_error(self, payload, tag):
        flat, reference = both_walks(payload, tag)
        assert isinstance(flat, str), flat
        assert flat == reference
