"""The indexed codec and span directory (paper §4.4/§5 future work)."""

import pytest

from repro.xadt import (
    DICT,
    INDEXED,
    PLAIN,
    SpanDirectory,
    XadtValue,
    elm_text,
    find_key_in_elm,
    get_elm,
    get_elm_index,
    unnest_values,
)

FRAGMENT = (
    "<SPEECH><SPEAKER>ROMEO</SPEAKER>"
    "<LINE>but soft, my friend</LINE>"
    "<LINE>what light <STAGEDIR>aside</STAGEDIR> breaks</LINE>"
    "</SPEECH>"
    "<SPEECH><SPEAKER>JULIET</SPEAKER><LINE>deny thy father</LINE></SPEECH>"
)


class TestSpanDirectory:
    @pytest.fixture(scope="class")
    def directory(self):
        return SpanDirectory.build(FRAGMENT)

    def test_counts_every_element(self, directory):
        # 2 SPEECH + 2 SPEAKER + 3 LINE + 1 STAGEDIR
        assert len(directory) == 8

    def test_spans_by_tag(self, directory):
        assert len(directory.spans_of("LINE")) == 3
        assert len(directory.spans_of("GHOST")) == 0

    def test_top_level(self, directory):
        assert [e.tag for e in directory.top_level()] == ["SPEECH", "SPEECH"]

    def test_parent_links(self, directory):
        stagedir = directory.spans_of("STAGEDIR")[0]
        parent = directory.entries[stagedir.parent]
        assert parent.tag == "LINE"
        assert stagedir.depth == 2

    def test_slices_recover_text(self, directory):
        speaker = directory.spans_of("SPEAKER")[0]
        assert speaker.slice(FRAGMENT) == "<SPEAKER>ROMEO</SPEAKER>"
        assert speaker.content(FRAGMENT) == "ROMEO"

    def test_outermost_filters_nested_same_tag(self):
        directory = SpanDirectory.build("<d>a<d>b</d></d><d>c</d>")
        assert len(list(directory.outermost_of("d"))) == 2
        assert len(directory.spans_of("d")) == 3

    def test_outermost_worked_out_once_per_tag(self):
        # the positional lookup walks entry indices: no per-parent search
        # of the same-tag list, no per-call set of them (wide fragments)
        wide = "".join(f"<p><c>{i}</c><p><c>in</c></p></p>" for i in range(400))
        directory = SpanDirectory.build(wide)
        indices = directory.outermost_indices("p")
        assert directory.outermost_indices("p") is indices
        assert len(indices) == 400 and len(directory.spans_of("p")) == 800
        assert directory.outermost_indices("ghost") == []
        size = directory.byte_size()
        assert get_elm_index(XadtValue(wide, INDEXED), "p", "c", 1, 1) == (
            get_elm_index(XadtValue(wide, PLAIN), "p", "c", 1, 1)
        )
        assert SpanDirectory.build(wide).byte_size() == size  # storage model

    def test_descendants_within(self, directory):
        first_speech = directory.top_level()[0]
        lines = directory.descendants_within(first_speech, "LINE")
        assert len(lines) == 2

    def test_byte_size_positive_and_empty_zero(self, directory):
        assert directory.byte_size() > 8 * 18
        assert SpanDirectory.build("").byte_size() == 0


class TestIndexedCodec:
    def test_storage_costs_more_than_plain(self):
        plain = XadtValue.from_xml(FRAGMENT, PLAIN)
        indexed = XadtValue.from_xml(FRAGMENT, INDEXED)
        assert indexed.byte_size() > plain.byte_size()
        assert indexed.to_xml() == plain.to_xml()

    def test_directory_cached(self):
        value = XadtValue.from_xml(FRAGMENT, INDEXED)
        assert value.directory() is value.directory()

    def test_recode_across_all_codecs(self):
        value = XadtValue.from_xml(FRAGMENT, INDEXED)
        assert value.recode(DICT).recode(PLAIN).to_xml() == FRAGMENT

    def test_equality_across_codecs(self):
        assert XadtValue.from_xml(FRAGMENT, INDEXED) == XadtValue.from_xml(
            FRAGMENT, PLAIN
        )


class TestMethodAgreement:
    """The indexed fast paths must agree with the plain implementation."""

    @pytest.fixture(params=[PLAIN, INDEXED], ids=["plain", "indexed"])
    def value(self, request):
        return XadtValue.from_xml(FRAGMENT, request.param)

    def test_get_elm(self, value):
        result = get_elm(value, "LINE", "LINE", "friend")
        assert result.to_xml() == "<LINE>but soft, my friend</LINE>"

    def test_get_elm_empty_root(self, value):
        assert get_elm(value, "", "", "father").to_xml().startswith("<SPEECH>")

    def test_get_elm_subelement(self, value):
        result = get_elm(value, "LINE", "STAGEDIR", "")
        assert "aside" in result.to_xml()

    def test_find_key(self, value):
        assert find_key_in_elm(value, "SPEAKER", "JULIET") == 1
        assert find_key_in_elm(value, "SPEAKER", "HAMLET") == 0
        assert find_key_in_elm(value, "", "father") == 1

    def test_get_elm_index(self, value):
        result = get_elm_index(value, "SPEECH", "LINE", 2, 2)
        assert "what light" in result.to_xml()
        assert "friend" not in result.to_xml()

    def test_get_elm_index_top_level(self, value):
        result = get_elm_index(value, "", "SPEECH", 2, 2)
        assert "JULIET" in result.to_xml()

    def test_unnest(self, value):
        lines = unnest_values(value, "LINE")
        assert len(lines) == 3
        assert all(piece.codec == PLAIN for piece in lines)

    def test_unnest_top_level(self, value):
        assert len(unnest_values(value, "")) == 2

    def test_elm_text(self, value):
        assert elm_text(value).startswith("ROMEObut soft")


def test_indexed_skips_irrelevant_payload():
    """The §5 claim: metadata avoids scanning unrelated fragment bytes.

    The indexed getElmIndex touches only directory entries plus the
    matched slices; a huge unrelated sibling costs nothing extra beyond
    the one-time directory build.
    """
    big_noise = "<NOISE>" + "x" * 50_000 + "</NOISE>"
    fragment = big_noise + "<LINE>first</LINE><LINE>second</LINE>"
    value = XadtValue.from_xml(fragment, INDEXED)
    value.directory()  # build once (amortized at load time)

    import time

    start = time.perf_counter()
    for _ in range(200):
        get_elm_index(value, "", "LINE", 2, 2)
    indexed_time = time.perf_counter() - start

    plain = XadtValue.from_xml(fragment, PLAIN)
    start = time.perf_counter()
    for _ in range(200):
        get_elm_index(plain, "", "LINE", 2, 2)
    plain_time = time.perf_counter() - start

    assert indexed_time < plain_time
