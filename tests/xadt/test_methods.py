"""The XADT methods (paper §3.4.2), exercised on both codecs.

Every test runs against the plain codec (fast-scan path) and the dict
codec (generic event path); the two implementations must agree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XadtMethodError
from repro.xadt import (
    DICT,
    PLAIN,
    XadtValue,
    elm_text,
    find_key_in_elm,
    get_elm,
    get_elm_index,
)
from repro.xadt.decode_cache import DECODE_CACHE
from repro.xadt.storage import CODECS
from repro.xadt.structural_index import XINDEX, routing
from repro.xmlkit.chars import escape_text
from repro.xmlkit.serializer import serialize
from tests.xadt.test_structural_index import publish_fragment

SPEECH_LINES = (
    "<LINE>O true apothecary, my friend</LINE>"
    "<LINE>Thus with a kiss I die <STAGEDIR>Rising</STAGEDIR> slowly</LINE>"
    "<LINE>A plague on both houses</LINE>"
)
SPEAKERS = "<SPEAKER>ROMEO</SPEAKER><SPEAKER>JULIET</SPEAKER>"


@pytest.fixture(params=[PLAIN, DICT], ids=["plain", "dict"])
def codec(request):
    return request.param


def fragment(xml, codec):
    return XadtValue.from_xml(xml, codec)


class TestGetElm:
    def test_keyword_in_element_itself(self, codec):
        result = get_elm(fragment(SPEECH_LINES, codec), "LINE", "LINE", "friend")
        assert result.to_xml() == "<LINE>O true apothecary, my friend</LINE>"

    def test_subelement_existence(self, codec):
        result = get_elm(fragment(SPEECH_LINES, codec), "LINE", "STAGEDIR", "")
        assert "kiss" in result.to_xml()
        assert "apothecary" not in result.to_xml()

    def test_subelement_with_keyword(self, codec):
        result = get_elm(fragment(SPEECH_LINES, codec), "LINE", "STAGEDIR", "Rising")
        assert "kiss" in result.to_xml()

    def test_subelement_keyword_mismatch(self, codec):
        result = get_elm(fragment(SPEECH_LINES, codec), "LINE", "STAGEDIR", "Falling")
        assert result.is_empty()

    def test_empty_search_elm_searches_whole_content(self, codec):
        result = get_elm(fragment(SPEECH_LINES, codec), "LINE", "", "plague")
        assert result.to_xml() == "<LINE>A plague on both houses</LINE>"

    def test_both_empty_returns_all_roots(self, codec):
        result = get_elm(fragment(SPEECH_LINES, codec), "LINE", "", "")
        assert result.to_xml() == SPEECH_LINES

    def test_no_match_returns_empty_fragment(self, codec):
        result = get_elm(fragment(SPEECH_LINES, codec), "SPEECH", "", "")
        assert result.is_empty()

    def test_nested_root_candidates_not_double_counted(self, codec):
        nested = "<d><d>inner</d></d>"
        result = get_elm(fragment(nested, codec), "d", "", "")
        assert result.to_xml() == nested  # outermost only

    def test_result_composes_with_another_call(self, codec):
        # paper: "an XADT output ... can be input to another call"
        articles = (
            "<aTuple><title>Join Processing</title><author>Codd</author></aTuple>"
            "<aTuple><title>Recovery</title><author>Gray</author></aTuple>"
        )
        step1 = get_elm(fragment(articles, codec), "aTuple", "title", "Join")
        step2 = get_elm(step1, "author", "", "")
        assert step2.to_xml() == "<author>Codd</author>"

    def test_level_zero_restricts_to_self(self):
        nested = "<a><b>key</b></a>"
        deep = get_elm(XadtValue.from_xml(nested), "a", "b", "key")
        assert not deep.is_empty()
        shallow = get_elm(XadtValue.from_xml(nested), "a", "b", "key", level=0)
        assert shallow.is_empty()

    def test_level_one_reaches_children(self):
        nested = "<a><b>key</b><c><b>deep</b></c></a>"
        result = get_elm(XadtValue.from_xml(nested), "a", "b", "deep", level=1)
        assert result.is_empty()
        result = get_elm(XadtValue.from_xml(nested), "a", "b", "key", level=1)
        assert not result.is_empty()

    def test_empty_fragment_input(self, codec):
        assert get_elm(XadtValue.empty(), "LINE", "", "").is_empty()


class TestFindKeyInElm:
    def test_found(self, codec):
        assert find_key_in_elm(fragment(SPEAKERS, codec), "SPEAKER", "ROMEO") == 1

    def test_not_found(self, codec):
        assert find_key_in_elm(fragment(SPEAKERS, codec), "SPEAKER", "HAMLET") == 0

    def test_element_existence_only(self, codec):
        assert find_key_in_elm(fragment(SPEAKERS, codec), "SPEAKER", "") == 1
        assert find_key_in_elm(fragment(SPEAKERS, codec), "LINE", "") == 0

    def test_key_anywhere_with_empty_element(self, codec):
        assert find_key_in_elm(fragment(SPEAKERS, codec), "", "JULIET") == 1
        assert find_key_in_elm(fragment(SPEAKERS, codec), "", "MACBETH") == 0

    def test_both_empty_rejected(self, codec):
        with pytest.raises(XadtMethodError):
            find_key_in_elm(fragment(SPEAKERS, codec), "", "")

    def test_key_in_nested_content_counts(self, codec):
        assert find_key_in_elm(fragment(SPEECH_LINES, codec), "LINE", "Rising") == 1

    def test_wrong_element_does_not_match(self, codec):
        assert find_key_in_elm(fragment(SPEECH_LINES, codec), "STAGEDIR", "kiss") == 0


class TestGetElmIndex:
    def test_top_level_positions(self, codec):
        result = get_elm_index(fragment(SPEECH_LINES, codec), "", "LINE", 2, 2)
        assert "kiss" in result.to_xml()
        assert "apothecary" not in result.to_xml()

    def test_range_of_positions(self, codec):
        result = get_elm_index(fragment(SPEECH_LINES, codec), "", "LINE", 2, 3)
        assert "kiss" in result.to_xml() and "plague" in result.to_xml()

    def test_out_of_range_empty(self, codec):
        assert get_elm_index(fragment(SPEECH_LINES, codec), "", "LINE", 9, 9).is_empty()

    def test_with_parent_element(self, codec):
        doc = (
            "<authors><author>A</author><author>B</author></authors>"
            "<authors><author>C</author><author>D</author></authors>"
        )
        result = get_elm_index(fragment(doc, codec), "authors", "author", 2, 2)
        # position counting restarts per parent
        assert result.to_xml() == "<author>B</author><author>D</author>"

    def test_positions_count_same_tag_only(self, codec):
        doc = "<p><x>1</x><y>skip</y><x>2</x></p>"
        result = get_elm_index(fragment(doc, codec), "p", "x", 2, 2)
        assert result.to_xml() == "<x>2</x>"

    def test_empty_child_elm_rejected(self, codec):
        with pytest.raises(XadtMethodError):
            get_elm_index(fragment(SPEECH_LINES, codec), "", "", 1, 1)

    def test_parent_without_matching_children(self, codec):
        result = get_elm_index(fragment(SPEAKERS, codec), "SPEAKER", "LINE", 1, 1)
        assert result.is_empty()


class TestElmText:
    def test_concatenates_in_document_order(self, codec):
        value = fragment("<a>1<b>2</b>3</a><c>4</c>", codec)
        assert elm_text(value) == "1234"

    def test_empty(self, codec):
        assert elm_text(XadtValue.empty(codec)) == ""

    def test_entities_decoded(self, codec):
        value = fragment("<a>fish &amp; chips</a>", codec)
        assert elm_text(value) == "fish & chips"


class TestCodecAgreement:
    """Plain fast-scan and dict event-walk must give identical answers."""

    FRAGMENTS = [
        SPEECH_LINES,
        SPEAKERS,
        "<a/>",
        "<a><a>nested same tag</a></a>",
        '<x attr="Rising">text</x>',
        "<L>fri<S>x</S>end</L>",  # keyword split by a nested element
    ]

    @pytest.mark.parametrize("xml", FRAGMENTS)
    def test_find_key_agreement(self, xml):
        for elm, key in [("L", "friend"), ("a", ""), ("", "Rising"), ("x", "text")]:
            if not elm and not key:
                continue
            plain = find_key_in_elm(XadtValue.from_xml(xml, PLAIN), elm, key)
            compressed = find_key_in_elm(XadtValue.from_xml(xml, DICT), elm, key)
            assert plain == compressed, (xml, elm, key)

    @pytest.mark.parametrize("xml", FRAGMENTS)
    def test_get_elm_agreement(self, xml):
        for root, elm, key in [("a", "", ""), ("L", "S", ""), ("x", "", "text")]:
            plain = get_elm(XadtValue.from_xml(xml, PLAIN), root, elm, key)
            compressed = get_elm(XadtValue.from_xml(xml, DICT), root, elm, key)
            assert plain.to_xml() == compressed.to_xml(), (xml, root, elm, key)

    def test_keyword_split_by_nested_element_matches_text_content(self):
        # 'friend' spans a nested STAGEDIR: text-content semantics match it
        value = XadtValue.from_xml("<L>fri<S>x</S>end</L>")
        assert find_key_in_elm(value, "L", "frixend") == 1
        assert find_key_in_elm(value, "L", "friend") == 0


# ---------------------------------------------------------------------------
# getElm against a DOM oracle: every level x codec x access path
# ---------------------------------------------------------------------------

ORACLE_TAGS = ("LIN", "LINE", "d")  # a prefix pair and a tag that nests
oracle_texts = st.sampled_from(("kiss", "lo", "ve", "a, b", " ", "x-y", "&"))
#: word keys, non-word keys, and keys that only occur across a child
#: boundary once the tags are stripped ("love", "s a")
oracle_keys = st.sampled_from(("", "kiss", "love", "lo", ", ", " ", "-", "s a", "&", "zz"))


@st.composite
def oracle_element(draw, depth=0):
    tag = draw(st.sampled_from(ORACLE_TAGS))
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        if depth < 3 and draw(st.booleans()):
            parts.append(draw(oracle_element(depth + 1)))
        else:
            parts.append(escape_text(draw(oracle_texts)))
    body = "".join(parts)
    return f"<{tag}>{body}</{tag}>" if body else f"<{tag}/>"


oracle_fragments = st.lists(oracle_element(), min_size=1, max_size=3).map("".join)


def oracle_get_elm(elements, root, search, key, level):
    """getElm over the DOM: the outermost ``root`` elements (top level if
    empty) that hold, within ``level`` levels (root itself is level 0,
    negative is unlimited), a ``search`` element (the root itself if
    empty) whose text content contains ``key``."""

    def outermost(siblings):
        for element in siblings:
            if not root or element.tag == root:
                yield element
            else:
                yield from outermost(element.child_elements())

    def within(element, depth):
        if level < 0 or depth <= level:
            yield element
            for child in element.child_elements():
                yield from within(child, depth + 1)

    def matches(candidate):
        if not search:
            return key in candidate.text_content()
        return any(
            key in element.text_content()
            for element in within(candidate, 0)
            if element.tag == search
        )

    return "".join(serialize(c) for c in outermost(elements) if matches(c))


@settings(max_examples=120, deadline=None)
@given(
    xml=oracle_fragments,
    root=st.sampled_from(("",) + ORACLE_TAGS),
    search=st.sampled_from(("",) + ORACLE_TAGS),
    key=st.one_of(st.just(""), oracle_keys),  # half the calls purely structural
)
def test_get_elm_matches_dom_oracle_at_every_level(xml, root, search, key):
    try:
        for codec in CODECS:
            value = XadtValue.from_xml(xml, codec)
            elements = value.to_elements()
            publish_fragment(value)
            for level in (-1, 0, 1, 2, 3):
                expected = oracle_get_elm(elements, root, search, key, level)
                for routed in (False, True):
                    with routing(routed):
                        got = get_elm(value, root, search, key, level).to_xml()
                    assert got == expected, (codec, level, routed)
    finally:
        XINDEX.clear()
        DECODE_CACHE.clear()
