"""Cross-codec parity of the XADT methods (hypothesis).

One scan kernel serves the plain, dict and indexed codecs; whatever the
codec, the decode cache's state or the degradation switch, every method
must answer with the same bytes.  Fragments are generated to hit what a
tag scan can get wrong: nested same-tag elements, tag names sharing a
prefix (``a``/``ab``), self-closing elements, attributes, and text that
needs escaping.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.faults import FAULTS, FaultPlan
from repro.errors import FaultInjected, XmlSyntaxError
from repro.xadt import (
    DICT,
    INDEXED,
    PLAIN,
    XadtValue,
    elm_equals,
    elm_text,
    find_key_in_elm,
    get_elm,
    get_elm_index,
    unnest_values,
)
from repro.xadt.decode_cache import DECODE_CACHE
from repro.xadt.storage import DEGRADATION, events_to_text, reset_degradation
from repro.xadt.structural_index import XINDEX, routing
from repro.xmlkit import parse, parse_fragment
from tests.xadt.test_structural_index import publish_fragment

TAGS = ("a", "ab", "b")
tags = st.sampled_from(TAGS)
maybe_tag = st.sampled_from(("",) + TAGS)
#: few distinct texts, so search keys and equality values actually occur
texts = st.sampled_from(("k", "x", "k x", "<k", "&", '"', "kk", "&lt;"))
keys = st.sampled_from(("", "k", "<", "&", '"', "k x", "kk", "lt"))
attributes = st.dictionaries(
    st.sampled_from(("id", "n")), st.text('k<&">/ ', max_size=4), max_size=2
)


@st.composite
def element_events(draw, depth):
    """The event list of one element (possibly empty: self-closing)."""
    tag = draw(tags)
    events = [("open", tag, draw(attributes))]
    after_text = False
    for _ in range(draw(st.integers(0, 3))):
        if depth > 0 and draw(st.booleans()):
            events.extend(draw(element_events(depth - 1)))
            after_text = False
        elif not after_text:  # adjacent text nodes would merge on re-parse
            events.append(("text", draw(texts)))
            after_text = True
    events.append(("close", tag))
    return events


@st.composite
def fragments(draw):
    """Canonical fragment text: one to three sibling elements."""
    events = []
    for _ in range(draw(st.integers(1, 3))):
        events.extend(draw(element_events(3)))
    return events_to_text(events)


calls = st.one_of(
    st.tuples(
        st.just(get_elm), maybe_tag, maybe_tag, keys, st.sampled_from((-1, 0, 1))
    ),
    st.tuples(st.just(find_key_in_elm), tags, keys),
    st.tuples(st.just(find_key_in_elm), st.just(""), keys.filter(bool)),
    st.tuples(
        st.just(get_elm_index), maybe_tag, tags,
        st.integers(1, 3), st.integers(1, 4),
    ),
    st.tuples(st.just(elm_equals), tags, st.one_of(texts, st.just("kx"))),
    st.tuples(st.just(elm_text)),
    st.tuples(st.just(unnest_values), maybe_tag),
)


def answer(call, xml_text, codec, publish=False):
    method, *args = call
    # a fresh value per call: nothing may ride on instance-level memos
    value = XadtValue.from_xml(xml_text, codec)
    if publish:
        publish_fragment(value)
    with routing(publish):
        result = method(value, *args)
    if isinstance(result, XadtValue):
        return result.to_xml()
    if isinstance(result, list):
        return [value.to_xml() for value in result]
    return result


def enabled():
    DECODE_CACHE.configure(enabled=True)


def disabled():
    DECODE_CACHE.configure(enabled=False)


def budget_zero():
    DECODE_CACHE.configure(budget_bytes=0, enabled=True)


def degraded():
    DECODE_CACHE.configure(enabled=True)
    reset_degradation(threshold=1)
    DEGRADATION.record_fault()
    assert DEGRADATION.active


def routed():
    """Each codec's value published to the structural-index store and the
    call made with routing on; held to the plain codec's scan answer."""
    DECODE_CACHE.configure(enabled=True)


@pytest.fixture(autouse=True)
def restore_cache_and_degradation():
    saved = (DECODE_CACHE.budget_bytes, DECODE_CACHE.enabled, DEGRADATION.threshold)
    yield
    FAULTS.clear()
    XINDEX.clear()
    DECODE_CACHE.configure(budget_bytes=saved[0], enabled=saved[1])
    DECODE_CACHE.clear()
    reset_degradation(threshold=saved[2])


@pytest.mark.parametrize(
    "regime", [enabled, disabled, budget_zero, degraded, routed]
)
@settings(max_examples=150, deadline=None)
@given(xml_text=fragments(), call=calls)
def test_every_codec_answers_with_the_same_bytes(regime, xml_text, call):
    regime()
    publish = regime is routed
    expected = answer(call, xml_text, PLAIN)
    try:
        if publish:
            assert answer(call, xml_text, PLAIN, publish) == expected
        assert answer(call, xml_text, DICT, publish) == expected
        assert answer(call, xml_text, INDEXED, publish) == expected
        # and again, now that whatever the regime caches is warm
        assert answer(call, xml_text, DICT, publish) == expected
    finally:
        if publish:
            XINDEX.clear()


@settings(max_examples=50, deadline=None)
@given(xml_text=fragments())
def test_results_are_slices_of_the_canonical_text(xml_text):
    DECODE_CACHE.configure(enabled=True)
    value = XadtValue.from_xml(xml_text, DICT)
    assert value.to_xml() == xml_text
    assert "".join(piece.to_xml() for piece in unnest_values(value)) == xml_text
    for tag in TAGS:
        for piece in unnest_values(value, tag):
            assert piece.to_xml() in xml_text


def test_decode_fault_surfaces_on_a_cache_hit():
    DECODE_CACHE.configure(enabled=True)
    reset_degradation(threshold=100)
    value = XadtValue.from_xml("<a><ab>k</ab><a>x</a></a>", DICT)
    assert get_elm(value, "ab").to_xml() == "<ab>k</ab>"  # miss: now cached
    hits = DECODE_CACHE.stats.hits
    assert unnest_values(value, "a")[0].to_xml() == value.scan_text()
    assert DECODE_CACHE.stats.hits > hits  # served from the cache
    FAULTS.install(FaultPlan().raise_at("xadt.decode", probability=1.0))
    fresh = XadtValue(value.payload, DICT)
    for access in (
        lambda: get_elm(fresh, "ab"),
        lambda: get_elm(fresh, "ab", "", "", 0),
        lambda: get_elm_index(fresh, "a", "ab", 1, 1),
        lambda: find_key_in_elm(fresh, "ab", "never asked before"),
        lambda: elm_equals(fresh, "ab", "k"),
        lambda: elm_text(fresh),
        lambda: unnest_values(fresh, "a"),
        fresh.to_xml,
        fresh.text,
    ):
        with pytest.raises(FaultInjected):
            access()
    assert not DEGRADATION.active


# ---------------------------------------------------------------------------
# valid but non-canonical input (the SQL xadt('…') builtin, coerce_fragment)
# ---------------------------------------------------------------------------

#: (source text, the canonical text every codec must hold)
NON_CANONICAL = [
    ('<a x="1>2">t</a><b>u</b>', '<a x="1&gt;2">t</a><b>u</b>'),
    ("<a x='1' y='say \"hi\"'>t</a>", '<a x="1" y="say &quot;hi&quot;">t</a>'),
    ("<a><!-- <b>no</b> -->t</a>", "<a>t</a>"),
    ("<a><![CDATA[<b>x</b>]]></a>", "<a>&lt;b&gt;x&lt;/b&gt;</a>"),
    ("<a><?pi <b/> ?>t</a><b></b>", "<a>t</a><b/>"),
]


@pytest.mark.parametrize("source, canonical", NON_CANONICAL)
def test_non_canonical_input_is_answered_the_same_under_every_codec(
    source, canonical
):
    values = [XadtValue.from_xml(source, codec) for codec in (PLAIN, DICT, INDEXED)]
    reference = XadtValue.from_xml(canonical, PLAIN)
    assert reference.payload == canonical  # canonical input stored unchanged
    for value in values:
        assert value.to_xml() == canonical
        assert value == reference and hash(value) == hash(reference)
        assert elm_text(value) == elm_text(reference)
        for tag in ("a", "b"):
            for key in ("", "t", "2", "x", "no"):
                assert find_key_in_elm(value, tag, key) == find_key_in_elm(
                    reference, tag, key
                ), (value.codec, tag, key)
            assert unnest_values(value, tag) == unnest_values(reference, tag)
            assert get_elm(value, tag, "", "", 0) == get_elm(reference, tag, "", "", 0)
    # what a scan of the source text got wrong
    assert find_key_in_elm(values[0], "a", "2") == 0
    assert find_key_in_elm(values[0], "b", "") == int("<b" in canonical)


def test_coerced_and_sql_constructed_fragments_are_canonical():
    source = '<a x="1>2">t</a><b>u</b>'
    assert elm_text(source) == "tu"
    assert find_key_in_elm(source, "a", "2") == 0
    from repro.engine.database import Database
    from repro.xadt import register_xadt_functions

    db = Database("canonical")
    register_xadt_functions(db)
    db.execute("CREATE TABLE t (id INTEGER, frag XADT)")
    db.execute("INSERT INTO t VALUES (1, xadt('<a><!-- <b>no</b> -->t</a>'))")
    rows = db.execute("SELECT findKeyInElm(frag, 'b', ''), elmText(frag) FROM t").rows
    assert rows == [(0, "t")]


@pytest.mark.parametrize("source, canonical", NON_CANONICAL)
def test_the_loaders_door_stores_the_canonical_text_too(source, canonical):
    """``from_elements`` is how the shredder makes fragments: a comment
    holding markup must not reach a text-codec payload, where the scan
    kernel takes every raw ``<`` for an element."""
    elements = parse_fragment(source, keep_whitespace=True)
    for codec in (PLAIN, DICT, INDEXED):
        value = XadtValue.from_elements(elements, codec)
        assert value.to_xml() == canonical
        assert value.payload == XadtValue.from_xml(source, codec).payload


def test_a_comment_holding_markup_is_no_element_under_any_codec():
    root = parse("<S><L>a<!-- <L>ghost</L> -->b</L><L><?p <L/> ?></L></S>").root
    for codec in (PLAIN, DICT, INDEXED):
        value = XadtValue.from_elements(root.find_all("L"), codec)
        assert value.to_xml() == "<L>ab</L><L/>"
        assert find_key_in_elm(value, "L", "ghost") == 0
        assert elm_text(value) == "ab"
        assert len(unnest_values(value, "L")) == 2


@pytest.mark.parametrize("codec", (PLAIN, DICT, INDEXED))
@pytest.mark.parametrize("broken", ["<a>", "<a></b>", "<a x=1>t</a>", "t</a>"])
def test_every_codec_rejects_malformed_text(codec, broken):
    with pytest.raises(XmlSyntaxError):
        XadtValue.from_xml(broken, codec)
