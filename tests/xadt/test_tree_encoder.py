"""The dict codec's tree encoder writes the bytes the text path writes.

``compress.encode_elements`` encodes a DOM subtree straight into the
dictionary format; the reference is ``encode_events(text_to_events(...))``
of the subtree's canonical text, which is how fragment text (``INSERT``,
``xadt()``, ``from_xml``) is still encoded.  Stored dict payloads must
not move by a byte.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.shakespeare import ShakespeareConfig
from repro.datagen.shakespeare import generate_corpus as shakespeare_corpus
from repro.datagen.sigmod import SigmodConfig
from repro.datagen.sigmod import generate_corpus as sigmod_corpus
from repro.dtd.parser import parse_dtd
from repro.dtd.simplify import simplify_dtd
from repro.xadt import DICT, XadtValue, compress, storage
from repro.xadt.fragment import _write_canonical
from repro.xmlkit import Comment, Element, ProcessingInstruction, Text, parse, serialize
from tests.test_properties import conforming_documents, elements, tree_dtds


def reference(element_list):
    """The text path: canonical text, tokenized, event-encoded."""
    parts = []
    for element in element_list:
        _write_canonical(element, parts)
    return compress.encode_events(storage.text_to_events("".join(parts)))


def subtrees(element):
    yield element
    for child in element.children:
        if isinstance(child, Element):
            yield from subtrees(child)


def assert_identical(element_list):
    assert compress.encode_elements(element_list) == reference(element_list)
    for element in element_list:
        for subtree in subtrees(element):
            assert compress.encode_elements([subtree]) == reference([subtree])


#: characters XML allows (the reference tokenizer rejects the others),
#: markup and escapes, non-ASCII and whitespace included
chars = st.characters(
    blacklist_categories=("Cs",),
    blacklist_characters="".join(map(chr, [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20)]))
    + "\ufffe\uffff",
)
texts = st.one_of(
    st.text(chars, max_size=12),
    st.text(st.sampled_from("ab &<>\"'\t\n\r;#é中"), max_size=12),
)
names = st.text(string.ascii_letters, min_size=1, max_size=6)


@st.composite
def built_elements(draw, depth=3):
    """A hand-built tree: adjacent and empty text nodes, comments and PIs
    between them, attribute values that need escaping."""
    node = Element(draw(names))
    for attribute in draw(st.lists(names, max_size=3, unique=True)):
        node.set(attribute, draw(texts))
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["text", "text", "comment", "pi", "element"]))
        if kind == "text":
            node.append(Text(draw(texts)))  # empty text included
        elif kind == "comment":
            node.append(Comment(draw(st.sampled_from(["", " <b>no</b> ", "x"]))))
        elif kind == "pi":
            node.append(ProcessingInstruction("p", draw(st.sampled_from(["", "<L/>"]))))
        elif depth > 0:
            node.append(draw(built_elements(depth=depth - 1)))
    return node


@given(st.lists(built_elements(), max_size=3))
@settings(max_examples=150, deadline=None)
def test_built_trees(element_list):
    assert_identical(element_list)


@given(st.lists(elements(depth=3), max_size=3))
@settings(max_examples=80, deadline=None)
def test_generated_elements_and_their_parsed_twins(element_list):
    assert_identical(element_list)
    for element in element_list:
        # the parsed copy carries verbatim spans the text path slices
        assert_identical([parse(serialize(element), keep_whitespace=True).root])


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_dtd_documents(data):
    sdtd = simplify_dtd(parse_dtd(data.draw(tree_dtds())), root="e0")
    root = data.draw(conforming_documents(sdtd, sdtd.root))
    assert_identical([root])
    assert_identical([parse(serialize(root)).root])


def test_generated_corpora():
    documents = shakespeare_corpus(ShakespeareConfig(plays=1)) + sigmod_corpus(
        SigmodConfig(documents=3)
    )
    for document in documents:
        assert_identical([document.root])
        assert_identical([parse(serialize(document)).root])


def test_long_names_texts_and_many_codes_take_multibyte_varints():
    root = Element("r", {"a" * 200: "v" * 300})
    for index in range(200):  # codes past 127
        root.append(Element(f"t{index}", {f"k{index}": "x"}, [Text("é" * 100)]))
    assert_identical([root])


def test_empty_fragment():
    assert compress.encode_elements([]) == reference([]) == b"\x00"
    assert XadtValue.from_elements([], DICT).payload == b"\x00"


def test_from_elements_uses_the_tree_for_dict_payloads():
    root = Element("a", {"q": '"<&>'}, [Text("x"), Comment("c"), Text("y"), Element("b")])
    value = XadtValue.from_elements([root], DICT)
    assert value.payload == reference([root])
    assert value.to_xml() == '<a q="&quot;&lt;&amp;&gt;">xy<b/></a>'
