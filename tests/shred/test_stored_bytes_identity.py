"""Slicing the source stores the bytes serializing would have stored.

``XadtValue.from_elements`` takes a parsed element's verbatim span where
there is one.  For every mapping ``load_documents`` accepts, shredding a
parsed document must give, row for row and byte for byte, what shredding
a *span-less twin* of the same tree gives — the twin is built through
the DOM constructors, so it goes the way every generated document goes.
"""

import re

import pytest

from repro.mapping import (
    map_basic,
    map_hybrid,
    map_shared,
    map_xorator,
    map_xorator_tuned,
    map_xorator_without_decoupling,
)
from repro.shred.loader import Shredder, decide_codecs
from repro.xadt import DICT, INDEXED, XadtValue
from repro.xmlkit import Comment, Element, ProcessingInstruction, Text, parse, serialize

MAPPERS = {
    "basic": map_basic,
    "shared": map_shared,
    "hybrid": map_hybrid,
    "xorator": map_xorator,
    "xorator-without-decoupling": map_xorator_without_decoupling,
    "xorator-tuned": lambda sdtd: map_xorator_tuned(
        sdtd, workload=["/PLAY//SUBTITLE", "/PP//author"]
    )[0],
}


def twin(node):
    """The same tree, built by hand: no element of it has a span."""
    if isinstance(node, Text):
        return Text(node.data)
    if isinstance(node, Comment):
        return Comment(node.data)
    if isinstance(node, ProcessingInstruction):
        return ProcessingInstruction(node.target, node.data)
    return Element(node.tag, node.attributes, [twin(child) for child in node.children])


def stored(rows):
    """Rows as what reaches the heap: XADT cells as (codec, payload)."""
    return {
        table: [
            tuple(
                (cell.codec, cell.payload) if isinstance(cell, XadtValue) else cell
                for cell in row
            )
            for row in table_rows
        ]
        for table, table_rows in rows.items()
    }


def roughen(text):
    """Canonical text respelled the ways the serializer never spells it:
    single quotes, spaced tags, comments and PIs holding markup, CDATA,
    ``<a></a>``, character references, a raw ``>``."""
    text = re.sub(r'="([^"\'<&]*)"', r"='\1'", text, count=40)
    text = re.sub(r"</(SPEAKER|author)>", r"</\1 >", text, count=25)
    text = re.sub(
        r"<(LINE|title)([^<>]*)>", r"<\1\2><!-- <\1>ghost</\1> -->", text, count=25
    )
    text = re.sub(
        r"<(STAGEDIR|initPage)>([^<&]*)<", r"<\1><![CDATA[\2]]><", text, count=25
    )
    text = re.sub(r"<(SUBHEAD|endPage)>", r"<\1><?pi <\1/> ?>", text, count=25)
    text = re.sub(r"<(\w+)/>", r"<\1></\1>", text, count=10)
    text = re.sub(r"(<(?:LINE|location)>[^<]*?) ", r"\1&#32;", text, count=25)
    text = re.sub(r"(<(?:P|LINE|conference)>[^<]*?) ", r"\1 > ", text, count=25)
    return text


SPELLINGS = {
    "canonical": serialize,
    "indented": lambda document: serialize(document, indent=2),
    "rough": lambda document: roughen(serialize(document)),
    "rough-indented": lambda document: roughen(serialize(document, indent=1)),
}


@pytest.fixture(scope="module", params=["shakespeare", "sigmod"])
def corpus(request):
    docs = request.getfixturevalue(f"{request.param}_docs")[:3]
    return request.getfixturevalue(f"{request.param}_simplified"), docs


@pytest.mark.parametrize("mapper", MAPPERS)
def test_span_and_twin_shred_to_the_same_bytes(corpus, mapper):
    sdtd, documents = corpus
    schema = MAPPERS[mapper](sdtd)
    for spelling, spell in SPELLINGS.items():
        parsed = [parse(spell(document)).root for document in documents]
        twins = [twin(root) for root in parsed]
        assert all(e.span is None for root in twins for e in root.iter())
        if spelling == "canonical":
            assert all(e.span is not None for root in parsed for e in root.iter())
        else:
            # the leaves of an odd spelling still slice
            assert all(root.span is None for root in parsed)
            assert any(e.span is not None for root in parsed for e in root.iter())
        chosen = decide_codecs(schema, parsed)
        assert chosen == decide_codecs(schema, twins)
        for codecs in (chosen, dict.fromkeys(chosen, DICT), dict.fromkeys(chosen, INDEXED)):
            sliced, written = Shredder(schema, codecs), Shredder(schema, codecs)
            for root, copy in zip(parsed, twins):
                assert stored(sliced.shred(root)) == stored(written.shred(copy))
            assert sliced.work == written.work


@pytest.mark.parametrize(
    "docs, markers",
    [
        ("shakespeare_docs", ["</SPEAKER >", "<!-- <LINE>", "<![CDATA[", "<?pi ", " > "]),
        ("sigmod_docs", ["='", "</author >", "<!-- <title>", "<![CDATA[", "<?pi ", " > "]),
    ],
)
def test_a_rough_spelling_is_rough(request, docs, markers):
    """``roughen`` keeps the document and changes the text."""
    document = request.getfixturevalue(docs)[0]
    rough = roughen(serialize(document))
    for marker in markers + ["&#32;"]:
        assert marker in rough, marker
    kept = parse(rough).root.text_content().replace(" > ", " ")
    assert kept == document.root.text_content()
