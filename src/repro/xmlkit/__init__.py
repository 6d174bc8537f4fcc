"""XML toolkit substrate: DOM, tokenizer, parser, serializer.

This package replaces the IBM XML4J parser the paper used.  Everything is
implemented from scratch so that the shredders and the XADT control their
own cost profile (see DESIGN.md §2).
"""

from repro.xmlkit.dom import (
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
    element,
)
from repro.xmlkit.parser import parse, parse_file, parse_fragment
from repro.xmlkit.serializer import serialize, serialize_children

__all__ = [
    "Comment",
    "Document",
    "Element",
    "Node",
    "ProcessingInstruction",
    "Text",
    "element",
    "parse",
    "parse_file",
    "parse_fragment",
    "serialize",
    "serialize_children",
]
