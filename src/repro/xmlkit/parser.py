"""Tree-building XML parser.

Builds a :class:`~repro.xmlkit.dom.Document` on the tokenizer's
scanner, enforcing well-formedness (matching tags, a single root element).
Whitespace-only text between elements can optionally be dropped, which the
shredders use so that pretty-printed input does not create phantom text
nodes.
"""

from __future__ import annotations

import os

from repro.errors import XmlSyntaxError
from repro.xmlkit import chars
from repro.xmlkit.dom import Comment, Document, Element, ProcessingInstruction, Text
from repro.xmlkit.serializer import write_attributes
from repro.xmlkit.tokens import (
    END,
    MASTER,
    START,
    TEXT,
    CommentEvent,
    DoctypeEvent,
    EndTag,
    PIEvent,
    StartTag,
    TextEvent,
    Tokenizer,
    parse_attributes,
)


def parse(text: str, keep_whitespace: bool = False) -> Document:
    """Parse ``text`` into a Document.

    ``keep_whitespace`` controls whether whitespace-only text nodes between
    elements are preserved.  Mixed-content whitespace adjacent to real text
    is always preserved.

    Runs the tokenizer's scanner itself rather than consuming its events:
    what :data:`~repro.xmlkit.tokens.MASTER` matches becomes a node
    directly, what it does not match is read by
    :meth:`Tokenizer.read_markup` and joins the same tree-building code.

    An element whose subtree the source already spells the way
    :func:`~repro.xmlkit.serializer.serialize` would gets its
    :attr:`Element.span`: every tag and text run in it came from
    ``MASTER`` and has exactly its canonical length, no whitespace-only
    text was dropped and no ``<a></a>`` stands for ``<a/>``.  Anything
    else — and everything ``read_markup`` reads — leaves the element and
    all its ancestors without one; its clean siblings keep theirs.
    """
    tokenizer = Tokenizer(text)
    prolog: list[Comment | ProcessingInstruction] = []
    doctype: str | None = None
    root: Element | None = None
    stack: list[Element] = []
    #: where each open element's start tag began, parallel to ``stack``
    starts: list[int] = []
    #: how many of the open elements, outermost first, are no longer
    #: verbatim (always a prefix of ``stack``: an ancestor of a
    #: non-verbatim element is non-verbatim)
    dirty = 0
    # the open element and its child list; None outside the root
    top: Element | None = None
    siblings: list = []
    match = MASTER.match
    new_element = Element._trusted
    new_text = Text._trusted
    is_whitespace = chars.is_whitespace
    unescape = chars.unescape
    escape_text = chars.escape_text
    pos = 0
    n = len(text)

    while pos < n:
        offset = pos
        found = match(text, pos)
        if found is not None:
            pos = found.end()
            kind = found.lastindex
            if kind == TEXT:
                data = found.group(1)
                if "&" in data:
                    raw = data
                    data = unescape(raw)
                    if escape_text(data) != raw:
                        dirty = len(stack)
                elif ">" in data:
                    dirty = len(stack)
            elif kind == END:
                name = found.group(2)
            else:
                name, raw, self_closing = found.group(3, 4, 5)
                # verbatim: no room for whitespace the serializer would
                # not write, and the attributes spelled its way
                verbatim = pos - offset == (
                    len(name) + len(raw) + len(self_closing) + 2
                )
                if raw:
                    attributes = parse_attributes(raw)
                    if attributes is None:
                        found = None  # a repeated name: _read_start_tag objects
                    elif verbatim:
                        verbatim = write_attributes(attributes) == raw
                else:
                    attributes = {}
        if found is None:
            event, pos = tokenizer.read_markup(offset)
            dirty = len(stack)
            verbatim = False
            if isinstance(event, StartTag):
                kind = START
                name, attributes = event.name, event.attributes
                self_closing = event.self_closing
            elif isinstance(event, EndTag):
                kind = END
                name = event.name
            elif isinstance(event, TextEvent):  # a CDATA section
                kind = TEXT
                data = event.data
            else:
                if isinstance(event, CommentEvent):
                    node = Comment(event.data)
                    if top is not None:
                        top.append(node)
                    elif root is None:
                        prolog.append(node)
                    # comments after the root are legal but rarely useful;
                    # drop them
                elif isinstance(event, PIEvent):
                    # the XML declaration carries no tree content
                    if event.target.lower() != "xml":
                        node = ProcessingInstruction(event.target, event.data)
                        if top is not None:
                            top.append(node)
                        elif root is None:
                            prolog.append(node)
                elif isinstance(event, DoctypeEvent):
                    if root is not None:
                        raise XmlSyntaxError(
                            "DOCTYPE must precede the root element", offset, text
                        )
                    doctype = event.raw
                continue

        if kind == TEXT:
            if top is None:
                if is_whitespace(data) or not data:
                    continue
                raise XmlSyntaxError("text outside the root element", offset, text)
            if not keep_whitespace and is_whitespace(data):
                dirty = len(stack)
                continue
            # Merge adjacent text nodes (CDATA next to character data).
            if siblings and type(siblings[-1]) is Text:
                siblings[-1].data += data
            else:
                siblings.append(new_text(data, top))
        elif kind == START:
            # both scanners hold names to the name rules, and a node this
            # fresh is nobody's ancestor: no Element.__init__, no append
            node = new_element(name, attributes, top)
            if top is not None:
                siblings.append(node)
            elif root is None:
                root = node
            else:
                raise XmlSyntaxError("multiple root elements", offset, text)
            if not self_closing:
                stack.append(node)
                starts.append(offset)
                top = node
                siblings = node.children
                if not verbatim:
                    dirty = len(stack)
            elif verbatim:
                node.source, node.start, node.end = text, offset, pos
            else:
                dirty = len(stack)
        else:
            if top is None:
                raise XmlSyntaxError(f"unexpected end tag </{name}>", offset, text)
            if top.tag != name:
                raise XmlSyntaxError(
                    f"mismatched end tag: expected </{top.tag}>, found </{name}>",
                    offset,
                    text,
                )
            stack.pop()
            start = starts.pop()
            depth = len(stack)
            if dirty > depth:
                dirty = depth  # the closed element was not verbatim
            elif siblings and pos - offset == len(name) + 3:
                top.source, top.start, top.end = text, start, pos
            else:
                dirty = depth  # ``<a></a>``, or a spaced end tag
            if stack:
                top = stack[-1]
                siblings = top.children
            else:
                top = None

    if top is not None:
        raise XmlSyntaxError(f"unclosed element <{top.tag}>", len(text), text)
    if root is None:
        raise XmlSyntaxError("document has no root element", 0, text)
    return Document(root, prolog=prolog, doctype=doctype)


def parse_fragment(text: str, keep_whitespace: bool = False) -> list[Element]:
    """Parse a fragment that may contain several sibling root elements.

    This is the grammar of XADT payloads (e.g. two ``<speaker>`` elements
    concatenated, paper Figure 9).  Returns the list of top-level elements.
    """
    wrapped = f"<fragment-root>{text}</fragment-root>"
    document = parse(wrapped, keep_whitespace=keep_whitespace)
    roots = document.root.child_elements()
    for node in roots:
        node.parent = None
    return roots


def parse_file(path: str | os.PathLike[str], keep_whitespace: bool = False) -> Document:
    """Parse the XML document stored at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read(), keep_whitespace=keep_whitespace)
