"""A small document object model for XML.

The model is deliberately minimal: elements, text, comments, and
processing instructions, with ordered attributes on elements.  It is the
currency between the parser, the serializer, the shredders, and the data
generators.  Nothing here depends on the parser, so generators can build
trees directly.

Mutator contract: a tree is changed only through :meth:`Element.append`,
:meth:`Element.extend` and :meth:`Element.set`.  Nothing outside this
module and the parser assigns ``children``, ``attributes`` or
``Text.data`` of a node that is already in a tree — a parsed element's
:attr:`Element.span` promises its serialization, and only the mutators
know to withdraw that promise.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import XmlError
from repro.xmlkit import chars


class Node:
    """Base class for all tree nodes."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Element | None = None


#: allocates a node without running any ``__init__`` (the ``_trusted``
#: constructors fill the slots themselves)
_new_node = object.__new__


class Text(Node):
    """A run of character data."""

    __slots__ = ("data",)

    def __init__(self, data: str) -> None:
        super().__init__()
        self.data = data

    @staticmethod
    def _trusted(data: str, parent: "Element") -> "Text":
        """The parser's constructor: a text node already under ``parent``
        (the caller files it in ``parent.children``)."""
        node = _new_node(Text)
        node.parent = parent
        node.data = data
        return node

    def __repr__(self) -> str:
        preview = self.data if len(self.data) <= 30 else self.data[:27] + "..."
        return f"Text({preview!r})"


class Comment(Node):
    """An XML comment.  Preserved so round-trips are faithful."""

    __slots__ = ("data",)

    def __init__(self, data: str) -> None:
        super().__init__()
        self.data = data

    def __repr__(self) -> str:
        return f"Comment({self.data!r})"


class ProcessingInstruction(Node):
    """A processing instruction such as ``<?xml-stylesheet ...?>``."""

    __slots__ = ("target", "data")

    def __init__(self, target: str, data: str) -> None:
        super().__init__()
        self.target = target
        self.data = data

    def __repr__(self) -> str:
        return f"ProcessingInstruction({self.target!r}, {self.data!r})"


class Element(Node):
    """An XML element with ordered attributes and child nodes."""

    #: ``source`` / ``start`` / ``end`` are the parser's verbatim span,
    #: read through :attr:`span`.  Three plain slots rather than one tuple:
    #: a tuple per element is one more object for the cyclic collector
    #: to count and visit, and that showed as ≈ 3 ms of collector time
    #: per 0.27 MB parsed.
    __slots__ = ("tag", "attributes", "children", "source", "start", "end")

    def __init__(
        self,
        tag: str,
        attributes: dict[str, str] | None = None,
        children: Iterable[Node | str] | None = None,
    ) -> None:
        super().__init__()
        if not chars.is_valid_name(tag):
            raise XmlError(f"invalid element name: {tag!r}")
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes or {})
        self.children: list[Node] = []
        self.source: str | None = None
        for child in children or ():
            self.append(child)

    @staticmethod
    def _trusted(
        tag: str, attributes: dict[str, str], parent: "Element | None"
    ) -> "Element":
        """The parser's constructor: no name check, no cycle walk.

        For a ``tag`` the tokenizer has already held to the name rules
        and a node so fresh it can be nobody's ancestor; takes ownership
        of ``attributes``.  The caller files the node in
        ``parent.children``.
        """
        node = _new_node(Element)
        node.parent = parent
        node.tag = tag
        node.attributes = attributes
        node.children = []
        node.source = None
        return node

    @property
    def span(self) -> tuple[str, int, int] | None:
        """``(source, start, end)`` when the parser knows, without
        serializing, that ``serialize(self) == source[start:end]``; None
        on every built or since-mutated tree."""
        source = self.source
        return None if source is None else (source, self.start, self.end)

    def _mutated(self) -> None:
        """Withdraw the verbatim span here and on every ancestor."""
        node: Element | None = self
        while node is not None:
            node.source = None
            node = node.parent

    def append(self, child: Node | str) -> Node:
        """Append ``child`` (a node, or a string which becomes a Text node)."""
        if isinstance(child, str):
            child = Text(child)
        if not isinstance(child, Node):
            raise XmlError(f"cannot append {type(child).__name__} to an element")
        if isinstance(child, Element):
            ancestor: Element | None = self
            while ancestor is not None:
                if ancestor is child:
                    raise XmlError("appending an element under itself creates a cycle")
                ancestor = ancestor.parent
        child.parent = self
        self.children.append(child)
        self._mutated()
        return child

    def extend(self, children: Iterable[Node | str]) -> None:
        for child in children:
            self.append(child)

    # -- navigation ---------------------------------------------------

    def child_elements(self) -> list["Element"]:
        """Direct child elements, in document order."""
        return [c for c in self.children if isinstance(c, Element)]

    def find(self, tag: str) -> "Element | None":
        """First direct child element named ``tag``, or None."""
        for child in self.children:
            if isinstance(child, Element) and child.tag == tag:
                return child
        return None

    def find_all(self, tag: str) -> list["Element"]:
        """All direct child elements named ``tag``."""
        return [c for c in self.children if isinstance(c, Element) and c.tag == tag]

    def iter(self, tag: str | None = None) -> Iterator["Element"]:
        """Depth-first iteration over this element and its descendants.

        With ``tag`` given, only matching elements are yielded.
        """
        if tag is None or self.tag == tag:
            yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter(tag)

    def descendants(self, tag: str | None = None) -> Iterator["Element"]:
        """Like :meth:`iter` but excluding this element itself."""
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter(tag)

    # -- text access --------------------------------------------------

    def direct_text(self) -> str:
        """Concatenation of this element's immediate Text children."""
        children = self.children
        if len(children) == 1 and type(children[0]) is Text:
            return children[0].data  # a leaf: what the shredder mostly asks
        return "".join([c.data for c in children if isinstance(c, Text)])

    def text_content(self) -> str:
        """Concatenation of all descendant text, in document order."""
        parts: list[str] = []
        self._collect_text(parts)
        return "".join(parts)

    def _collect_text(self, parts: list[str]) -> None:
        for child in self.children:
            if isinstance(child, Text):
                parts.append(child.data)
            elif isinstance(child, Element):
                child._collect_text(parts)

    # -- misc ----------------------------------------------------------

    def get(self, name: str, default: str | None = None) -> str | None:
        """Attribute lookup with a default."""
        return self.attributes.get(name, default)

    def set(self, name: str, value: str) -> None:
        if not chars.is_valid_name(name):
            raise XmlError(f"invalid attribute name: {name!r}")
        self.attributes[name] = str(value)
        self._mutated()

    def __repr__(self) -> str:
        return f"Element({self.tag!r}, {len(self.children)} children)"


class Document:
    """A parsed XML document: an optional prolog plus one root element."""

    __slots__ = ("root", "prolog", "doctype")

    def __init__(
        self,
        root: Element,
        prolog: list[Node] | None = None,
        doctype: str | None = None,
    ) -> None:
        if not isinstance(root, Element):
            raise XmlError("a document requires an Element root")
        self.root = root
        #: comments / processing instructions appearing before the root
        self.prolog: list[Node] = list(prolog or [])
        #: the raw text of the <!DOCTYPE ...> declaration, if present
        self.doctype = doctype

    def iter(self, tag: str | None = None) -> Iterator[Element]:
        return self.root.iter(tag)

    def __repr__(self) -> str:
        return f"Document(root={self.root.tag!r})"


def element(tag: str, *children: Node | str, **attributes: str) -> Element:
    """Convenience constructor used heavily by the data generators.

    >>> e = element("speech", element("speaker", "HAMLET"), kind="verse")
    >>> e.find("speaker").text_content()
    'HAMLET'
    """
    return Element(tag, attributes=attributes, children=list(children))
