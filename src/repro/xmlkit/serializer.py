"""Serialization of DOM trees back to XML text.

Two modes are provided: compact (no inserted whitespace, byte-faithful for
round trips) and indented (for human inspection and the examples).  The
XADT's uncompressed codec stores exactly the compact serialization, so
this module defines the canonical on-disk text for fragments.
"""

from __future__ import annotations

from repro.errors import XmlError
from repro.xmlkit.chars import escape_attribute, escape_text
from repro.xmlkit.dom import (
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)


def serialize(node: Node | Document, indent: int | None = None) -> str:
    """Serialize ``node`` to a string.

    ``indent=None`` produces compact output; an integer produces pretty
    output with that many spaces per level (text-bearing elements are kept
    on one line so mixed content is not corrupted).
    """
    parts: list[str] = []
    if isinstance(node, Document):
        for item in node.prolog:
            _write(item, parts, indent, 0)
            if indent is not None:
                parts.append("\n")
        _write(node.root, parts, indent, 0)
    else:
        _write(node, parts, indent, 0)
    return "".join(parts)


def serialize_children(element: Element) -> str:
    """Compact serialization of an element's children (not the element itself)."""
    parts: list[str] = []
    for child in element.children:
        _write(child, parts, None, 0)
    return "".join(parts)


def write_attributes(attributes: dict[str, str]) -> str:
    """The canonical attribute text of a start tag: `` name="value"``
    per attribute, in order, values escaped."""
    return "".join(
        [f' {name}="{escape_attribute(value)}"' for name, value in attributes.items()]
    )


def _write(node: Node, parts: list[str], indent: int | None, depth: int) -> None:
    if isinstance(node, Text):
        parts.append(escape_text(node.data))
    elif isinstance(node, Comment):
        parts.append(f"<!--{node.data}-->")
    elif isinstance(node, ProcessingInstruction):
        parts.append(f"<?{node.target} {node.data}?>" if node.data else f"<?{node.target}?>")
    elif isinstance(node, Element):
        _write_element(node, parts, indent, depth)
    else:
        raise XmlError(f"cannot serialize node of type {type(node).__name__}")


def _write_element(element: Element, parts: list[str], indent: int | None, depth: int) -> None:
    pad = "" if indent is None else " " * (indent * depth)
    parts.append(pad)
    parts.append(f"<{element.tag}")
    if element.attributes:
        parts.append(write_attributes(element.attributes))
    if not element.children:
        parts.append("/>")
        return
    parts.append(">")

    has_text = any(isinstance(c, Text) for c in element.children)
    if indent is None or has_text:
        # compact body: no whitespace inserted
        for child in element.children:
            _write(child, parts, None, 0)
        parts.append(f"</{element.tag}>")
    else:
        for child in element.children:
            parts.append("\n")
            _write(child, parts, indent, depth + 1)
        parts.append("\n")
        parts.append(pad)
        parts.append(f"</{element.tag}>")
