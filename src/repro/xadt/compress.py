"""XMill-inspired dictionary compression for XML fragments (paper §3.4.1).

Element tag names and attribute names are replaced by integer codes; a
small dictionary mapping codes back to names is stored *with each
fragment*.  That per-fragment dictionary is why compression loses on the
Shakespeare data set (tiny fragments, dictionary overhead dominates) and
wins ~38 % on the SIGMOD Proceedings data set (large fragments, long
repeated tag names) — exactly the trade-off the paper reports.

Binary layout::

    varint ndict, then ndict x (varint length, utf-8 name bytes)
    body opcodes:
      0x01 open  : varint tag_code, varint n_attrs,
                   n_attrs x (varint name_code, varint length, value bytes)
      0x02 close
      0x03 text  : varint length, utf-8 bytes

The event vocabulary shared with the plain codec:
``("open", tag, attrs)``, ``("close", tag)``, ``("text", data)``.

Two encoders write the format: :func:`encode_events` for an event stream
(fragment text goes through the tokenizer first) and
:func:`encode_elements`, the loader's, straight from a DOM subtree.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import XadtCodecError
from repro.xmlkit.dom import Element, Text

OPEN = 0x01
CLOSE = 0x02
TEXT = 0x03

Event = tuple  # ("open", tag, attrs) | ("close", tag) | ("text", data)


def write_varint(value: int, out: bytearray) -> None:
    """Append ``value`` as unsigned LEB128."""
    if value < 0:
        raise XadtCodecError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, position: int) -> tuple[int, int]:
    """Read a varint at ``position``; returns (value, next position)."""
    result = 0
    shift = 0
    while True:
        if position >= len(data):
            raise XadtCodecError("truncated varint")
        byte = data[position]
        position += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, position
        shift += 7
        if shift > 63:
            raise XadtCodecError("varint too long")


def encode_events(events: Iterable[Event]) -> bytes:
    """Compress an event stream into the dictionary format."""
    materialized = list(events)
    dictionary: dict[str, int] = {}

    def code_of(name: str) -> int:
        code = dictionary.get(name)
        if code is None:
            code = len(dictionary)
            dictionary[name] = code
        return code

    body = bytearray()
    depth = 0
    for event in materialized:
        kind = event[0]
        if kind == "open":
            _, tag, attrs = event
            body.append(OPEN)
            write_varint(code_of(tag), body)
            attrs = attrs or {}
            write_varint(len(attrs), body)
            for name, value in attrs.items():
                write_varint(code_of(name), body)
                raw = value.encode("utf-8")
                write_varint(len(raw), body)
                body.extend(raw)
            depth += 1
        elif kind == "close":
            if depth == 0:
                raise XadtCodecError("close event without matching open")
            body.append(CLOSE)
            depth -= 1
        elif kind == "text":
            raw = event[1].encode("utf-8")
            body.append(TEXT)
            write_varint(len(raw), body)
            body.extend(raw)
        else:
            raise XadtCodecError(f"unknown event kind {kind!r}")
    if depth != 0:
        raise XadtCodecError(f"{depth} unclosed element(s) in event stream")

    header = bytearray()
    write_varint(len(dictionary), header)
    for name in dictionary:  # insertion order == code order
        raw = name.encode("utf-8")
        write_varint(len(raw), header)
        header.extend(raw)
    return bytes(header + body)


def encode_elements(elements: Iterable[Element]) -> bytes:
    """Compress DOM elements straight into the dictionary format.

    Byte-identical to :func:`encode_events` over the tokenized canonical
    text of ``elements`` (what ``fragment._write_canonical`` writes),
    without writing or tokenizing that text: adjacent text nodes make one
    text event, empty text makes none, comments and processing
    instructions are dropped (the text on either side of one merges), and
    names get their codes in first-use order.
    """
    codes: dict[str, int] = {}
    body = bytearray()
    for element in elements:
        _encode_element(element, codes, body)
    out = bytearray()
    write_varint(len(codes), out)
    for name in codes:  # insertion order == code order
        raw = name.encode("utf-8")
        write_varint(len(raw), out)
        out += raw
    out += body
    return bytes(out)


def _encode_element(element: Element, codes: dict[str, int], body: bytearray) -> None:
    tag = element.tag
    code = codes.get(tag)
    if code is None:
        code = codes[tag] = len(codes)
    body.append(OPEN)
    write_varint(code, body)
    attributes = element.attributes
    write_varint(len(attributes), body)
    for name, value in attributes.items():
        code = codes.get(name)
        if code is None:
            code = codes[name] = len(codes)
        write_varint(code, body)
        raw = value.encode("utf-8")
        write_varint(len(raw), body)
        body += raw
    text = ""  # the run of character data not yet written
    for child in element.children:
        if isinstance(child, Element):
            if text:
                _encode_text(text, body)
                text = ""
            _encode_element(child, codes, body)
        elif isinstance(child, Text):
            text += child.data
        # comments / PIs: dropped, as the tokenizer drops them
    if text:
        _encode_text(text, body)
    body.append(CLOSE)


def _encode_text(text: str, body: bytearray) -> None:
    raw = text.encode("utf-8")
    body.append(TEXT)
    write_varint(len(raw), body)
    body += raw


def decode_events(payload: bytes) -> Iterator[Event]:
    """Decompress a payload back into the event stream."""
    ndict, position = read_varint(payload, 0)
    names: list[str] = []
    for _ in range(ndict):
        length, position = read_varint(payload, position)
        names.append(payload[position:position + length].decode("utf-8"))
        position += length

    stack: list[str] = []
    size = len(payload)
    while position < size:
        opcode = payload[position]
        position += 1
        if opcode == OPEN:
            code, position = read_varint(payload, position)
            n_attrs, position = read_varint(payload, position)
            attrs: dict[str, str] = {}
            for _ in range(n_attrs):
                name_code, position = read_varint(payload, position)
                length, position = read_varint(payload, position)
                attrs[_name(names, name_code)] = payload[
                    position:position + length
                ].decode("utf-8")
                position += length
            tag = _name(names, code)
            stack.append(tag)
            yield ("open", tag, attrs)
        elif opcode == CLOSE:
            if not stack:
                raise XadtCodecError("close opcode with empty stack")
            yield ("close", stack.pop())
        elif opcode == TEXT:
            length, position = read_varint(payload, position)
            yield ("text", payload[position:position + length].decode("utf-8"))
            position += length
        else:
            raise XadtCodecError(f"unknown opcode {opcode:#x}")
    if stack:
        raise XadtCodecError("payload ended with unclosed elements")


def _name(names: list[str], code: int) -> str:
    if code >= len(names):
        raise XadtCodecError(f"dictionary code {code} out of range")
    return names[code]
