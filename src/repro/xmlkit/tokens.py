"""Streaming tokenizer for XML documents.

Turns a document string into a flat sequence of events (start tag, end
tag, text, comment, processing instruction, doctype).  The XADT codecs'
``text_to_events`` consumes the events; the tree-building parser runs
the same scanner but builds nodes straight from what it matches; the
XADT *methods* use a ``str.find`` scanner of their own
(``repro.xadt.fastscan``) so that fragment scans stay cheap.

One compiled regex, :data:`MASTER`, recognises at the current offset the
three tokens that make up more than 99 % of any document: a run of
character data, ``</name>``, and ``<name attr="v" ...>`` / ``/>`` with
ASCII names and quoted values free of ``<``.  It is a strict subset of
what the hand-written readers below accept, and whatever it does not
match at an offset — comments, CDATA, DOCTYPE, processing instructions,
non-ASCII names, duplicate or oddly spaced attributes, every malformed
input — is handed *at that offset* to :meth:`Tokenizer._read_markup`.
So the regex never decides that input is wrong: every well-formedness
check, error message and error offset is the per-character code's.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import XmlSyntaxError
from repro.xmlkit import chars


@dataclass(frozen=True)
class StartTag:
    name: str
    attributes: dict[str, str] = field(default_factory=dict)
    self_closing: bool = False
    offset: int = -1


@dataclass(frozen=True)
class EndTag:
    name: str
    offset: int = -1


@dataclass(frozen=True)
class TextEvent:
    data: str
    offset: int = -1


@dataclass(frozen=True)
class CommentEvent:
    data: str
    offset: int = -1


@dataclass(frozen=True)
class PIEvent:
    target: str
    data: str
    offset: int = -1


@dataclass(frozen=True)
class DoctypeEvent:
    #: full raw text between ``<!DOCTYPE`` and the closing ``>``
    raw: str
    offset: int = -1


Event = StartTag | EndTag | TextEvent | CommentEvent | PIEvent | DoctypeEvent

# The ASCII subset of chars.is_name_start_char / is_name_char, and
# chars.WHITESPACE.
_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_WS = r"[ \t\r\n]"
_VALUE = r"""(?:"[^<"]*"|'[^<']*')"""

#: group 1: character data; group 2: end-tag name; groups 3-5: start-tag
#: name, raw attribute text, ``/`` when self-closing.  ``lastindex`` is
#: 1, 2 or 5 accordingly.
MASTER = re.compile(
    rf"([^<]+)"
    rf"|</({_NAME}){_WS}*>"
    rf"|<({_NAME})((?:{_WS}+{_NAME}{_WS}*={_WS}*{_VALUE})*){_WS}*(/?)>"
)
# only ever run over a group 4 of MASTER, which has vetted the syntax
_ATTRIBUTES = re.compile(rf"""({_NAME}){_WS}*={_WS}*(?:"([^"]*)"|'([^']*)')""")

#: ``MASTER.match(...).lastindex`` of each token kind
TEXT, END, START = 1, 2, 5


def parse_attributes(raw: str) -> dict[str, str] | None:
    """The attributes in a start tag's raw attribute text, or None when
    a name repeats (the caller then lets ``_read_start_tag`` object)."""
    pairs = _ATTRIBUTES.findall(raw)
    attributes = {
        name: chars.unescape(double or single) for name, double, single in pairs
    }
    return attributes if len(attributes) == len(pairs) else None


class Tokenizer:
    """Single-pass tokenizer over an XML string."""

    def __init__(self, text: str) -> None:
        self._text = text
        self._pos = 0
        self._len = len(text)

    def _error(self, message: str, offset: int | None = None) -> XmlSyntaxError:
        return XmlSyntaxError(message, self._pos if offset is None else offset, self._text)

    def tokens(self) -> Iterator[Event]:
        """Yield all events until the end of input."""
        text = self._text
        n = self._len
        match = MASTER.match
        pos = self._pos
        while pos < n:
            found = match(text, pos)
            if found is not None:
                kind = found.lastindex
                if kind == TEXT:
                    data = found.group(1)
                    yield TextEvent(chars.unescape(data), pos)
                    pos = found.end()
                    continue
                if kind == END:
                    yield EndTag(found.group(2), pos)
                    pos = found.end()
                    continue
                name, raw, slash = found.group(3, 4, 5)
                attributes = parse_attributes(raw) if raw else {}
                if attributes is not None:
                    yield StartTag(name, attributes, slash == "/", pos)
                    pos = found.end()
                    continue
            event, pos = self.read_markup(pos)
            yield event

    def read_markup(self, offset: int) -> tuple[Event, int]:
        """The one markup token at ``offset``, read a character at a
        time, and the offset just behind it."""
        self._pos = offset
        event = self._read_markup()
        return event, self._pos

    # -- markup dispatch ------------------------------------------------

    def _read_markup(self) -> Event:
        text = self._text
        start = self._pos
        if text.startswith("<!--", start):
            return self._read_comment()
        if text.startswith("<![CDATA[", start):
            return self._read_cdata()
        if text.startswith("<!DOCTYPE", start):
            return self._read_doctype()
        if text.startswith("<?", start):
            return self._read_pi()
        if text.startswith("</", start):
            return self._read_end_tag()
        return self._read_start_tag()

    def _read_comment(self) -> CommentEvent:
        start = self._pos
        end = self._text.find("-->", start + 4)
        if end == -1:
            raise self._error("unterminated comment", start)
        data = self._text[start + 4:end]
        if "--" in data:
            raise self._error("'--' not allowed inside a comment", start)
        self._pos = end + 3
        return CommentEvent(data, start)

    def _read_cdata(self) -> TextEvent:
        start = self._pos
        end = self._text.find("]]>", start + 9)
        if end == -1:
            raise self._error("unterminated CDATA section", start)
        data = self._text[start + 9:end]
        self._pos = end + 3
        return TextEvent(data, start)

    def _read_doctype(self) -> DoctypeEvent:
        # The doctype may contain an internal subset in [...]; balance both
        # bracket kinds to find the closing '>'.
        start = self._pos
        i = start + len("<!DOCTYPE")
        depth = 0
        text = self._text
        n = self._len
        while i < n:
            ch = text[i]
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == ">" and depth == 0:
                raw = text[start + len("<!DOCTYPE"):i].strip()
                self._pos = i + 1
                return DoctypeEvent(raw, start)
            i += 1
        raise self._error("unterminated DOCTYPE declaration", start)

    def _read_pi(self) -> PIEvent:
        start = self._pos
        end = self._text.find("?>", start + 2)
        if end == -1:
            raise self._error("unterminated processing instruction", start)
        body = self._text[start + 2:end]
        parts = body.split(None, 1)
        if not parts:
            raise self._error("processing instruction requires a target", start)
        target = parts[0]
        data = parts[1] if len(parts) > 1 else ""
        self._pos = end + 2
        return PIEvent(target, data, start)

    def _read_end_tag(self) -> EndTag:
        start = self._pos
        self._pos = start + 2
        name = self._read_name()
        self._skip_whitespace()
        if self._pos >= self._len or self._text[self._pos] != ">":
            raise self._error(f"malformed end tag </{name}")
        self._pos += 1
        return EndTag(name, start)

    def _read_start_tag(self) -> StartTag:
        start = self._pos
        self._pos = start + 1
        name = self._read_name()
        attributes: dict[str, str] = {}
        while True:
            self._skip_whitespace()
            if self._pos >= self._len:
                raise self._error(f"unterminated start tag <{name}", start)
            ch = self._text[self._pos]
            if ch == ">":
                self._pos += 1
                return StartTag(name, attributes, False, start)
            if ch == "/":
                if not self._text.startswith("/>", self._pos):
                    raise self._error("expected '/>'")
                self._pos += 2
                return StartTag(name, attributes, True, start)
            attr_name = self._read_name()
            self._skip_whitespace()
            if self._pos >= self._len or self._text[self._pos] != "=":
                raise self._error(f"attribute {attr_name!r} requires '=value'")
            self._pos += 1
            self._skip_whitespace()
            value = self._read_attribute_value()
            if attr_name in attributes:
                raise self._error(f"duplicate attribute {attr_name!r} on <{name}>", start)
            attributes[attr_name] = value

    # -- low-level helpers ------------------------------------------------

    def _read_name(self) -> str:
        start = self._pos
        text = self._text
        if start >= self._len or not chars.is_name_start_char(text[start]):
            raise self._error("expected an XML name")
        i = start + 1
        n = self._len
        while i < n and chars.is_name_char(text[i]):
            i += 1
        self._pos = i
        return text[start:i]

    def _read_attribute_value(self) -> str:
        if self._pos >= self._len:
            raise self._error("expected an attribute value")
        quote = self._text[self._pos]
        if quote not in ("'", '"'):
            raise self._error("attribute values must be quoted")
        end = self._text.find(quote, self._pos + 1)
        if end == -1:
            raise self._error("unterminated attribute value")
        raw = self._text[self._pos + 1:end]
        if "<" in raw:
            raise self._error("'<' not allowed inside an attribute value")
        self._pos = end + 1
        return chars.unescape(raw)

    def _skip_whitespace(self) -> None:
        text = self._text
        n = self._len
        i = self._pos
        while i < n and text[i] in chars.WHITESPACE:
            i += 1
        self._pos = i


def tokenize(text: str) -> Iterator[Event]:
    """Convenience wrapper: iterate events of ``text``."""
    return Tokenizer(text).tokens()
