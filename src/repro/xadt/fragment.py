"""The XADT value type.

An :class:`XadtValue` is an immutable XML fragment — zero or more sibling
elements — stored under one of the three codecs.  It is the value that XADT
columns hold, that the XADT methods take and return, and that ``unnest``
emits.  The engine recognizes it structurally via the ``__xadt__`` marker
(see :mod:`repro.engine.types`).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import XadtCodecError
from repro.xadt import fastscan, storage
from repro.xadt.storage import DICT, INDEXED, PLAIN
from repro.xmlkit.chars import escape_text
from repro.xmlkit.dom import Comment, Element, ProcessingInstruction, Text
from repro.xmlkit.parser import parse_fragment
from repro.xmlkit.serializer import write_attributes


class XadtValue:
    """An immutable XML fragment with an explicit storage codec."""

    __slots__ = ("codec", "payload", "_size", "_xml", "_directory")
    __xadt__ = True

    def __new__(cls, payload: str | bytes, codec: str = PLAIN) -> "XadtValue":
        if codec not in storage.CODECS:
            raise XadtCodecError(f"unknown codec {codec!r}")
        if codec in (PLAIN, INDEXED) and not isinstance(payload, str):
            raise XadtCodecError(f"{codec} payloads must be str")
        if codec == DICT and not isinstance(payload, bytes):
            raise XadtCodecError("dict payloads must be bytes")
        return cls._trusted(payload, codec)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("XadtValue is immutable")

    def __reduce__(self):
        # immutability breaks pickle's default protocol; rebuild from the
        # constructor (the Exchange workers receive and return rows pickled)
        return (XadtValue, (self.payload, self.codec))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_xml(
        cls, xml_text: str, codec: str = PLAIN, validate: bool = True
    ) -> "XadtValue":
        """Build a fragment from XML text.

        This is the one validating door: the text is parsed (an
        ``XmlSyntaxError`` under every codec), and the text codecs then
        store its canonical serialization — the form the dict codec
        decodes to, and the only one the fast scanner's assumptions hold
        for (every raw ``<`` starts an element tag, ``>`` is escaped in
        attribute values): comments, CDATA sections and quoting styles
        of the source do not survive.  Canonical input is stored
        unchanged.  Internal callers that construct payloads from the
        serializer pass ``validate=False``.
        """
        if validate and xml_text:
            parse_fragment(xml_text, keep_whitespace=True)
            if codec != DICT:
                xml_text = storage.events_to_text(storage.text_to_events(xml_text))
        return cls(storage.encode(xml_text, codec), codec)

    @classmethod
    def _trusted(cls, payload: str | bytes, codec: str) -> "XadtValue":
        """A value over a payload already known to fit ``codec``.

        Skips the constructor's codec/type checks; for payloads taken
        from, or sliced out of, an existing validated fragment.  The one
        place slots are filled (through their descriptors: the class
        rejects ``setattr``).
        """
        value = object.__new__(cls)
        _set_codec(value, codec)
        _set_payload(value, payload)
        _set_size(value, None)
        _set_xml(value, None if codec == DICT else payload)
        _set_directory(value, None)
        return value

    @classmethod
    def wrap_plain(cls, xml_text: str) -> "XadtValue":
        """A plain-codec value over already well-formed text (what the
        XADT methods return: slices of a validated fragment)."""
        return cls._trusted(xml_text, PLAIN)

    @classmethod
    def from_elements(
        cls, elements: Iterable[Element], codec: str = PLAIN
    ) -> "XadtValue":
        """Build a fragment from DOM elements (canonical fragment text).

        The loader's door.  An element the parser left a verbatim
        :attr:`~repro.xmlkit.dom.Element.span` on goes in as that slice
        of the source; any other element — every built tree, every
        subtree the source spelled differently — is written out.
        """
        parts: list[str] = []
        for element in elements:
            _write_canonical(element, parts)
        return cls._trusted(storage.encode("".join(parts), codec), codec)

    @classmethod
    def empty(cls, codec: str = PLAIN) -> "XadtValue":
        return cls.from_xml("", codec)

    # -- access ------------------------------------------------------------------

    def events(self) -> Iterator[storage.Event]:
        """The fragment's event stream (codec-transparent)."""
        return storage.text_to_events(self.scan_text())

    def scan_text(self) -> str:
        """The tagged text the scan kernel slices.

        The payload itself for the text codecs; for dict payloads the
        decode-cached canonical text, fetched through the ``xadt.decode``
        fault site on every call (never from this instance).
        """
        if self.codec == DICT:
            return storage.dict_payload_text(self.payload)  # type: ignore[arg-type]
        return self.payload  # type: ignore[return-value]

    def to_xml(self) -> str:
        """The fragment as XML text."""
        cached = self._xml
        if cached is None:
            cached = self.scan_text()
            _set_xml(self, cached)
        return cached

    def to_elements(self) -> list[Element]:
        """Parse the fragment into DOM elements."""
        return parse_fragment(self.to_xml(), keep_whitespace=True)

    def text(self) -> str:
        """Concatenated character content (document order)."""
        return fastscan.text_of(self.scan_text())

    def byte_size(self) -> int:
        """Stored size in bytes (drives the page accounting).

        The indexed codec pays for its span directory — the storage cost
        of the paper's §5 metadata proposal is charged honestly.
        """
        size = self._size
        if size is None:
            size = storage.payload_size(self.payload, self.codec)
            if self.codec == INDEXED:
                size += self.directory().byte_size()
            _set_size(self, size)
        return size

    def directory(self):
        """The element-span directory (indexed codec).

        Built once per payload, not per instance: directories are
        memoized process-wide (:mod:`repro.xadt.decode_cache`) keyed on
        the payload text, so values reconstructed from the same payload
        — e.g. a row an Exchange worker sent back — skip the rebuild.
        """
        from repro.xadt.decode_cache import DECODE_CACHE
        from repro.xadt.metadata import SpanDirectory

        cached = self._directory
        if cached is None:
            key = ("span-directory", self.payload)
            cached = DECODE_CACHE.get(key)
            if cached is None:
                cached = SpanDirectory.build(self.to_xml())
                DECODE_CACHE.put(key, cached, cached.byte_size())
            _set_directory(self, cached)
        return cached

    def is_empty(self) -> bool:
        return self.byte_size() == 0 or next(iter(self.events()), None) is None

    def recode(self, codec: str) -> "XadtValue":
        """The same fragment under another codec."""
        if codec == self.codec:
            return self
        return XadtValue.from_xml(self.to_xml(), codec, validate=False)

    # -- value semantics ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XadtValue):
            return NotImplemented
        return self.to_xml() == other.to_xml()

    def __hash__(self) -> int:
        return hash(self.to_xml())

    def __repr__(self) -> str:
        preview = self.to_xml()
        if len(preview) > 48:
            preview = preview[:45] + "..."
        return f"XadtValue({self.codec}, {preview!r})"


def _write_canonical(element: Element, parts: list[str]) -> None:
    """Append ``element`` as ``events_to_text(text_to_events(...))`` of
    its compact serialization would spell it: comments and processing
    instructions dropped, an element left without content self-closed —
    the text the scan kernel's assumptions hold for, identical under all
    three codecs."""
    source = element.source
    if source is not None:  # the verbatim span: nothing to write
        parts.append(source[element.start:element.end])
        return
    tag = element.tag
    attributes = element.attributes
    parts.append(f"<{tag}{write_attributes(attributes)}>" if attributes else f"<{tag}>")
    opened = len(parts)
    for child in element.children:
        if isinstance(child, Element):
            _write_canonical(child, parts)
        elif isinstance(child, Text) and child.data:
            parts.append(escape_text(child.data))
    if len(parts) == opened:
        parts[-1] = parts[-1][:-1] + "/>"
    else:
        parts.append(f"</{tag}>")


_set_codec, _set_payload, _set_size, _set_xml, _set_directory = (
    vars(XadtValue)[slot].__set__ for slot in XadtValue.__slots__
)


def coerce_fragment(value: object) -> XadtValue:
    """Accept an XadtValue, fragment text, DOM element(s), or None."""
    if value is None:
        return XadtValue.empty()
    if isinstance(value, XadtValue):
        return value
    if isinstance(value, str):
        return XadtValue.from_xml(value)
    if isinstance(value, Element):
        return XadtValue.from_elements([value])
    if isinstance(value, (list, tuple)) and all(
        isinstance(item, Element) for item in value
    ):
        return XadtValue.from_elements(list(value))
    if isinstance(value, (Text, Comment, ProcessingInstruction)):
        raise XadtCodecError("XADT fragments contain elements, not bare nodes")
    raise XadtCodecError(f"cannot coerce {type(value).__name__} to an XADT fragment")
