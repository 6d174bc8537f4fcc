"""Abstract syntax for DTD content models and declarations.

A content model is a tree of *particles*; each particle carries an
occurrence indicator.  ``<!ELEMENT SPEECH (SPEAKER, LINE)+>`` becomes::

    Sequence([NameRef('SPEAKER'), NameRef('LINE')], occurrence=PLUS)

Mixed content ``(#PCDATA | STAGEDIR)*`` becomes a Choice containing a
PCData particle.  The simplifier (repro.dtd.simplify) reduces these trees
to the flat per-element child lists the paper's Figure 2 shows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator


class Occurrence(enum.Enum):
    """The DTD occurrence indicators."""

    ONE = ""      #: exactly one
    OPT = "?"     #: zero or one
    STAR = "*"    #: zero or more
    PLUS = "+"    #: one or more

    def is_repeating(self) -> bool:
        return self in (Occurrence.STAR, Occurrence.PLUS)


def combine_occurrence(outer: Occurrence, inner: Occurrence) -> Occurrence:
    """Collapse nested indicators (the paper's *simplification* rule).

    ``e**``, ``e*+``, ``e+*`` ... all become ``e*``; ``e??`` stays ``?``;
    anything combined with ONE is unchanged.
    """
    if outer is Occurrence.ONE:
        return inner
    if inner is Occurrence.ONE:
        return outer
    if outer.is_repeating() or inner.is_repeating():
        return Occurrence.STAR
    return Occurrence.OPT


class Particle:
    """Base class of content-model particles."""

    occurrence: Occurrence

    def names(self) -> Iterator[str]:
        """All element names mentioned anywhere in this particle."""
        raise NotImplementedError

    def mentions_pcdata(self) -> bool:
        raise NotImplementedError


@dataclass
class PCData(Particle):
    """The ``#PCDATA`` token."""

    occurrence: Occurrence = Occurrence.ONE

    def names(self) -> Iterator[str]:
        return iter(())

    def mentions_pcdata(self) -> bool:
        return True

    def __str__(self) -> str:
        return "#PCDATA" + self.occurrence.value


@dataclass
class NameRef(Particle):
    """A reference to a child element by name."""

    name: str
    occurrence: Occurrence = Occurrence.ONE

    def names(self) -> Iterator[str]:
        yield self.name

    def mentions_pcdata(self) -> bool:
        return False

    def __str__(self) -> str:
        return self.name + self.occurrence.value


@dataclass
class Sequence(Particle):
    """An ordered group ``(a, b, c)``."""

    items: list[Particle] = field(default_factory=list)
    occurrence: Occurrence = Occurrence.ONE

    def names(self) -> Iterator[str]:
        for item in self.items:
            yield from item.names()

    def mentions_pcdata(self) -> bool:
        return any(item.mentions_pcdata() for item in self.items)

    def __str__(self) -> str:
        inner = ", ".join(str(i) for i in self.items)
        return f"({inner}){self.occurrence.value}"


@dataclass
class Choice(Particle):
    """An alternation group ``(a | b | c)``."""

    items: list[Particle] = field(default_factory=list)
    occurrence: Occurrence = Occurrence.ONE

    def names(self) -> Iterator[str]:
        for item in self.items:
            yield from item.names()

    def mentions_pcdata(self) -> bool:
        return any(item.mentions_pcdata() for item in self.items)

    def __str__(self) -> str:
        inner = " | ".join(str(i) for i in self.items)
        return f"({inner}){self.occurrence.value}"


class ContentKind(enum.Enum):
    """The four kinds of element content in XML 1.0."""

    EMPTY = "EMPTY"
    ANY = "ANY"
    MIXED = "MIXED"      #: (#PCDATA | a | b)* or (#PCDATA)
    CHILDREN = "CHILDREN"


@dataclass
class ElementDecl:
    """``<!ELEMENT name content>``."""

    name: str
    kind: ContentKind
    #: None for EMPTY/ANY; the particle tree otherwise
    content: Particle | None = None

    def child_names(self) -> list[str]:
        if self.content is None:
            return []
        seen: list[str] = []
        for name in self.content.names():
            if name not in seen:
                seen.append(name)
        return seen

    def has_pcdata(self) -> bool:
        if self.kind is ContentKind.ANY:
            return True
        return self.content is not None and self.content.mentions_pcdata()

    def __str__(self) -> str:
        if self.kind in (ContentKind.EMPTY, ContentKind.ANY):
            body = self.kind.value
        else:
            body = str(self.content)
        return f"<!ELEMENT {self.name} {body}>"


class AttributeDefault(enum.Enum):
    """Attribute default kinds from ``<!ATTLIST>``."""

    REQUIRED = "#REQUIRED"
    IMPLIED = "#IMPLIED"
    FIXED = "#FIXED"
    VALUE = "VALUE"  #: a literal default


@dataclass
class AttributeDecl:
    """A single attribute definition inside an ``<!ATTLIST>``."""

    element: str
    name: str
    #: the declared type, e.g. CDATA, ID, IDREF, NMTOKEN, or an enumeration
    attr_type: str
    default: AttributeDefault = AttributeDefault.IMPLIED
    default_value: str | None = None
    #: enumeration values when attr_type is an enumerated type
    enumeration: tuple[str, ...] = ()


@dataclass
class Dtd:
    """A parsed DTD: element declarations plus attribute declarations."""

    elements: dict[str, ElementDecl] = field(default_factory=dict)
    #: attributes[element_name] -> ordered list of attribute declarations
    attributes: dict[str, list[AttributeDecl]] = field(default_factory=dict)
    #: parameter entities seen while parsing (name -> replacement text)
    parameter_entities: dict[str, str] = field(default_factory=dict)

    def element(self, name: str) -> ElementDecl:
        return self.elements[name]

    def attributes_of(self, name: str) -> list[AttributeDecl]:
        return self.attributes.get(name, [])

    def element_names(self) -> list[str]:
        return list(self.elements)

    def root_candidates(self) -> list[str]:
        """Element names never referenced as a child of another element."""
        referenced: set[str] = set()
        for decl in self.elements.values():
            referenced.update(decl.child_names())
        return [name for name in self.elements if name not in referenced]

    def __str__(self) -> str:
        return "\n".join(str(d) for d in self.elements.values())
