"""Character-level helpers for the XML toolkit.

Implements the XML 1.0 name rules (slightly simplified to the ASCII +
letter categories that the paper's data sets use), entity escaping and
unescaping, and whitespace helpers.  Kept free of any parser state so the
tokenizer, serializer, and XADT codecs can all share it.
"""

from __future__ import annotations

import re

# Characters that may start an XML name.  XML 1.0 allows a large set of
# Unicode letters; ``str.isalpha`` covers the letter categories and we add
# the two ASCII specials.
_NAME_START_EXTRA = {"_", ":"}
# Characters allowed after the first one.
_NAME_EXTRA = {"_", ":", "-", "."}

WHITESPACE = {" ", "\t", "\r", "\n"}

# The five predefined XML entities.
_ESCAPES = {
    "&": "&amp;",
    "<": "&lt;",
    ">": "&gt;",
    '"': "&quot;",
    "'": "&apos;",
}
_UNESCAPES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}


def is_name_start_char(ch: str) -> bool:
    """Return True if ``ch`` may start an XML name."""
    return ch.isalpha() or ch in _NAME_START_EXTRA


def is_name_char(ch: str) -> bool:
    """Return True if ``ch`` may appear in an XML name after the first char."""
    return ch.isalnum() or ch in _NAME_EXTRA


def is_valid_name(name: str) -> bool:
    """Return True if ``name`` is a syntactically valid XML name."""
    if not name:
        return False
    if not is_name_start_char(name[0]):
        return False
    return all(is_name_char(ch) for ch in name[1:])


def is_whitespace(text: str) -> bool:
    """Return True if ``text`` is non-empty and consists only of XML whitespace."""
    return bool(text) and not text.strip(" \t\r\n")


def escape_text(text: str) -> str:
    """Escape character data for inclusion between tags."""
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def escape_attribute(text: str) -> str:
    """Escape character data for inclusion inside a double-quoted attribute."""
    return escape_text(text).replace('"', "&quot;")


# ``&``, a body, ``;``.  A body holding another ``&`` can never expand
# (no entity name and no number contains one), so the pattern skips to
# the inner ``&`` and gives that one its turn: ``&x &amp;`` is ``&x &``.
_REFERENCE = re.compile(r"&([^;&]*);")


def _expand_reference(match: re.Match) -> str:
    body = match.group(1)
    if body in _UNESCAPES:
        return _UNESCAPES[body]
    try:
        if body.startswith(("#x", "#X")):
            return chr(int(body[2:], 16))
        if body.startswith("#"):
            return chr(int(body[1:]))
    except (ValueError, OverflowError):
        pass
    return match.group(0)


def unescape(text: str) -> str:
    """Expand the five predefined entities and numeric character references.

    Unknown entities are left untouched rather than raising: the paper's
    data sets occasionally carry entities we do not want to be strict about
    during benchmarking, and silently-preserved text is the least
    surprising behaviour for a storage engine.
    """
    if "&" not in text:
        return text
    return _REFERENCE.sub(_expand_reference, text)


def collapse_whitespace(text: str) -> str:
    """Collapse runs of XML whitespace to single spaces and strip the ends."""
    return " ".join(text.split())
