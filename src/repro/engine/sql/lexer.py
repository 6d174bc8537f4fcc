"""SQL lexer.

Produces a token list for the parser.  Keywords are recognized
case-insensitively; identifiers keep their spelling.  String literals
use single quotes with ``''`` escaping; C-style ``--`` line comments are
skipped.

One compiled master pattern, :data:`_TOKEN`, walks the text: each
``match(sql, pos)`` skips the layout (whitespace and comments) before a
token and names the token's kind by the group it matched, so a statement
costs one regex call and one tuple per token.  Every token's
``position`` is the offset of its first character (a string literal's
opening quote).  Numbers are ASCII ``[0-9]+(.[0-9]+)?``; an identifier
starts with a character for which ``str.isalpha()`` holds or ``_`` and
continues with ``str.isalnum()`` characters or ``_`` (Python's ``\\w``);
anything else — a non-ASCII digit outside an identifier, say — raises
:class:`~repro.errors.SqlSyntaxError`.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import SqlSyntaxError

KEYWORDS = {
    "select", "distinct", "from", "where", "and", "or", "not", "like",
    "group", "order", "by", "having", "as", "table", "is", "null",
    "asc", "desc", "limit", "create", "index", "on", "insert", "into",
    "values", "primary", "key", "unique", "using", "drop", "between",
    "in",
}

#: layout, then one token; ``bad`` catches the first character no token
#: starts with (an unterminated quote included), ``eof`` the end
_TOKEN = re.compile(
    r"""
    (?:[ \t\r\n]+|--[^\n]*\n?)*
    (?:
        (?P<number>[0-9]+(?:\.[0-9]+)?)
      | (?P<word>\w+)
      | (?P<symbol><>|!=|<=|>=|[=<>(),.*+\-/;?])
      | (?P<string>'[^']*(?:''[^']*)*'(?!'))
      | "(?P<quoted>[^"]*)"
      | (?P<eof>\Z)
      | (?P<bad>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    kind: str   #: 'keyword' | 'ident' | 'number' | 'string' | 'symbol' | 'eof'
    text: str   #: keyword/symbol text is lower/canonical; ident keeps case
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == "keyword" and self.text == word

    def is_symbol(self, symbol: str) -> bool:
        return self.kind == "symbol" and self.text == symbol


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    pos = 0
    while True:
        found = match(sql, pos)
        kind = found.lastgroup
        text = found[kind]
        start = found.start(kind)
        pos = found.end()
        if kind == "word":
            if not (text[0].isalpha() or text[0] == "_"):
                raise _unexpected(text[0], start)
            word = text.lower()
            if word in KEYWORDS:
                append(Token("keyword", word, start))
            else:
                append(Token("ident", text, start))
        elif kind == "symbol":
            append(Token("symbol", "<>" if text == "!=" else text, start))
        elif kind == "number":
            append(Token("number", text, start))
        elif kind == "string":
            append(Token("string", text[1:-1].replace("''", "'"), start))
        elif kind == "quoted":
            # double-quoted identifier: preserves case, never a keyword
            append(Token("ident", text, start - 1))
        elif kind == "eof":
            append(Token("eof", "", start))
            return tokens
        elif text == "'":
            raise SqlSyntaxError(f"unterminated string literal at offset {start}")
        elif text == '"':
            raise SqlSyntaxError(f"unterminated quoted identifier at {start}")
        else:
            raise _unexpected(text, start)


def _unexpected(ch: str, offset: int) -> SqlSyntaxError:
    return SqlSyntaxError(f"unexpected character {ch!r} at offset {offset}")
