"""The reference SQL lexer and cache-key normalizer, for tests.

:func:`tokenize` and :func:`normalize_sql` walk the text one character
at a time, the way the engine's front end once did.  The engine never
runs them: :mod:`repro.engine.sql.lexer` lexes with one master regex and
:func:`repro.engine.plan_cache.normalize_sql` is one regex substitution,
and ``test_reference_lexer.py`` diffs both against this reference over
generated text — tokens, positions, error classes and cache keys alike.

The reference spells out the lexical rules: numbers are ASCII
``[0-9]+(.[0-9]+)?``; an identifier starts with ``str.isalpha()`` or
``_`` and continues with ``str.isalnum()`` or ``_``; a string token's
position is its opening quote.
"""

from __future__ import annotations

from repro.engine.sql.lexer import KEYWORDS, Token
from repro.errors import SqlSyntaxError

SYMBOLS = (
    "<>", "!=", "<=", ">=", "=", "<", ">", "(", ")", ",", ".", "*",
    "+", "-", "/", ";", "?",
)

_DIGITS = "0123456789"


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch == "'":
            start = i
            text, i = _read_string(sql, i)
            tokens.append(Token("string", text, start))
            continue
        if ch == '"':
            # double-quoted identifier: preserves case, never a keyword
            end = sql.find('"', i + 1)
            if end == -1:
                raise SqlSyntaxError(f"unterminated quoted identifier at {i}")
            tokens.append(Token("ident", sql[i + 1:end], i))
            i = end + 1
            continue
        if ch in _DIGITS:
            start = i
            while i < n and sql[i] in _DIGITS:
                i += 1
            if i < n and sql[i] == "." and i + 1 < n and sql[i + 1] in _DIGITS:
                i += 1
                while i < n and sql[i] in _DIGITS:
                    i += 1
            tokens.append(Token("number", sql[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i]
            if word.lower() in KEYWORDS:
                tokens.append(Token("keyword", word.lower(), start))
            else:
                tokens.append(Token("ident", word, start))
            continue
        matched = False
        for symbol in SYMBOLS:
            if sql.startswith(symbol, i):
                canonical = "<>" if symbol == "!=" else symbol
                tokens.append(Token("symbol", canonical, i))
                i += len(symbol)
                matched = True
                break
        if not matched:
            raise SqlSyntaxError(f"unexpected character {ch!r} at offset {i}")
    tokens.append(Token("eof", "", n))
    return tokens


def _read_string(sql: str, start: int) -> tuple[str, int]:
    """Read a single-quoted string starting at ``start``; handles ''."""
    parts: list[str] = []
    i = start + 1
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'":
            if i + 1 < n and sql[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise SqlSyntaxError(f"unterminated string literal at offset {start}")


def normalize_sql(sql: str) -> str:
    """The plan-cache key for ``sql``: whitespace/comment-insensitive
    text, with quoted bodies preserved byte for byte."""
    parts: list[str] = []
    pending_space = False
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch in " \t\r\n":
            pending_space = True
            i += 1
            continue
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            pending_space = True
            continue
        if pending_space and parts:
            parts.append(" ")
        pending_space = False
        if ch == "'":
            j = i + 1
            while j < n:
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        j += 2
                        continue
                    break
                j += 1
            end = min(j + 1, n)
            parts.append(sql[i:end])
            i = end
            continue
        if ch == '"':
            j = sql.find('"', i + 1)
            end = n if j == -1 else j + 1
            parts.append(sql[i:end])
            i = end
            continue
        parts.append(ch)
        i += 1
    text = "".join(parts)
    while text.endswith(";") or text.endswith(" "):
        text = text[:-1]
    return text
