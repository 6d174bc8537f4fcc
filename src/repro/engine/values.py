"""Value semantics: comparisons, LIKE matching, and null handling.

The engine uses a pragmatic subset of SQL's three-valued logic: any
comparison involving NULL is *not true* (filters drop the row), and
NULLs group together in GROUP BY / DISTINCT, which matches the behaviour
the paper's queries rely on.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain

from repro.engine.types import is_xadt_value
from repro.errors import ExecutionError


def compare(op: str, left: object, right: object) -> bool:
    """Evaluate ``left op right`` with SQL semantics.

    ``op`` is one of ``= <> < <= > >=``.  NULL on either side yields
    False.  XADT values compare by their serialized text for equality
    only (ordering XML fragments is not meaningful).
    """
    if left is None or right is None:
        return False
    if is_xadt_value(left) or is_xadt_value(right):
        if op == "=":
            return _xadt_text(left) == _xadt_text(right)
        if op == "<>":
            return _xadt_text(left) != _xadt_text(right)
        raise ExecutionError(f"operator {op!r} is not defined for XADT values")
    left, right = _align(left, right)
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError as exc:
        raise ExecutionError(f"cannot compare {left!r} {op} {right!r}") from exc
    raise ExecutionError(f"unknown comparison operator {op!r}")


def _xadt_text(value: object) -> str:
    # fragments compare by their serialized XML (codec-insensitive)
    if is_xadt_value(value):
        return value.to_xml()  # type: ignore[attr-defined]
    return str(value)


def _align(left: object, right: object) -> tuple[object, object]:
    """Make int/str comparisons behave like SQL's implicit casts."""
    if isinstance(left, int) and isinstance(right, str):
        try:
            return left, int(right)
        except ValueError:
            return str(left), right
    if isinstance(left, str) and isinstance(right, int):
        try:
            return int(left), right
        except ValueError:
            return left, str(right)
    return left, right


# -- specialized comparison entry points ------------------------------------
#
# The generic compare() re-dispatches on the operator string per call;
# the expression compiler binds one of these once per plan instead.
# Semantics are identical to compare(op, ...) for the matching op.


def compare_eq(left: object, right: object) -> bool:
    if left is None or right is None:
        return False
    if is_xadt_value(left) or is_xadt_value(right):
        return _xadt_text(left) == _xadt_text(right)
    left, right = _align(left, right)
    return left == right


def compare_ne(left: object, right: object) -> bool:
    if left is None or right is None:
        return False
    if is_xadt_value(left) or is_xadt_value(right):
        return _xadt_text(left) != _xadt_text(right)
    left, right = _align(left, right)
    return left != right


def _ordered(op: str, left: object, right: object) -> bool:
    if is_xadt_value(left) or is_xadt_value(right):
        raise ExecutionError(f"operator {op!r} is not defined for XADT values")
    left, right = _align(left, right)
    try:
        if op == "<":
            return left < right  # type: ignore[operator]
        if op == "<=":
            return left <= right  # type: ignore[operator]
        if op == ">":
            return left > right  # type: ignore[operator]
        return left >= right  # type: ignore[operator]
    except TypeError as exc:
        raise ExecutionError(f"cannot compare {left!r} {op} {right!r}") from exc


def compare_lt(left: object, right: object) -> bool:
    if left is None or right is None:
        return False
    return _ordered("<", left, right)


def compare_le(left: object, right: object) -> bool:
    if left is None or right is None:
        return False
    return _ordered("<=", left, right)


def compare_gt(left: object, right: object) -> bool:
    if left is None or right is None:
        return False
    return _ordered(">", left, right)


def compare_ge(left: object, right: object) -> bool:
    if left is None or right is None:
        return False
    return _ordered(">=", left, right)


#: operator string -> specialized comparison function
COMPARE_FNS = {
    "=": compare_eq,
    "<>": compare_ne,
    "<": compare_lt,
    "<=": compare_le,
    ">": compare_gt,
    ">=": compare_ge,
}


@lru_cache(maxsize=512)
def _like_regex(pattern: str) -> re.Pattern[str]:
    """Translate a SQL LIKE pattern to a compiled regex.

    ``%`` matches any run (including empty), ``_`` matches one character.
    All other characters match literally.
    """
    out: list[str] = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out), re.DOTALL)


def like(value: object, pattern: str) -> bool:
    """SQL LIKE.  NULL input yields False; XADT matches on its text."""
    if value is None:
        return False
    text = _xadt_text(value) if is_xadt_value(value) else str(value)
    return _like_regex(pattern).fullmatch(text) is not None


def _like_text_test(pattern: str):
    """``text -> bool`` for ``pattern``: a plain ``str`` operation for the
    shapes ``lit``, ``lit%``, ``%lit`` and ``%lit%`` (no ``_``; runs of
    ``%`` match like one), the compiled regex for everything else."""
    core = pattern.strip("%")
    if "_" in core or "%" in core:
        match = _like_regex(pattern).fullmatch
        return lambda text: match(text) is not None
    leading, trailing = pattern.startswith("%"), pattern.endswith("%")
    if leading and trailing:
        return lambda text: core in text
    if trailing:
        return lambda text: text.startswith(core)
    if leading:
        return lambda text: text.endswith(core)
    return core.__eq__


def like_matcher(pattern: str, negated: bool = False):
    """A prebound LIKE predicate for ``pattern``.

    Semantically identical to ``like(value, pattern)`` (respectively
    ``value is not None and not like(value, pattern)`` when negated),
    but the pattern is resolved once at compile time — to a substring /
    prefix / suffix / equality test where its shape allows — instead of
    a regex ``fullmatch`` through the lru_cache on every row.
    """
    test = _like_text_test(pattern)

    def matcher(value: object) -> bool:
        if value is None:
            return False
        if type(value) is not str:
            value = _xadt_text(value)
        return test(value) is not negated

    return matcher


def group_key(value: object) -> object:
    """A hashable grouping key for DISTINCT / GROUP BY / hash joins.

    The reference semantics of :func:`batch_group_keys`.
    """
    if is_xadt_value(value):
        return ("\0xadt", _xadt_text(value))
    return value


#: exact types ``group_key`` maps to themselves
_PLAIN_KEY_TYPES = frozenset({int, str, float, bool, type(None)})


def batch_group_keys(raw_keys: list, composite: bool) -> list:
    """``group_key`` over a batch of raw keys — the key kernel.

    ``raw_keys`` holds one scalar per row, or with ``composite`` one
    tuple of key parts per row (rewritten part-wise).  ``group_key`` is
    the identity on int/str/float/NULL, so when the value types observed
    in the batch are all plain the input list itself is returned; only a
    batch holding anything else (an XADT fragment, wherever the planner
    typed the slot) takes the per-value reference path.
    """
    parts = chain.from_iterable(raw_keys) if composite else raw_keys
    if _PLAIN_KEY_TYPES.issuperset(map(type, parts)):
        return raw_keys
    if composite:
        return [tuple(map(group_key, key)) for key in raw_keys]
    return list(map(group_key, raw_keys))


def render(value: object) -> str:
    """Human-readable rendering for result tables."""
    if value is None:
        return "-"
    if is_xadt_value(value):
        return value.to_xml()  # type: ignore[attr-defined]
    return str(value)
