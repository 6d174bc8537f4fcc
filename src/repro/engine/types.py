"""SQL data types for the engine.

Three types cover the paper's schemas: INTEGER, VARCHAR, and the XADT
(the paper's XML abstract data type); DOUBLE exists for the telemetry
system views, which expose latencies.  Each type knows how to validate
and coerce Python values and how many bytes a value occupies on a page,
which drives the database/index size accounting behind Tables 1 and 2.

The engine does not import the XADT implementation (that would invert
the layering); it recognizes XADT values structurally via the
``__xadt__`` marker attribute that :class:`repro.xadt.fragment.XadtValue`
sets.
"""

from __future__ import annotations

from types import NoneType
from typing import Sequence

from repro.errors import TypeMismatchError

#: bytes of per-row header overhead (tuple header, null bitmap, rid slot)
ROW_OVERHEAD = 8
#: bytes of per-column overhead (offset entry in the tuple layout)
COLUMN_OVERHEAD = 2


_INT_MIN, _INT_MAX = -(2**31), 2**31 - 1


class SqlType:
    """Base class of SQL types.  Instances are stateless and reusable."""

    name = "TYPE"

    def validate(self, value: object) -> object:
        """Coerce ``value`` for storage, or raise TypeMismatchError.

        ``None`` is always accepted (NULL).
        """
        raise NotImplementedError

    def byte_width(self, value: object) -> int:
        """On-page width of ``value`` (0 for NULL: only the bitmap bit)."""
        raise NotImplementedError

    def batch_widths(self, values: Sequence[object]) -> list[int] | None:
        """``byte_width`` of each of a column's values, in one pass — or
        None unless every value is one :meth:`validate` would hand back
        unchanged.

        The column kernel of ``HeapTable.bulk_insert``.  It judges by the
        value types it observes; anything it has not seen the like of —
        a value to coerce, a value to reject, a subclass — is None, and
        the caller goes value by value through :meth:`validate`, which
        stays the definition of what a column accepts.
        """
        return None

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


class IntegerType(SqlType):
    """A 32-bit signed integer."""

    name = "INTEGER"

    def validate(self, value: object) -> object:
        if value is None:
            return None
        if isinstance(value, bool):
            raise TypeMismatchError("BOOLEAN is not valid for INTEGER columns")
        if isinstance(value, int):
            if not _INT_MIN <= value <= _INT_MAX:
                raise TypeMismatchError(f"integer out of 32-bit range: {value}")
            return value
        if isinstance(value, str) and value.lstrip("-").isdigit():
            try:
                number = int(value)
            except ValueError:
                # isdigit admits more than int() reads: "--5", "²"
                pass
            else:
                return self.validate(number)
        raise TypeMismatchError(f"cannot store {type(value).__name__} in INTEGER")

    def byte_width(self, value: object) -> int:
        return 0 if value is None else 4

    def batch_widths(self, values: Sequence[object]) -> list[int] | None:
        kinds = set(map(type, values))
        if not kinds <= {int, NoneType}:
            return None
        present = values
        if NoneType in kinds:
            present = [value for value in values if value is not None]
        if present and (min(present) < _INT_MIN or max(present) > _INT_MAX):
            return None
        if present is values:
            return [4] * len(values)
        return [0 if value is None else 4 for value in values]


class FloatType(SqlType):
    """A double-precision float (used by the sys.* telemetry views)."""

    name = "DOUBLE"

    def validate(self, value: object) -> object:
        if value is None:
            return None
        if isinstance(value, bool):
            raise TypeMismatchError("BOOLEAN is not valid for DOUBLE columns")
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                raise TypeMismatchError(f"cannot parse {value!r} as DOUBLE") from None
        raise TypeMismatchError(f"cannot store {type(value).__name__} in DOUBLE")

    def byte_width(self, value: object) -> int:
        return 0 if value is None else 8


class VarcharType(SqlType):
    """A variable-length string, optionally with a declared maximum."""

    name = "VARCHAR"

    def __init__(self, max_length: int | None = None) -> None:
        self.max_length = max_length

    def validate(self, value: object) -> object:
        if value is None:
            return None
        if isinstance(value, str):
            if self.max_length is not None and len(value) > self.max_length:
                raise TypeMismatchError(
                    f"string of length {len(value)} exceeds VARCHAR({self.max_length})"
                )
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return self.validate(str(value))
        raise TypeMismatchError(f"cannot store {type(value).__name__} in VARCHAR")

    def byte_width(self, value: object) -> int:
        if value is None:
            return 0
        return 2 + len(value.encode("utf-8"))

    def batch_widths(self, values: Sequence[object]) -> list[int] | None:
        kinds = set(map(type, values))
        if not kinds <= {str, NoneType}:
            return None
        present = values
        if NoneType in kinds:
            present = [value for value in values if value is not None]
        limit = self.max_length
        if limit is not None and present and max(map(len, present)) > limit:
            return None
        if not all(map(str.isascii, present)):
            try:
                return [self.byte_width(value) for value in values]
            except UnicodeEncodeError:  # a lone surrogate
                return None
        # ASCII: one byte per character, no need to encode to count them
        if present is values:
            return [2 + length for length in map(len, values)]
        return [0 if value is None else 2 + len(value) for value in values]

    def __repr__(self) -> str:
        if self.max_length is None:
            return "VARCHAR"
        return f"VARCHAR({self.max_length})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarcharType) and other.max_length == self.max_length

    def __hash__(self) -> int:
        return hash((VarcharType, self.max_length))


def is_xadt_value(value: object) -> bool:
    """True if ``value`` is an XADT fragment (structural check)."""
    return getattr(value, "__xadt__", False) is True


class XadtType(SqlType):
    """The paper's XML abstract data type.

    Values are :class:`~repro.xadt.fragment.XadtValue` instances; plain
    strings are accepted and passed through unconverted only when empty
    (NULL-ish), otherwise callers must construct proper fragments so the
    storage codec is explicit.
    """

    name = "XADT"

    def validate(self, value: object) -> object:
        if value is None:
            return None
        if is_xadt_value(value):
            return value
        raise TypeMismatchError(
            f"XADT columns require XadtValue instances, got {type(value).__name__}"
        )

    def byte_width(self, value: object) -> int:
        if value is None:
            return 0
        return 4 + value.byte_size()

    def batch_widths(self, values: Sequence[object]) -> list[int] | None:
        widths = []
        for value in values:
            if value is None:
                widths.append(0)
            elif is_xadt_value(value):
                widths.append(4 + value.byte_size())
            else:
                return None
        return widths


INTEGER = IntegerType()
DOUBLE = FloatType()
VARCHAR = VarcharType()
XADT = XadtType()


def type_from_name(name: str) -> SqlType:
    """Resolve a type name from DDL text (``VARCHAR(30)`` supported)."""
    text = name.strip().upper()
    if text == "INTEGER" or text == "INT":
        return INTEGER
    if text in ("DOUBLE", "FLOAT", "REAL"):
        return DOUBLE
    if text == "XADT":
        return XADT
    if text == "VARCHAR" or text == "STRING":
        return VARCHAR
    if text.startswith("VARCHAR(") and text.endswith(")"):
        inner = text[len("VARCHAR("):-1].strip()
        if not inner.isdigit():
            raise TypeMismatchError(f"bad VARCHAR length in {name!r}")
        return VarcharType(int(inner))
    raise TypeMismatchError(f"unknown SQL type {name!r}")
