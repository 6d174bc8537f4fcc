"""Expression AST and name binding.

Expressions appear in SELECT lists, WHERE clauses, GROUP BY keys, table
function arguments, and ORDER BY keys.  The planner resolves column
references against a :class:`Binding` (the flat slot layout of an
operator's output); :mod:`repro.engine.expr_compile` compiles each
expression once into a batch function over row tuples.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import ClassVar, Iterator

from repro.engine.types import SqlType
from repro.engine.udf import AGGREGATE_NAMES
from repro.errors import ExecutionError, PlanError


class Expr:
    """Base class of expression nodes.

    ``CHILDREN`` names the fields that hold sub-expressions (an ``Expr``,
    or a tuple of them), once per class: :meth:`children`,
    :func:`walk_exprs`, :meth:`column_refs` and the planner's rebuilds
    all read the tree's shape from it.  Every other field is a scalar.
    """

    CHILDREN: ClassVar[tuple[str, ...]] = ()

    def children(self) -> list["Expr"]:
        """The direct sub-expressions, in field order."""
        out: list[Expr] = []
        for name in self.CHILDREN:
            value = getattr(self, name)
            if type(value) is tuple:
                out.extend(value)
            else:
                out.append(value)
        return out

    def column_refs(self) -> Iterator["ColumnRef"]:
        """All column references in this subtree, left to right."""
        return (node for node in walk_exprs(self) if type(node) is ColumnRef)

    def sql(self) -> str:
        """Render back to SQL-ish text (for EXPLAIN and error messages)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expr):
    value: object

    def sql(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if self.value is None:
            return "NULL"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    qualifier: str | None
    name: str

    def sql(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` — only valid inside COUNT(*)."""

    def sql(self) -> str:
        return "*"


@dataclass(frozen=True)
class Parameter(Expr):
    """A ``?`` marker of a prepared statement.

    Markers are numbered left-to-right by the parser; compilation turns
    each into a slot lookup in the plan's shared :class:`ParamBox`, so a
    cached plan re-runs against fresh bind values without recompiling.
    """

    index: int

    def sql(self) -> str:
        return "?"


#: value kinds a parameter may bind to (mirrors the engine's SQL types;
#: XADT fragments qualify structurally via the ``__xadt__`` marker)
_BINDABLE = (bool, int, float, str, bytes)


class ParamBox:
    """The mutable bind-value array shared by a plan's Parameter closures.

    One box is created per cached plan; ``bind()`` swaps in a new tuple
    of values before each execution, and the compiled closures read the
    current tuple by index at evaluation time.

    The installed tuple is *thread-local*: cached plans are shared by
    every session of a database, and two sessions replaying the same
    plan from different threads must not clobber each other's bind
    values mid-execution.  Each thread binds and reads its own tuple;
    the compiled closures go through the ``values`` property unchanged.
    """

    __slots__ = ("count", "_local")

    def __init__(self, count: int) -> None:
        self.count = count
        self._local = threading.local()

    @property
    def values(self) -> tuple:
        return getattr(self._local, "values", ())

    @values.setter
    def values(self, values: tuple) -> None:
        self._local.values = values

    def bind(self, values: tuple | list) -> None:
        """Validate and install bind values for the next execution."""
        if len(values) != self.count:
            raise ExecutionError(
                f"statement takes {self.count} parameter(s), got {len(values)}"
            )
        for position, value in enumerate(values):
            if value is None or isinstance(value, _BINDABLE):
                continue
            if getattr(type(value), "__xadt__", False):
                continue
            raise ExecutionError(
                f"parameter {position + 1} has unsupported type "
                f"{type(value).__name__}; bind NULL, a number, a string, "
                f"or an XADT fragment"
            )
        self.values = tuple(values)


def walk_exprs(expr: Expr) -> Iterator[Expr]:
    """Every node of an expression tree (pre-order, left to right)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str
    args: tuple[Expr, ...]
    distinct: bool = False

    CHILDREN = ("args",)

    def is_aggregate(self) -> bool:
        return self.name.lower() in AGGREGATE_NAMES

    def sql(self) -> str:
        inner = ", ".join(a.sql() for a in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class Comparison(Expr):
    op: str  #: one of = <> < <= > >=
    left: Expr
    right: Expr

    CHILDREN = ("left", "right")

    def sql(self) -> str:
        return f"{self.left.sql()} {self.op} {self.right.sql()}"


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: str
    negated: bool = False

    CHILDREN = ("operand",)

    def sql(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        escaped = self.pattern.replace("'", "''")
        return f"{self.operand.sql()} {keyword} '{escaped}'"


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    CHILDREN = ("operand",)

    def sql(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand.sql()} {keyword}"


@dataclass(frozen=True)
class And(Expr):
    items: tuple[Expr, ...]

    CHILDREN = ("items",)

    def sql(self) -> str:
        return " AND ".join(f"({item.sql()})" for item in self.items)


@dataclass(frozen=True)
class Or(Expr):
    items: tuple[Expr, ...]

    CHILDREN = ("items",)

    def sql(self) -> str:
        return " OR ".join(f"({item.sql()})" for item in self.items)


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    CHILDREN = ("operand",)

    def sql(self) -> str:
        return f"NOT ({self.operand.sql()})"


@dataclass(frozen=True)
class Arithmetic(Expr):
    op: str  #: one of + - * /
    left: Expr
    right: Expr

    CHILDREN = ("left", "right")

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


@dataclass(frozen=True)
class Negate(Expr):
    operand: Expr

    CHILDREN = ("operand",)

    def sql(self) -> str:
        return f"-({self.operand.sql()})"


@dataclass(frozen=True)
class SlotRef(Expr):
    """Planner-internal direct slot reference (aggregate substitution)."""

    index: int

    def sql(self) -> str:
        return f"$${self.index}"


# ---------------------------------------------------------------------------
# name binding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Slot:
    """One output column of a physical operator."""

    qualifier: str  #: table alias (lower case)
    name: str       #: column name as declared
    sql_type: SqlType
    #: the values are a base table's stored column, which storage has
    #: validated against ``sql_type`` (``io.row_bytes_kernel`` trusts it)
    stored: bool = field(default=False, compare=False)

    @property
    def key(self) -> str:
        return self.name.lower()


@dataclass
class Binding:
    """The flat slot layout an expression is compiled against."""

    slots: list[Slot] = field(default_factory=list)

    def extend(self, other: "Binding") -> "Binding":
        return Binding(self.slots + other.slots)

    def resolve(self, ref: ColumnRef) -> int:
        """Slot index for ``ref``; raises PlanError on unknown/ambiguous."""
        name_key = ref.name.lower()
        if ref.qualifier is not None:
            qualifier_key = ref.qualifier.lower()
            matches = [
                i
                for i, slot in enumerate(self.slots)
                if slot.qualifier == qualifier_key and slot.key == name_key
            ]
        else:
            matches = [
                i for i, slot in enumerate(self.slots) if slot.key == name_key
            ]
        if not matches:
            raise PlanError(f"unknown column {ref.sql()!r}")
        if len(matches) > 1:
            sources = ", ".join(self.slots[i].qualifier for i in matches)
            raise PlanError(f"ambiguous column {ref.sql()!r} (in {sources})")
        return matches[0]

    def can_resolve(self, ref: ColumnRef) -> bool:
        try:
            self.resolve(ref)
            return True
        except PlanError:
            return False

    def slot_of(self, ref: ColumnRef) -> Slot:
        return self.slots[self.resolve(ref)]


def conjuncts_of(expr: Expr | None) -> list[Expr]:
    """Split the top-level AND structure of a predicate into conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, And):
        out: list[Expr] = []
        for item in expr.items:
            out.extend(conjuncts_of(item))
        return out
    return [expr]


def and_together(conjuncts: list[Expr]) -> Expr | None:
    """Rebuild a single predicate from a conjunct list."""
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return And(tuple(conjuncts))
