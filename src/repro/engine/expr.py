"""Expression AST, name binding, and compilation to Python closures.

Expressions appear in SELECT lists, WHERE clauses, GROUP BY keys, table
function arguments, and ORDER BY keys.  The planner resolves column
references against a :class:`Binding` (the flat slot layout of an
operator's output) and compiles each expression once; execution then
runs plain closures over row tuples.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.engine import values as value_ops
from repro.engine.types import SqlType
from repro.engine.udf import AGGREGATE_NAMES, FunctionRegistry
from repro.errors import ExecutionError, PlanError


class Expr:
    """Base class of expression nodes."""

    def column_refs(self) -> Iterator["ColumnRef"]:
        """All column references in this subtree."""
        return iter(())

    def contains_aggregate(self) -> bool:
        return False

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

    def column_refs(self) -> Iterator["ColumnRef"]:
        yield self

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
    """Every node of an expression tree (pre-order)."""
    yield expr
    if isinstance(expr, FuncCall):
        for arg in expr.args:
            yield from walk_exprs(arg)
        return
    if isinstance(expr, (And, Or)):
        for item in expr.items:
            yield from walk_exprs(item)
        return
    for attribute in ("left", "right", "operand"):
        child = getattr(expr, attribute, None)
        if isinstance(child, Expr):
            yield from walk_exprs(child)


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str
    args: tuple[Expr, ...]
    distinct: bool = False

    def column_refs(self) -> Iterator[ColumnRef]:
        for arg in self.args:
            yield from arg.column_refs()

    def is_aggregate(self) -> bool:
        return self.name.lower() in AGGREGATE_NAMES

    def contains_aggregate(self) -> bool:
        return self.is_aggregate() or any(a.contains_aggregate() for a in self.args)

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

    def column_refs(self) -> Iterator[ColumnRef]:
        yield from self.left.column_refs()
        yield from self.right.column_refs()

    def contains_aggregate(self) -> bool:
        return self.left.contains_aggregate() or self.right.contains_aggregate()

    def sql(self) -> str:
        return f"{self.left.sql()} {self.op} {self.right.sql()}"


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: str
    negated: bool = False

    def column_refs(self) -> Iterator[ColumnRef]:
        yield from self.operand.column_refs()

    def contains_aggregate(self) -> bool:
        return self.operand.contains_aggregate()

    def sql(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        escaped = self.pattern.replace("'", "''")
        return f"{self.operand.sql()} {keyword} '{escaped}'"


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def column_refs(self) -> Iterator[ColumnRef]:
        yield from self.operand.column_refs()

    def sql(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand.sql()} {keyword}"


@dataclass(frozen=True)
class And(Expr):
    items: tuple[Expr, ...]

    def column_refs(self) -> Iterator[ColumnRef]:
        for item in self.items:
            yield from item.column_refs()

    def contains_aggregate(self) -> bool:
        return any(item.contains_aggregate() for item in self.items)

    def sql(self) -> str:
        return " AND ".join(f"({item.sql()})" for item in self.items)


@dataclass(frozen=True)
class Or(Expr):
    items: tuple[Expr, ...]

    def column_refs(self) -> Iterator[ColumnRef]:
        for item in self.items:
            yield from item.column_refs()

    def contains_aggregate(self) -> bool:
        return any(item.contains_aggregate() for item in self.items)

    def sql(self) -> str:
        return " OR ".join(f"({item.sql()})" for item in self.items)


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    def column_refs(self) -> Iterator[ColumnRef]:
        yield from self.operand.column_refs()

    def contains_aggregate(self) -> bool:
        return self.operand.contains_aggregate()

    def sql(self) -> str:
        return f"NOT ({self.operand.sql()})"


@dataclass(frozen=True)
class Arithmetic(Expr):
    op: str  #: one of + - * /
    left: Expr
    right: Expr

    def column_refs(self) -> Iterator[ColumnRef]:
        yield from self.left.column_refs()
        yield from self.right.column_refs()

    def contains_aggregate(self) -> bool:
        return self.left.contains_aggregate() or self.right.contains_aggregate()

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


@dataclass(frozen=True)
class Negate(Expr):
    operand: Expr

    def column_refs(self) -> Iterator[ColumnRef]:
        yield from self.operand.column_refs()

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


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

Compiled = Callable[[tuple], object]


def compile_expr(
    expr: Expr,
    binding: Binding,
    registry: FunctionRegistry,
    params: ParamBox | None = None,
) -> Compiled:
    """Compile ``expr`` to a tree of per-node closures over row tuples.

    The reference semantics of the expression language: the generated
    code of :mod:`repro.engine.expr_compile` — the only compiler a plan
    holds — is diffed against it (``tests/engine/test_expr_compile.py``),
    and ``INSERT ... VALUES`` evaluates its constants with it.

    ``params`` is the bind-value box Parameter markers read from; plans
    compiled without one reject markers at plan time.

    Aggregates must have been rewritten away by the planner before
    compilation; finding one here is a planning bug surfaced as PlanError.
    """
    if isinstance(expr, Literal):
        constant = expr.value
        return lambda row: constant
    if isinstance(expr, Parameter):
        if params is None:
            raise PlanError(
                "parameter marker '?' outside a prepared statement"
            )
        slot_index = expr.index
        box = params
        return lambda row: box.values[slot_index]
    if isinstance(expr, ColumnRef):
        index = binding.resolve(expr)
        return lambda row: row[index]
    if isinstance(expr, SlotRef):
        index = expr.index
        return lambda row: row[index]
    if isinstance(expr, Star):
        raise PlanError("'*' is only valid inside COUNT(*)")
    if isinstance(expr, FuncCall):
        if expr.is_aggregate():
            raise PlanError(
                f"aggregate {expr.name}() in a non-aggregate context"
            )
        function = registry.bind_scalar(expr.name, len(expr.args))
        compiled_args = [
            compile_expr(a, binding, registry, params) for a in expr.args
        ]

        def call(row: tuple) -> object:
            return registry.invoke_scalar(function, [arg(row) for arg in compiled_args])

        return call
    if isinstance(expr, Comparison):
        left = compile_expr(expr.left, binding, registry, params)
        right = compile_expr(expr.right, binding, registry, params)
        op = expr.op
        return lambda row: value_ops.compare(op, left(row), right(row))
    if isinstance(expr, Like):
        operand = compile_expr(expr.operand, binding, registry, params)
        pattern = expr.pattern
        if expr.negated:
            return lambda row: (
                operand(row) is not None and not value_ops.like(operand(row), pattern)
            )
        return lambda row: value_ops.like(operand(row), pattern)
    if isinstance(expr, IsNull):
        operand = compile_expr(expr.operand, binding, registry, params)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    if isinstance(expr, And):
        compiled = [
            compile_expr(item, binding, registry, params) for item in expr.items
        ]
        return lambda row: all(item(row) for item in compiled)
    if isinstance(expr, Or):
        compiled = [
            compile_expr(item, binding, registry, params) for item in expr.items
        ]
        return lambda row: any(item(row) for item in compiled)
    if isinstance(expr, Not):
        operand = compile_expr(expr.operand, binding, registry, params)
        return lambda row: not operand(row)
    if isinstance(expr, Arithmetic):
        left = compile_expr(expr.left, binding, registry, params)
        right = compile_expr(expr.right, binding, registry, params)
        op = expr.op

        def arith(row: tuple) -> object:
            lv, rv = left(row), right(row)
            if lv is None or rv is None:
                return None
            try:
                if op == "+":
                    return lv + rv
                if op == "-":
                    return lv - rv
                if op == "*":
                    return lv * rv
                if op == "/":
                    return lv // rv if isinstance(lv, int) and isinstance(rv, int) else lv / rv
            except (TypeError, ZeroDivisionError) as exc:
                raise ExecutionError(f"arithmetic failed: {lv!r} {op} {rv!r}") from exc
            raise ExecutionError(f"unknown arithmetic operator {op!r}")

        return arith
    if isinstance(expr, Negate):
        operand = compile_expr(expr.operand, binding, registry, params)

        def negate(row: tuple) -> object:
            value = operand(row)
            if value is None:
                return None
            if not isinstance(value, (int, float)):
                raise ExecutionError(f"cannot negate {value!r}")
            return -value

        return negate
    raise PlanError(f"cannot compile expression node {type(expr).__name__}")


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
