"""The logical plan IR.

A logical plan sits between the parsed :class:`SelectStmt` and the
physical operator tree.  The optimizer makes every *planning decision*
on this representation — predicate classification, join order and
strategy, access paths (index vs sequential), partition/exchange
eligibility and prune hints, scan-level projection pushdown — and
records the decisions as plain node fields holding AST
:class:`~repro.engine.expr.Expr` trees, never compiled closures.

Two lowering backends consume it:

* :func:`repro.engine.plan.lowering.lower_select` builds the native
  batch operator tree (compiling expressions to closures exactly
  as the pre-IR planner did — golden-EXPLAIN snapshots pin that the
  translation is byte-for-byte plan-neutral), and
* :mod:`repro.backends.sqlite` emits SQL text for a stdlib ``sqlite3``
  database with relationally shredded XADT columns.

Because every WHERE conjunct of the source statement lands in exactly
one IR slot (a scan's ``pushed`` list, a join's ``edges``/``pushed``,
a ``LogicalFilter`` predicate, or a lateral's ``filters``), a backend
can reassemble the full predicate set by walking the tree.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.engine.expr import (
    Arithmetic,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    Literal,
    Negate,
    SlotRef,
)
from repro.engine.sql.ast import OrderItem, SelectItem, TableRef
from repro.engine.types import INTEGER, VARCHAR, IntegerType, SqlType

#: scalar UDF names the engine treats as XADT methods (mirrors
#: expr_compile.XADT_METHOD_NAMES; re-exported there to avoid a cycle)
from repro.engine.expr_compile import XADT_METHOD_NAMES


@dataclass
class JoinEdge:
    """An equi-join conjunct ``left.col = right.col``."""

    expr: Comparison
    left_qualifier: str
    left_column: str
    right_qualifier: str
    right_column: str

    def side(self, qualifier: str) -> str | None:
        if self.left_qualifier == qualifier:
            return self.left_column
        if self.right_qualifier == qualifier:
            return self.right_column
        return None

    def other(self, qualifier: str) -> tuple[str, str]:
        if self.left_qualifier == qualifier:
            return self.right_qualifier, self.right_column
        return self.left_qualifier, self.left_column


class LogicalNode:
    """Base class of logical plan nodes."""

    #: optimizer cardinality estimate for the node's output
    estimate: float = 0.0

    def children(self) -> list["LogicalNode"]:
        out: list[LogicalNode] = []
        for attribute in ("left", "right", "input"):
            child = getattr(self, attribute, None)
            if isinstance(child, LogicalNode):
                out.append(child)
        return out


@dataclass
class LogicalScan(LogicalNode):
    """One base-table access with its chosen path.

    ``access`` is ``"seq"`` or ``"index"``; for index access the
    equality conjunct that selects the index, the probe-key expression,
    and the live index object are recorded.  ``exchange`` marks a
    partition-parallel scan (with bind-aware prune descriptors), and
    ``projection`` is the pushed-down column index list.
    """

    ref: TableRef
    heap: object  #: HeapTable (snapshot-pinned by the planner context)
    pushed: list[Expr] = field(default_factory=list)
    projection: list[int] | None = None
    access: str = "seq"
    eq_conjunct: Expr | None = None
    key_expr: Expr | None = None
    index: object | None = None  #: live Index for "index" access
    exchange: bool = False
    prunes: list[tuple[str, tuple[str, object]]] = field(default_factory=list)
    estimate: float = 0.0


@dataclass
class LogicalJoin(LogicalNode):
    """One greedy join step: join ``left`` with base table ``ref``.

    ``strategy`` is ``"hash"``, ``"index_nl"``, or ``"cross"``.  Hash
    and cross joins carry the right side as a full :class:`LogicalScan`
    (itself holding access decisions); the index nested-loop strategy
    instead probes ``index`` with ``main_edge``'s outer key, applying
    the remaining connecting edges plus the right table's single-table
    conjuncts (``residual_parts``) as a residual.
    """

    left: LogicalNode
    ref: TableRef
    heap: object
    strategy: str
    edges: list[JoinEdge] = field(default_factory=list)
    pushed: list[Expr] = field(default_factory=list)
    right: LogicalScan | None = None
    index: object | None = None
    main_edge: JoinEdge | None = None
    residual_parts: list[Expr] = field(default_factory=list)
    estimate: float = 0.0


@dataclass
class LogicalFilter(LogicalNode):
    """Residual predicate (conjuncts the joins could not absorb)."""

    input: LogicalNode
    predicate: Expr
    estimate: float = 0.0


@dataclass
class LogicalLateral(LogicalNode):
    """A lateral table function plus the conjuncts it makes plannable."""

    input: LogicalNode
    call: FuncCall
    alias: str
    filters: list[Expr] = field(default_factory=list)


@dataclass
class LogicalAggregate(LogicalNode):
    """GROUP BY / aggregate functions, with the HAVING predicate."""

    input: LogicalNode
    group_by: list[Expr] = field(default_factory=list)
    aggregates: list[FuncCall] = field(default_factory=list)
    having: Expr | None = None


@dataclass
class LogicalProject(LogicalNode):
    """The SELECT list (``star`` marks a bare ``SELECT *``)."""

    input: LogicalNode
    items: list[SelectItem] = field(default_factory=list)
    star: bool = False


@dataclass
class LogicalDistinct(LogicalNode):
    input: LogicalNode


@dataclass
class LogicalSort(LogicalNode):
    input: LogicalNode
    order_by: list[OrderItem] = field(default_factory=list)


@dataclass
class LogicalLimit(LogicalNode):
    input: LogicalNode
    limit: int = 0


# ---------------------------------------------------------------------------
# AST utilities shared by the optimizer and the lowering backends
# ---------------------------------------------------------------------------


def children_of(expr: Expr) -> list[Expr]:
    if isinstance(expr, FuncCall):
        return list(expr.args)
    for attribute in ("items",):
        if hasattr(expr, attribute):
            return list(getattr(expr, attribute))
    children: list[Expr] = []
    for attribute in ("left", "right", "operand"):
        child = getattr(expr, attribute, None)
        if isinstance(child, Expr):
            children.append(child)
    return children


def has_xadt_call(expr: Expr | None) -> bool:
    if expr is None:
        return False
    if isinstance(expr, FuncCall) and expr.name.lower() in XADT_METHOD_NAMES:
        return True
    return any(has_xadt_call(child) for child in children_of(expr))


def xadt_access(exprs, label: str) -> str | None:
    """``label`` when any expression calls an XADT method, else None.

    Operators carry the label into EXPLAIN (``xadt[xindex]`` vs
    ``xadt[scan]``) so plans show which access path the fragment methods
    will take under the catalog's execution config.
    """
    return label if any(has_xadt_call(e) for e in exprs) else None


def collect_aggregates(
    items: list[SelectItem],
    having: Expr | None,
    order_by: list[OrderItem],
) -> list[FuncCall]:
    collected: list[FuncCall] = []

    def visit(expr: Expr) -> None:
        if isinstance(expr, FuncCall) and expr.is_aggregate():
            if expr not in collected:
                collected.append(expr)
            return  # no nested aggregates
        for child in children_of(expr):
            visit(child)

    for item in items:
        visit(item.expr)
    if having is not None:
        visit(having)
    for order in order_by:
        visit(order.expr)
    return collected


def rebuild_with_slots(expr: Expr, substitutions: dict[Expr, int]) -> Expr | None:
    """Replace substituted subtrees by ``SlotRef`` placeholders.

    Returns None when the expression still contains free aggregates.
    """
    if expr in substitutions:
        return SlotRef(substitutions[expr])
    if isinstance(expr, FuncCall):
        if expr.is_aggregate():
            return None
        new_args = []
        for arg in expr.args:
            rebuilt = rebuild_with_slots(arg, substitutions)
            if rebuilt is None:
                return None
            new_args.append(rebuilt)
        return FuncCall(expr.name, tuple(new_args), expr.distinct)
    if dataclasses.is_dataclass(expr):
        replacements = {}
        for field_info in dataclasses.fields(expr):
            value = getattr(expr, field_info.name)
            if isinstance(value, Expr):
                rebuilt = rebuild_with_slots(value, substitutions)
                if rebuilt is None:
                    return None
                replacements[field_info.name] = rebuilt
            elif isinstance(value, tuple) and value and isinstance(value[0], Expr):
                rebuilt_items = []
                for item in value:
                    rebuilt = rebuild_with_slots(item, substitutions)
                    if rebuilt is None:
                        return None
                    rebuilt_items.append(rebuilt)
                replacements[field_info.name] = tuple(rebuilt_items)
        if replacements:
            return dataclasses.replace(expr, **replacements)
    return expr


def output_name(expr: Expr, alias: str | None, position: int) -> str:
    if alias:
        return alias
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, FuncCall):
        return expr.name.lower()
    return f"col_{position}"


def infer_type(expr: Expr, binding, registry) -> SqlType:
    from repro.engine.expr import Comparison as _Cmp, Like as _Like
    from repro.errors import PlanError

    if isinstance(expr, ColumnRef):
        try:
            return binding.slot_of(expr).sql_type
        except PlanError:
            return VARCHAR
    if isinstance(expr, Literal):
        return INTEGER if isinstance(expr.value, int) else VARCHAR
    if isinstance(expr, FuncCall):
        if expr.name.lower() in ("count", "sum"):
            return INTEGER
        if registry.has_scalar(expr.name):
            declared = registry.scalar(expr.name).result_type
            if declared is not None:
                return declared
        return VARCHAR
    if isinstance(expr, (_Cmp, _Like)):
        return INTEGER
    if isinstance(expr, (Arithmetic, Negate)) and all(
        isinstance(infer_type(operand, binding, registry), IntegerType)
        for operand in children_of(expr)
    ):
        return INTEGER
    # unknown shapes answer VARCHAR: a *guess*, so nothing downstream may
    # specialise on an output slot's type (the batch kernels decide from
    # the value types they observe)
    return VARCHAR


__all__ = [
    "JoinEdge",
    "LogicalAggregate",
    "LogicalDistinct",
    "LogicalFilter",
    "LogicalJoin",
    "LogicalLateral",
    "LogicalLimit",
    "LogicalNode",
    "LogicalProject",
    "LogicalScan",
    "LogicalSort",
    "children_of",
    "collect_aggregates",
    "has_xadt_call",
    "infer_type",
    "output_name",
    "rebuild_with_slots",
    "xadt_access",
]
