"""The logical plan IR.

A logical plan sits between the parsed :class:`SelectStmt` and the
physical operator tree.  The optimizer makes every *planning decision*
on this representation — predicate classification, join order and
strategy, access paths (index vs sequential), scan-level projection
pushdown — and records the decisions as plain node fields holding AST
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
    walk_exprs,
)
from repro.engine.sql.ast import OrderItem, SelectItem, TableRef
from repro.engine.types import INTEGER, VARCHAR, IntegerType, SqlType

#: the XADT method names (lowercased) whose calls EXPLAIN labels with
#: their access path (``xadt[scan]``)
XADT_METHOD_NAMES = frozenset(
    {"getelm", "findkeyinelm", "getelmindex", "elmequals", "elmtext"}
)


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
    and the live index object are recorded.  ``projection`` is the
    pushed-down column index list.
    """

    ref: TableRef
    heap: object  #: HeapTable (snapshot-pinned by the planner context)
    pushed: list[Expr] = field(default_factory=list)
    projection: list[int] | None = None
    access: str = "seq"
    eq_conjunct: Expr | None = None
    key_expr: Expr | None = None
    index: object | None = None  #: live Index for "index" access
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


def has_xadt_call(expr: Expr | None) -> bool:
    if expr is None:
        return False
    return any(
        isinstance(node, FuncCall) and node.name.lower() in XADT_METHOD_NAMES
        for node in walk_exprs(expr)
    )


def xadt_access(exprs) -> str | None:
    """``"scan"`` when any expression calls an XADT method, else None.

    Operators carry the label into EXPLAIN (``xadt[scan]``).  The plan
    does not choose the access path — each stored value does (an
    ``indexed`` one answers from its directory) — so the label names the
    paper's method call, whatever the values' codecs.
    """
    return "scan" if any(has_xadt_call(e) for e in exprs) else None


def collect_aggregates(
    items: list[SelectItem],
    having: Expr | None,
    order_by: list[OrderItem],
) -> list[FuncCall]:
    collected: list[FuncCall] = []
    for item in items:
        _collect_aggregates(item.expr, collected)
    if having is not None:
        _collect_aggregates(having, collected)
    for order in order_by:
        _collect_aggregates(order.expr, collected)
    return collected


def _collect_aggregates(expr: Expr, collected: list[FuncCall]) -> None:
    # a module function, not a recursive closure: a closure that calls
    # itself is a reference cycle, left for the collector by every plan
    if isinstance(expr, FuncCall) and expr.is_aggregate():
        if expr not in collected:
            collected.append(expr)
        return  # no nested aggregates
    for child in expr.children():
        _collect_aggregates(child, collected)


def rebuild_with_slots(expr: Expr, substitutions: dict[Expr, int]) -> Expr | None:
    """Replace substituted subtrees by ``SlotRef`` placeholders.

    Returns None when the expression still contains free aggregates.
    """
    if expr in substitutions:
        return SlotRef(substitutions[expr])
    if isinstance(expr, FuncCall) and expr.is_aggregate():
        return None
    replacements = {}
    for name in expr.CHILDREN:
        value = getattr(expr, name)
        if type(value) is tuple:
            rebuilt = tuple(rebuild_with_slots(item, substitutions) for item in value)
            if None in rebuilt:
                return None
        else:
            rebuilt = rebuild_with_slots(value, substitutions)
            if rebuilt is None:
                return None
        replacements[name] = rebuilt
    return dataclasses.replace(expr, **replacements) if replacements else expr


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
        for operand in expr.children()
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
    "XADT_METHOD_NAMES",
    "collect_aggregates",
    "has_xadt_call",
    "infer_type",
    "output_name",
    "rebuild_with_slots",
    "xadt_access",
]
