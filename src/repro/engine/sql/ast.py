"""Statement-level AST for the SQL subset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.engine.expr import Expr, FuncCall, Parameter, walk_exprs


@dataclass(frozen=True)
class SelectItem:
    """One entry of a SELECT list."""

    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    """``FROM tablename [alias]``."""

    table: str
    alias: str

    @property
    def qualifier(self) -> str:
        return self.alias.lower()


@dataclass(frozen=True)
class TableFunctionRef:
    """``FROM TABLE(func(args)) alias`` — lateral: args may reference
    columns of FROM items to its left (DB2 table-UDF semantics, which the
    paper's unnest queries rely on)."""

    call: FuncCall
    alias: str

    @property
    def qualifier(self) -> str:
        return self.alias.lower()


FromItem = TableRef | TableFunctionRef


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass
class SelectStmt:
    items: list[SelectItem]
    from_items: list[FromItem]
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    distinct: bool = False


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    primary_key: bool = False


@dataclass
class CreateTableStmt:
    table: str
    columns: list[ColumnDef]


@dataclass
class CreateIndexStmt:
    name: str
    table: str
    column: str
    kind: str = "btree"  #: 'btree' or 'hash'
    unique: bool = False


@dataclass
class InsertStmt:
    table: str
    columns: list[str]          #: empty means "all columns in order"
    rows: list[list[Expr]]      #: literal expressions only
    #: ``(params, fn)``: every VALUES cell compiled as one projection at
    #: the first execution, so a prepared INSERT compiles once
    compiled: tuple | None = field(default=None, compare=False, repr=False)


@dataclass
class DropTableStmt:
    table: str


Statement = SelectStmt | CreateTableStmt | CreateIndexStmt | InsertStmt | DropTableStmt


def statement_exprs(statement: Statement) -> Iterator[Expr]:
    """Every expression tree appearing in ``statement``."""
    if isinstance(statement, SelectStmt):
        for item in statement.items:
            yield item.expr
        for from_item in statement.from_items:
            if isinstance(from_item, TableFunctionRef):
                yield from_item.call
        if statement.where is not None:
            yield statement.where
        yield from statement.group_by
        if statement.having is not None:
            yield statement.having
        for order in statement.order_by:
            yield order.expr
    elif isinstance(statement, InsertStmt):
        for row in statement.rows:
            yield from row


def count_parameters(statement: Statement) -> int:
    """Number of ``?`` markers in ``statement`` (0 for DDL)."""
    count = 0
    for root in statement_exprs(statement):
        for node in walk_exprs(root):
            if isinstance(node, Parameter):
                count += 1
    return count
