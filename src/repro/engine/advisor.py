"""Rule-based index advisor (the paper's "DB2 Index Wizard" stand-in).

The paper's methodology creates, before timing queries, the indexes the
DB2 Index Wizard suggests for the workload.  This advisor inspects a
workload of SELECT statements and recommends:

* a unique index on every primary key that any query touches,
* an index on every column appearing in an equi-join conjunct,
* an index on every column compared for equality with a literal,
* a B-tree index on columns used in range comparisons or ORDER BY.

Equality-only columns get hash indexes; anything needing order gets a
B-tree.  The resulting index sets mirror the paper's setup: the Hybrid
schema (many tables, many parentID/childOrder columns in predicates)
attracts far more indexes than the XORator schema, which is exactly the
index-size disparity of Tables 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.expr import ColumnRef, Comparison, Expr, FuncCall, Literal
from repro.engine.schema import Catalog
from repro.engine.sql.ast import SelectStmt, TableFunctionRef, TableRef
from repro.engine.sql.parser import parse_sql
from repro.errors import PlanError


@dataclass(frozen=True)
class IndexSuggestion:
    table: str
    column: str
    kind: str  #: 'hash' or 'btree'
    reason: str

    def ddl(self) -> str:
        name = f"idx_{self.table.lower()}_{self.column.lower()}"
        return f"CREATE INDEX {name} ON {self.table}({self.column}) USING {self.kind}"


@dataclass
class _Demand:
    equality: bool = False
    ordering: bool = False
    reasons: list[str] = field(default_factory=list)


class IndexAdvisor:
    """Collects column demands from a workload and emits suggestions."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self._demands: dict[tuple[str, str], _Demand] = {}

    # -- demand collection ------------------------------------------------

    def observe_sql(self, sql: str) -> None:
        statement = parse_sql(sql)
        if isinstance(statement, SelectStmt):
            self.observe(statement)

    def observe(self, stmt: SelectStmt) -> None:
        alias_to_table = {
            item.qualifier: item.table
            for item in stmt.from_items
            if isinstance(item, TableRef)
        }
        if stmt.where is not None:
            self._walk_predicate(stmt.where, alias_to_table)
        for order in stmt.order_by:
            if isinstance(order.expr, ColumnRef):
                self._demand(order.expr, alias_to_table, ordering=True,
                             reason="ORDER BY")
        # lateral function args do not benefit from indexes; skipped
        for item in stmt.from_items:
            if isinstance(item, TableFunctionRef):
                continue

    def _walk_predicate(self, expr: Expr, aliases: dict[str, str]) -> None:
        if isinstance(expr, Comparison):
            left_col = isinstance(expr.left, ColumnRef)
            right_col = isinstance(expr.right, ColumnRef)
            if expr.op == "=":
                if left_col and right_col:
                    self._demand(expr.left, aliases, equality=True, reason="join")
                    self._demand(expr.right, aliases, equality=True, reason="join")
                elif left_col and isinstance(expr.right, Literal):
                    self._demand(expr.left, aliases, equality=True, reason="selection")
                elif right_col and isinstance(expr.left, Literal):
                    self._demand(expr.right, aliases, equality=True, reason="selection")
            elif expr.op in ("<", "<=", ">", ">="):
                if left_col:
                    self._demand(expr.left, aliases, ordering=True, reason="range")
                if right_col:
                    self._demand(expr.right, aliases, ordering=True, reason="range")
            return
        if not isinstance(expr, FuncCall):  # a call's arguments demand nothing
            for child in expr.children():
                self._walk_predicate(child, aliases)

    def _demand(
        self,
        ref: ColumnRef,
        aliases: dict[str, str],
        equality: bool = False,
        ordering: bool = False,
        reason: str = "",
    ) -> None:
        table = self._resolve_table(ref, aliases)
        if table is None:
            return
        key = (table.lower(), ref.name.lower())
        demand = self._demands.setdefault(key, _Demand())
        demand.equality = demand.equality or equality
        demand.ordering = demand.ordering or ordering
        if reason and reason not in demand.reasons:
            demand.reasons.append(reason)

    def _resolve_table(self, ref: ColumnRef, aliases: dict[str, str]) -> str | None:
        if ref.qualifier is not None:
            return aliases.get(ref.qualifier.lower())
        candidates = [
            table
            for table in aliases.values()
            if self._catalog.has_table(table)
            and self._catalog.table(table).has_column(ref.name)
        ]
        if len(candidates) == 1:
            return candidates[0]
        if len(candidates) > 1:
            raise PlanError(
                f"ambiguous column {ref.name!r} in advisor workload"
            )
        return None

    # -- suggestions -------------------------------------------------------

    def suggestions(self) -> list[IndexSuggestion]:
        out: list[IndexSuggestion] = []
        for (table_key, column_key), demand in sorted(self._demands.items()):
            if not self._catalog.has_table(table_key):
                continue
            schema = self._catalog.table(table_key)
            if not schema.has_column(column_key):
                continue
            if self._catalog.find_index(table_key, column_key) is not None:
                continue
            column = schema.column(column_key)
            from repro.engine.types import XadtType

            if isinstance(column.sql_type, XadtType):
                continue  # fragments are not indexable scalars
            kind = "btree" if demand.ordering else "hash"
            out.append(
                IndexSuggestion(
                    schema.name, column.name, kind, "+".join(demand.reasons)
                )
            )
        return out

    def ddl(self) -> list[str]:
        return [suggestion.ddl() for suggestion in self.suggestions()]
