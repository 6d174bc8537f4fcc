"""Query planner/optimizer.

Plans a parsed :class:`SelectStmt` in two phases:

1. :func:`plan_logical` makes every planning decision on the logical IR
   (:mod:`repro.engine.plan.logical`): classify WHERE conjuncts
   (single-table, equi-join edge, residual), pick an access path per
   base table (index scan when an equality predicate has a live index
   and wins on cost, else sequential scan), order joins greedily by
   estimated cost choosing between hash join and index nested-loop join
   per step, append lateral table functions in declared order (DB2
   semantics: their arguments may reference any FROM item to their
   left), and stack aggregation / having / projection / distinct /
   order / limit on top.
2. a lowering backend turns the IR into something executable.  The
   native backend is :func:`repro.engine.plan.lowering.lower_select`
   (compiled-closure operator trees — :func:`plan_select` below); the
   SQLite backend (:mod:`repro.backends.sqlite`) emits SQL text instead.

Statistics come from the engine's ``runstats``; without them the
defaults in :mod:`repro.engine.statistics` apply.
"""

from __future__ import annotations

from typing import Protocol

from repro.engine.expr import (
    Binding,
    ColumnRef,
    Comparison,
    Expr,
    Literal,
    ParamBox,
    Parameter,
    Slot,
    Star,
    and_together,
    conjuncts_of,
)
from repro.engine.index import Index
from repro.engine.plan import cost as cost_model
from repro.engine.plan.logical import (
    JoinEdge,
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLateral,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    collect_aggregates,
)
from repro.engine.plan.lowering import lower_select
from repro.engine.plan.physical import Operator, table_binding
from repro.engine.schema import IndexDef
from repro.engine.statistics import TableStats
from repro.engine.storage import HeapTable
from repro.engine.sql.ast import SelectStmt, TableFunctionRef, TableRef
from repro.engine.udf import FunctionRegistry
from repro.errors import PlanError


class PlannerContext(Protocol):
    """What the planner needs from the database."""

    registry: FunctionRegistry
    work_mem_bytes: int  #: join working memory the hash-join cost assumes

    def heap(self, table_name: str) -> HeapTable: ...

    def stats_for(self, table_name: str) -> TableStats | None: ...

    def live_index(
        self, table_name: str, column_name: str
    ) -> tuple[IndexDef, Index] | None: ...


# ---------------------------------------------------------------------------
# conjunct classification
# ---------------------------------------------------------------------------


class _Classified:
    def __init__(self) -> None:
        self.per_table: dict[str, list[Expr]] = {}
        self.edges: list[JoinEdge] = []
        self.residual: list[Expr] = []
        self.constants: list[Expr] = []


def _qualifiers_of(expr: Expr, global_binding: Binding) -> set[str]:
    qualifiers: set[str] = set()
    for ref in expr.column_refs():
        slot = global_binding.slot_of(ref)
        qualifiers.add(slot.qualifier)
    return qualifiers


def _classify(
    conjuncts: list[Expr],
    global_binding: Binding,
    base_qualifiers: set[str],
) -> _Classified:
    result = _Classified()
    for conjunct in conjuncts:
        qualifiers = _qualifiers_of(conjunct, global_binding)
        if not qualifiers:
            result.constants.append(conjunct)
            continue
        if not qualifiers <= base_qualifiers:
            # touches a lateral table function; applied after the lateral
            result.residual.append(conjunct)
            continue
        if len(qualifiers) == 1:
            result.per_table.setdefault(next(iter(qualifiers)), []).append(conjunct)
            continue
        edge = _as_join_edge(conjunct, global_binding)
        if edge is not None and len(qualifiers) == 2:
            result.edges.append(edge)
        else:
            result.residual.append(conjunct)
    return result


def _as_join_edge(expr: Expr, global_binding: Binding) -> JoinEdge | None:
    if not (
        isinstance(expr, Comparison)
        and expr.op == "="
        and isinstance(expr.left, ColumnRef)
        and isinstance(expr.right, ColumnRef)
    ):
        return None
    left_slot = global_binding.slot_of(expr.left)
    right_slot = global_binding.slot_of(expr.right)
    if left_slot.qualifier == right_slot.qualifier:
        return None
    return JoinEdge(
        expr,
        left_slot.qualifier,
        left_slot.name,
        right_slot.qualifier,
        right_slot.name,
    )


# ---------------------------------------------------------------------------
# planner entry points
# ---------------------------------------------------------------------------


def plan_select(
    stmt: SelectStmt, ctx: PlannerContext, params: ParamBox | None = None
) -> Operator:
    """Plan ``stmt`` and lower it to the native physical backend."""
    return lower_select(plan_logical(stmt, ctx), ctx, params)


def plan_logical(stmt: SelectStmt, ctx: PlannerContext) -> LogicalNode:
    """Make all planning decisions; return the annotated logical plan."""
    base_refs = [item for item in stmt.from_items if isinstance(item, TableRef)]
    lateral_refs = [
        item for item in stmt.from_items if isinstance(item, TableFunctionRef)
    ]
    if not stmt.from_items:
        raise PlanError("queries require at least one FROM item")
    _check_alias_uniqueness(stmt)

    heaps = {ref.qualifier: ctx.heap(ref.table) for ref in base_refs}
    stats = {ref.qualifier: ctx.stats_for(ref.table) for ref in base_refs}

    global_binding = _global_binding(stmt, heaps, ctx.registry)
    classified = _classify(
        conjuncts_of(stmt.where), global_binding, set(heaps)
    )

    needed = _needed_columns(stmt, global_binding)
    node, binding, _ = _logical_joins(
        base_refs, heaps, stats, classified, ctx, needed
    )
    node, binding = _logical_laterals(
        node, binding, lateral_refs, classified.residual, ctx.registry
    )
    return _logical_output(node, stmt)


def _needed_columns(
    stmt: SelectStmt, global_binding: Binding
) -> dict[str, set[str]]:
    """Columns each base table must materialize, keyed by qualifier.

    Walks every expression position of the statement (select list,
    WHERE, GROUP BY, HAVING, ORDER BY, lateral call arguments) so scans
    can drop all other columns at the source; a bare ``*`` in the select
    list needs every column.  References that don't resolve against the
    FROM binding (e.g. ORDER BY on an output alias) are skipped; they
    never name a scan column.
    """
    needed: dict[str, set[str]] = {}
    if any(isinstance(item.expr, Star) for item in stmt.items):
        for slot in global_binding.slots:
            needed.setdefault(slot.qualifier, set()).add(slot.key)
        return needed

    def visit(expr: Expr) -> None:
        for ref in expr.column_refs():
            try:
                slot = global_binding.slot_of(ref)
            except PlanError:
                continue
            needed.setdefault(slot.qualifier, set()).add(slot.name.lower())

    for item in stmt.items:
        visit(item.expr)
    if stmt.where is not None:
        visit(stmt.where)
    for expr in stmt.group_by:
        visit(expr)
    if stmt.having is not None:
        visit(stmt.having)
    for order in stmt.order_by:
        visit(order.expr)
    for item in stmt.from_items:
        if isinstance(item, TableFunctionRef):
            for arg in item.call.args:
                visit(arg)
    return needed


def _projection_of(
    heap: HeapTable, qualifier: str, needed: dict[str, set[str]]
) -> list[int] | None:
    """The pushed-down column index list for one scan (schema order)."""
    names = needed.get(qualifier, set())
    columns = heap.schema.columns
    if len(names) == len(columns):
        return None  # nothing to drop
    return [
        i for i, column in enumerate(columns) if column.name.lower() in names
    ]


def _check_alias_uniqueness(stmt: SelectStmt) -> None:
    seen: set[str] = set()
    for item in stmt.from_items:
        if item.qualifier in seen:
            raise PlanError(f"duplicate FROM alias {item.qualifier!r}")
        seen.add(item.qualifier)


def _global_binding(
    stmt: SelectStmt,
    heaps: dict[str, HeapTable],
    registry: FunctionRegistry,
) -> Binding:
    slots: list[Slot] = []
    for item in stmt.from_items:
        if isinstance(item, TableRef):
            slots.extend(table_binding(heaps[item.qualifier], item.alias).slots)
        else:
            function = registry.table_function(item.call.name)
            slots.extend(
                Slot(item.qualifier, name, sql_type)
                for name, sql_type in function.output_columns
            )
    return Binding(slots)


# -- base-table access and joins ---------------------------------------------


def _decide_access(
    ref: TableRef,
    heap: HeapTable,
    table_stats: TableStats | None,
    pushed: list[Expr],
    ctx: PlannerContext,
    needed: dict[str, set[str]],
) -> LogicalScan:
    """Access-path decision for one base table (recorded, not built).

    Mirrors the lowered operator's cost model exactly: an equality
    conjunct with a live index wins when the index probe is cheaper than
    the sequential scan.
    """
    projection = _projection_of(heap, ref.qualifier.lower(), needed)
    selectivity = 1.0
    for conjunct in pushed:
        selectivity *= cost_model.predicate_selectivity(conjunct, table_stats)
    estimate = max(heap.row_count() * selectivity, 0.1)

    index_choice = _find_eq_index(ref, pushed, ctx)
    if index_choice is not None:
        eq_conjunct, key_expr, index = index_choice
        column, _ = _split_eq(eq_conjunct)  # type: ignore[arg-type]
        matches = cost_model.eq_match_estimate(
            table_stats, column.name if column else "", heap.row_count()
        )
        index_cost = cost_model.index_scan_cost(matches, heap.data_pages())
        scan_cost = cost_model.seq_scan_cost(
            heap.row_count(), heap.data_pages()
        )
        if index_cost >= scan_cost:
            index_choice = None
    if index_choice is not None:
        eq_conjunct, key_expr, index = index_choice
        return LogicalScan(
            ref=ref,
            heap=heap,
            pushed=list(pushed),
            projection=projection,
            access="index",
            eq_conjunct=eq_conjunct,
            key_expr=key_expr,
            index=index,
            estimate=estimate,
        )
    return LogicalScan(
        ref=ref,
        heap=heap,
        pushed=list(pushed),
        projection=projection,
        access="seq",
        estimate=estimate,
    )


def _find_eq_index(
    ref: TableRef, pushed: list[Expr], ctx: PlannerContext
) -> tuple[Expr, Expr, Index] | None:
    for conjunct in pushed:
        if not (isinstance(conjunct, Comparison) and conjunct.op == "="):
            continue
        column, key_expr = _split_eq(conjunct)
        if column is None:
            continue
        found = ctx.live_index(ref.table, column.name)
        if found is not None:
            return conjunct, key_expr, found[1]
    return None


def _split_eq(comparison: Comparison) -> tuple[ColumnRef | None, Expr | None]:
    """The (column, key) sides of a col-vs-constant equality.

    The key side may be a Literal or a prepared-statement Parameter —
    both yield an index-probe key that is constant for one execution.
    """
    constant = (Literal, Parameter)
    if isinstance(comparison.left, ColumnRef) and isinstance(
        comparison.right, constant
    ):
        return comparison.left, comparison.right
    if isinstance(comparison.right, ColumnRef) and isinstance(
        comparison.left, constant
    ):
        return comparison.right, comparison.left
    return None, None


def _logical_joins(
    base_refs: list[TableRef],
    heaps: dict[str, HeapTable],
    stats: dict[str, TableStats | None],
    classified: _Classified,
    ctx: PlannerContext,
    needed: dict[str, set[str]],
) -> tuple[LogicalNode, Binding, float]:
    if not base_refs:
        raise PlanError("at least one base table is required in FROM")
    pushed = dict(classified.per_table)
    # constant conjuncts ride along with the first planned table
    first_extra = list(classified.constants)

    estimates: dict[str, float] = {}
    for ref in base_refs:
        table_pushed = pushed.get(ref.qualifier, [])
        selectivity = 1.0
        for conjunct in table_pushed:
            selectivity *= cost_model.predicate_selectivity(
                conjunct, stats[ref.qualifier]
            )
        estimates[ref.qualifier] = max(
            heaps[ref.qualifier].row_count() * selectivity, 0.1
        )

    remaining = {ref.qualifier: ref for ref in base_refs}
    edges = list(classified.edges)
    applied_edges: set[int] = set()

    # start from the most selective table
    start_qualifier = min(remaining, key=lambda q: estimates[q])
    start_ref = remaining.pop(start_qualifier)
    start_pushed = pushed.get(start_qualifier, []) + first_extra
    node: LogicalNode = _decide_access(
        start_ref, heaps[start_qualifier], stats[start_qualifier], start_pushed,
        ctx, needed,
    )
    binding = table_binding(
        heaps[start_qualifier], start_ref.alias, node.projection
    )
    current_rows = node.estimate
    joined = {start_qualifier}

    while remaining:
        candidate = _pick_candidate(remaining, joined, edges, applied_edges, estimates)
        ref = remaining.pop(candidate)
        connecting = [
            (i, edge)
            for i, edge in enumerate(edges)
            if i not in applied_edges
            and edge.side(candidate) is not None
            and edge.other(candidate)[0] in joined
        ]
        table_pushed = pushed.get(ref.qualifier, [])
        if connecting:
            node, binding, current_rows = _decide_join(
                node,
                binding,
                current_rows,
                ref,
                heaps[ref.qualifier],
                stats[ref.qualifier],
                table_pushed,
                connecting,
                ctx,
                needed,
            )
            applied_edges.update(i for i, _ in connecting)
        else:
            right = _decide_access(
                ref, heaps[ref.qualifier], stats[ref.qualifier], table_pushed,
                ctx, needed,
            )
            current_rows = max(current_rows * right.estimate, 0.1)
            node = LogicalJoin(
                left=node,
                ref=ref,
                heap=heaps[ref.qualifier],
                strategy="cross",
                pushed=list(table_pushed),
                right=right,
                estimate=current_rows,
            )
            binding = binding.extend(
                table_binding(heaps[ref.qualifier], ref.alias, right.projection)
            )
        joined.add(candidate)

    # residual conjuncts that touch only base tables
    base_only = [
        conjunct
        for conjunct in classified.residual
        if _refs_within(conjunct, binding)
    ]
    for conjunct in base_only:
        classified.residual.remove(conjunct)
    predicate = and_together(base_only)
    if predicate is not None:
        node = LogicalFilter(node, predicate, estimate=current_rows * 0.5)
    return node, binding, current_rows


def _pick_candidate(
    remaining: dict[str, TableRef],
    joined: set[str],
    edges: list[JoinEdge],
    applied_edges: set[int],
    estimates: dict[str, float],
) -> str:
    connected = [
        qualifier
        for qualifier in remaining
        if any(
            i not in applied_edges
            and edge.side(qualifier) is not None
            and edge.other(qualifier)[0] in joined
            for i, edge in enumerate(edges)
        )
    ]
    pool = connected or list(remaining)
    return min(pool, key=lambda q: estimates[q])


def _decide_join(
    left: LogicalNode,
    binding: Binding,
    current_rows: float,
    ref: TableRef,
    heap: HeapTable,
    table_stats: TableStats | None,
    table_pushed: list[Expr],
    connecting: list[tuple[int, JoinEdge]],
    ctx: PlannerContext,
    needed: dict[str, set[str]],
) -> tuple[LogicalNode, Binding, float]:
    qualifier = ref.qualifier

    # estimated join selectivity over all connecting edges
    join_sel = 1.0
    for _, edge in connecting:
        other_q, other_col = edge.other(qualifier)
        join_sel *= cost_model.join_selectivity(
            None, other_col, table_stats, edge.side(qualifier) or ""
        )
    pushed_sel = 1.0
    for conjunct in table_pushed:
        pushed_sel *= cost_model.predicate_selectivity(conjunct, table_stats)
    right_rows = max(heap.row_count() * pushed_sel, 0.1)
    output_rows = max(current_rows * heap.row_count() * pushed_sel * join_sel, 0.1)

    # cost the two strategies; the hash option must also scan the right side
    work_mem = getattr(ctx, "work_mem_bytes", None)
    right_width = (
        heap.data_bytes() / heap.row_count() if heap.row_count() else 80.0
    )
    hash_cost = (
        cost_model.seq_scan_cost(heap.row_count(), heap.data_pages())
        + cost_model.hash_join_cost(
            current_rows, right_rows, work_mem, right_row_bytes=right_width
        )
    )
    index_option: tuple[Index, JoinEdge] | None = None
    for _, edge in connecting:
        own_column = edge.side(qualifier)
        found = ctx.live_index(ref.table, own_column or "")
        if found is not None:
            index_option = (found[1], edge)
            break
    index_cost = float("inf")
    if index_option is not None:
        matches = max(heap.row_count() * join_sel, 0.1)
        index_cost = cost_model.index_nl_join_cost(
            current_rows, matches, heap.data_pages()
        )

    if index_option is not None and index_cost < hash_cost:
        index, main_edge = index_option
        residual_parts = [edge.expr for i, edge in connecting if edge is not main_edge]
        residual_parts.extend(table_pushed)
        join = LogicalJoin(
            left=left,
            ref=ref,
            heap=heap,
            strategy="index_nl",
            edges=[edge for _, edge in connecting],
            pushed=list(table_pushed),
            index=index,
            main_edge=main_edge,
            residual_parts=residual_parts,
            estimate=output_rows,
        )
        return join, binding.extend(table_binding(heap, ref.alias)), output_rows

    right = _decide_access(ref, heap, table_stats, table_pushed, ctx, needed)
    join = LogicalJoin(
        left=left,
        ref=ref,
        heap=heap,
        strategy="hash",
        edges=[edge for _, edge in connecting],
        pushed=list(table_pushed),
        right=right,
        estimate=output_rows,
    )
    return (
        join,
        binding.extend(table_binding(heap, ref.alias, right.projection)),
        output_rows,
    )


def _refs_within(expr: Expr, binding: Binding) -> bool:
    return all(binding.can_resolve(ref) for ref in expr.column_refs())


# -- lateral table functions ---------------------------------------------------


def _logical_laterals(
    node: LogicalNode,
    binding: Binding,
    lateral_refs: list[TableFunctionRef],
    residual: list[Expr],
    registry: FunctionRegistry,
) -> tuple[LogicalNode, Binding]:
    pending = list(residual)
    for item in lateral_refs:
        function = registry.table_function(item.call.name)
        binding = binding.extend(
            Binding(
                [
                    Slot(item.alias.lower(), name, sql_type)
                    for name, sql_type in function.output_columns
                ]
            )
        )
        ready = [c for c in pending if _refs_within(c, binding)]
        for conjunct in ready:
            pending.remove(conjunct)
        node = LogicalLateral(node, item.call, item.alias, filters=ready)
    if pending:
        raise PlanError(
            f"predicate {pending[0].sql()!r} references unknown columns"
        )
    return node, binding


# -- aggregation / projection / ordering -------------------------------------


def _logical_output(node: LogicalNode, stmt: SelectStmt) -> LogicalNode:
    aggregates = collect_aggregates(stmt.items, stmt.having, stmt.order_by)
    needs_aggregate = bool(aggregates) or bool(stmt.group_by)
    if stmt.having is not None and not needs_aggregate:
        raise PlanError("HAVING requires GROUP BY or aggregates")
    star = len(stmt.items) == 1 and isinstance(stmt.items[0].expr, Star)
    if star and needs_aggregate:
        raise PlanError("SELECT * cannot be combined with aggregation")

    if needs_aggregate:
        node = LogicalAggregate(
            node, list(stmt.group_by), aggregates, stmt.having
        )
    node = LogicalProject(node, list(stmt.items), star=star)
    if stmt.distinct:
        node = LogicalDistinct(node)
    if stmt.order_by:
        node = LogicalSort(node, list(stmt.order_by))
    if stmt.limit is not None:
        node = LogicalLimit(node, stmt.limit)
    return node
