"""Lowering: logical IR -> native operator tree.

The optimizer (:func:`repro.engine.plan.optimizer.plan_logical`) records
every planning decision on the logical IR; this module mechanically
builds the corresponding operators, compiling each predicate/projection
AST with :mod:`repro.engine.expr_compile` against the binding of the
operator it will run over.  The golden-EXPLAIN snapshot tests pin that
the round trip is byte-for-byte plan-neutral.

:meth:`_SelectLowering.lower` reads in evaluation order: FROM/joins and
WHERE (``_lower_rel``), GROUP BY, HAVING, ORDER BY, the SELECT list,
DISTINCT, LIMIT.
"""

from __future__ import annotations

from operator import itemgetter

from repro.engine.expr import (
    Binding,
    ColumnRef,
    Compiled,
    Expr,
    Literal,
    ParamBox,
    Parameter,
    Slot,
    Star,
    and_together,
)
from repro.engine.expr_compile import compile_projection, compile_row_expr
from repro.engine.plan.exchange import Exchange, maybe_push_partial_agg
from repro.engine.plan.logical import (
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
    infer_type,
    output_name,
    rebuild_with_slots,
    xadt_access,
)
from repro.engine.plan.physical import (
    AggSpec,
    Filter,
    HashAggregate,
    HashDistinct,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    LateralFunctionScan,
    Limit,
    NestedLoopJoin,
    Operator,
    Project,
    SeqScan,
    Sort,
    table_binding,
)
from repro.engine.types import INTEGER, VARCHAR, SqlType
from repro.engine.udf import FunctionRegistry
from repro.errors import PlanError


def lower_select(
    root: LogicalNode, ctx, params: ParamBox | None = None
) -> Operator:
    """Lower a decided logical plan to the native operator tree."""
    return _SelectLowering(ctx, params).lower(root)


class _SelectLowering:
    """One lowering pass: carries the context and the bind-value box."""

    def __init__(self, ctx, params: ParamBox | None) -> None:
        self.ctx = ctx
        self.registry: FunctionRegistry = ctx.registry
        self.params = params
        self.config = ctx.exec_config
        #: the XADT access path this config routes method calls to
        self.xadt_label = (
            "xindex" if self.config.xadt_structural_index else "scan"
        )
        self.io = getattr(ctx, "io", None)

    def compile(self, expr: Expr, binding: Binding) -> Compiled:
        return compile_row_expr(expr, binding, self.registry, self.params)

    def lower(self, root: LogicalNode) -> Operator:
        # peel the output chain the optimizer stacked on top
        limit: int | None = None
        sort: LogicalSort | None = None
        distinct = False
        aggregate: LogicalAggregate | None = None
        node = root
        if isinstance(node, LogicalLimit):
            limit = node.limit
            node = node.input
        if isinstance(node, LogicalSort):
            sort = node
            node = node.input
        if isinstance(node, LogicalDistinct):
            distinct = True
            node = node.input
        if not isinstance(node, LogicalProject):
            raise PlanError("logical plan is missing its projection node")
        project = node
        node = node.input
        if isinstance(node, LogicalAggregate):
            aggregate = node
            node = node.input

        # FROM, joins, WHERE
        plan = self._lower_rel(node)

        # GROUP BY / aggregates, HAVING.  Above the aggregate, expressions
        # run over its output row: ``substitutions`` maps each group key
        # and aggregate call to its slot there.
        substitutions: dict[Expr, int] = {}
        if aggregate is not None:
            plan, substitutions = self._lower_aggregate(plan, aggregate)
            if aggregate.having is not None:
                plan = Filter(
                    plan,
                    self.compile(
                        _substituted(aggregate.having, substitutions),
                        plan.binding,
                    ),
                    aggregate.having.sql(),
                    xadt_access=xadt_access([aggregate.having], self.xadt_label),
                )

        # SELECT list (compiled here, placed after ORDER BY)
        select_exprs = [item.expr for item in project.items]
        if project.star:
            tuple_fn = None  # rows already have exactly this layout
            projected_slots = [
                Slot("", slot.name, slot.sql_type) for slot in plan.binding.slots
            ]
        else:
            tuple_fn = compile_projection(
                [_substituted(expr, substitutions) for expr in select_exprs],
                plan.binding,
                self.registry,
                self.params,
            )
            projected_slots = [
                Slot("", output_name(item.expr, item.alias, position),
                     infer_type(item.expr, plan.binding, self.registry))
                for position, item in enumerate(project.items)
            ]

        # ORDER BY: before projection when the keys compile there (they
        # can see all columns + aggregates), else on aliases of the output
        post_sort_keys: list[tuple[int, bool]] = []
        if sort is not None:
            try:
                keys = [
                    self.compile(
                        _substituted(order.expr, substitutions), plan.binding
                    )
                    for order in sort.order_by
                ]
            except PlanError:
                output_binding = Binding(projected_slots)
                for order in sort.order_by:
                    if not isinstance(order.expr, ColumnRef):
                        raise
                    post_sort_keys.append(
                        (output_binding.resolve(order.expr), order.descending)
                    )
            else:
                pre_sort = Sort(plan, keys, [o.descending for o in sort.order_by])
                pre_sort.estimated_rows = plan.estimated_rows
                plan = pre_sort

        if (
            tuple_fn is not None
            and isinstance(plan, Exchange)
            and plan.agg is None
            and plan.project is None
        ):
            # push the SELECT list into the fragments: workers evaluate the
            # (already-validated) expressions per row, the exchange emits
            # final output tuples, and the coordinator-side Project is
            # dropped.  Per-row XADT decode then runs partition-parallel.
            plan.attach_project(select_exprs, Binding(projected_slots))
        else:
            projected = Project(
                plan,
                projected_slots,
                tuple_fn,
                xadt_access=xadt_access(select_exprs, self.xadt_label),
            )
            projected.estimated_rows = plan.estimated_rows
            plan = projected

        if distinct:
            distinct_input_rows = plan.estimated_rows
            plan = HashDistinct(plan)
            plan.estimated_rows = distinct_input_rows * 0.5

        if post_sort_keys:
            plan = Sort(
                plan,
                [itemgetter(index) for index, _ in post_sort_keys],
                [desc for _, desc in post_sort_keys],
            )

        if limit is not None:
            plan = Limit(plan, limit)
        return plan

    # -- relational part (scans, joins, filters, laterals) -------------------

    def _lower_rel(self, node: LogicalNode) -> Operator:
        if isinstance(node, LogicalScan):
            return self._lower_scan(node)
        if isinstance(node, LogicalJoin):
            return self._lower_join(node)
        if isinstance(node, LogicalFilter):
            plan = self._lower_rel(node.input)
            filtered = Filter(
                plan,
                self.compile(node.predicate, plan.binding),
                node.predicate.sql(),
                xadt_access=xadt_access([node.predicate], self.xadt_label),
            )
            filtered.estimated_rows = node.estimate
            return filtered
        if isinstance(node, LogicalLateral):
            return self._lower_lateral(node)
        raise PlanError(f"cannot lower logical node {type(node).__name__}")

    def _lower_scan(self, scan: LogicalScan) -> Operator:
        heap = scan.heap
        ref = scan.ref
        # pushed predicates compile against the *full* table binding
        # (they run before the scan's projection drops columns)
        binding = table_binding(heap, ref.alias)
        if scan.access == "index":
            eq_conjunct, key_expr = scan.eq_conjunct, scan.key_expr
            rest = [c for c in scan.pushed if c is not eq_conjunct]
            residual = and_together(rest)
            # literal keys probe directly; parameter keys resolve per execution
            key_value = key_expr.value if isinstance(key_expr, Literal) else None
            key_fn = (
                self.compile(key_expr, Binding([]))
                if isinstance(key_expr, Parameter)
                else None
            )
            operator: Operator = IndexScan(
                heap,
                ref.alias,
                scan.index,
                key=key_value,
                key_fn=key_fn,
                residual=self.compile(residual, binding) if residual else None,
                residual_sql=residual.sql() if residual else "",
                io=self.io,
                projection=scan.projection,
                xadt_access=xadt_access(rest, self.xadt_label),
            )
            operator.estimated_rows = scan.estimate
            return operator
        predicate = and_together(scan.pushed)
        operator = SeqScan(
            heap,
            ref.alias,
            predicate=self.compile(predicate, binding) if predicate else None,
            predicate_sql=predicate.sql() if predicate else "",
            io=self.io,
            projection=scan.projection,
            xadt_access=xadt_access(scan.pushed, self.xadt_label),
        )
        operator.estimated_rows = scan.estimate
        if scan.exchange:
            exchange = Exchange(
                operator,
                pool_provider=getattr(self.ctx, "worker_pool", None),
                registry=self.registry,
                workers=self.config.parallel_workers,
                predicate_ast=predicate,
                params=self.params,
                prunes=scan.prunes,
            )
            exchange.estimated_rows = scan.estimate
            return exchange
        return operator

    def _lower_join(self, join: LogicalJoin) -> Operator:
        plan = self._lower_rel(join.left)
        heap = join.heap
        ref = join.ref
        qualifier = ref.qualifier
        if join.strategy == "index_nl":
            main_edge = join.main_edge
            other_q, other_col = main_edge.other(qualifier)
            left_key_slot = plan.binding.resolve(ColumnRef(other_q, other_col))
            residual = and_together(join.residual_parts)
            operator: Operator = IndexNestedLoopJoin(
                plan,
                heap,
                ref.alias,
                join.index,
                left_key_slot,
                residual=(
                    self.compile(
                        residual,
                        plan.binding.extend(table_binding(heap, ref.alias)),
                    )
                    if residual
                    else None
                ),
                residual_sql=residual.sql() if residual else "",
                io=self.io,
            )
            operator.estimated_rows = join.estimate
            return operator
        right = self._lower_scan(join.right)
        if join.strategy == "cross":
            operator = NestedLoopJoin(plan, right)
            operator.estimated_rows = join.estimate
            return operator
        left_keys: list[int] = []
        right_keys: list[int] = []
        for edge in join.edges:
            own_column = edge.side(qualifier)
            other_q, other_col = edge.other(qualifier)
            left_keys.append(plan.binding.resolve(ColumnRef(other_q, other_col)))
            right_keys.append(
                right.binding.resolve(ColumnRef(qualifier, own_column))
            )
        operator = HashJoin(plan, right, left_keys, right_keys, io=self.io)
        operator.estimated_rows = join.estimate
        return operator

    def _lower_lateral(self, node: LogicalLateral) -> Operator:
        plan = self._lower_rel(node.input)
        function = self.registry.bind_table(node.call.name, len(node.call.args))
        args = [self.compile(arg, plan.binding) for arg in node.call.args]
        plan = LateralFunctionScan(plan, function, args, node.alias, self.registry)
        plan.estimated_rows = plan.input.estimated_rows * 4  # fan-out guess
        predicate = and_together(node.filters)
        if predicate is not None:
            plan = Filter(
                plan,
                self.compile(predicate, plan.binding),
                predicate.sql(),
                xadt_access=xadt_access([predicate], self.xadt_label),
            )
            plan.estimated_rows = plan.input.estimated_rows * 0.5
        return plan

    # -- aggregation ---------------------------------------------------------

    def _lower_aggregate(
        self, plan: Operator, aggregate: LogicalAggregate
    ) -> tuple[Operator, dict[Expr, int]]:
        """The aggregate over ``plan`` and the slot of each of its outputs."""
        group_exprs_ast = list(aggregate.group_by)
        group_compiled = [
            self.compile(expr, plan.binding) for expr in group_exprs_ast
        ]
        group_slots = []
        for position, expr in enumerate(group_exprs_ast):
            if isinstance(expr, ColumnRef):
                slot = plan.binding.slot_of(expr)
                group_slots.append(Slot("", slot.name, slot.sql_type))
            else:
                group_slots.append(
                    Slot("", f"group_{position}",
                         infer_type(expr, plan.binding, self.registry))
                )

        agg_specs: list[AggSpec] = []
        agg_slots: list[Slot] = []
        for position, call in enumerate(aggregate.aggregates):
            kind = call.name.lower()
            if kind == "count" and (not call.args or isinstance(call.args[0], Star)):
                arg = None
            else:
                if len(call.args) != 1:
                    raise PlanError(f"{call.name}() takes exactly one argument")
                arg = self.compile(call.args[0], plan.binding)
            agg_specs.append(AggSpec(kind, arg, call.distinct))
            result_type: SqlType = INTEGER if kind in ("count", "sum") else VARCHAR
            if (
                kind in ("min", "max", "avg")
                and call.args
                and isinstance(call.args[0], ColumnRef)
            ):
                result_type = plan.binding.slot_of(call.args[0]).sql_type
            agg_slots.append(Slot("", f"agg_{position}", result_type))

        hash_aggregate = HashAggregate(
            plan, group_compiled, group_slots, agg_specs, agg_slots
        )
        hash_aggregate.estimated_rows = max(plan.estimated_rows * 0.1, 1.0)

        substitutions: dict[Expr, int] = {}
        for position, expr in enumerate(group_exprs_ast):
            substitutions[expr] = position
        for position, call in enumerate(aggregate.aggregates):
            substitutions[call] = len(group_exprs_ast) + position
        pushed = maybe_push_partial_agg(
            plan, hash_aggregate, aggregate.group_by, aggregate.aggregates
        )
        return pushed, substitutions


def _substituted(expr: Expr, substitutions: dict[Expr, int]) -> Expr:
    """``expr`` as evaluated over an aggregate's output row.

    Group keys and aggregate calls become ``SlotRef`` placeholders;
    whatever column reference is left names neither.  Without an
    aggregate (no substitutions) the expression is returned untouched.
    """
    if not substitutions:
        return expr
    rebuilt = rebuild_with_slots(expr, substitutions)
    if rebuilt is None:
        raise PlanError(f"cannot plan expression {expr.sql()!r}")
    for ref in rebuilt.column_refs():
        raise PlanError(
            f"column {ref.sql()!r} must appear in GROUP BY or inside an aggregate"
        )
    return rebuilt


__all__ = ["lower_select"]
