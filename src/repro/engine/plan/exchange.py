"""Scatter-gather over partitioned heaps: the ``Exchange`` operator.

Split from :mod:`repro.engine.plan.physical` (which keeps the
single-process operators); the fragment interpreter the workers run is
:mod:`repro.engine.parallel`.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from operator import itemgetter
from typing import Callable, Iterator

from repro.engine.expr import Binding, Expr, FuncCall, Star
from repro.engine.io import (
    add_work,
    pages_of_bytes,
    work_counters,
    work_seconds,
)
from repro.engine.parallel import PartialAgg, execute_lane_fragment
from repro.engine.plan.physical import (
    Batch,
    HashAggregate,
    Operator,
    SeqScan,
    _batched,
)
from repro.engine.snapshot import active_budget, current_context, table_version
from repro.engine.storage import PartitionedHeapTable
from repro.engine.udf import FunctionRegistry
from repro.errors import ExecutionError
from repro.obs.trace import TRACER


class Exchange(Operator):
    """Scatter-gather over the partitions of a partitioned heap scan.

    Wraps a template :class:`SeqScan` of a
    :class:`~repro.engine.storage.PartitionedHeapTable`: each live
    partition (after pruning) becomes one fragment task shipped to the
    worker pool (:mod:`repro.engine.parallel`), and the coordinator
    stitches the per-partition results back together.

    * **ordered** mode (the default) k-way merges the ``(row_id, row)``
      streams by row id.  Partition buckets are ascending row-id subsets
      of the heap, so the merged stream is byte-identical to the
      unpartitioned scan order — every downstream operator (joins,
      aggregation, DISTINCT) sees exactly the stream it would have seen
      without partitioning.
    * **unordered** mode concatenates streams in partition order without
      the merge heap (for consumers that re-order anyway).
    * **partial aggregation**: when the planner pushes a GROUP BY down
      (:meth:`attach_partial_agg`), workers pre-aggregate their
      partition and the coordinator merges the mergeable accumulator
      states, emitting groups ordered by their minimal first row id —
      the same first-seen order ``HashAggregate`` produces inline.

    Pruning is *bind-aware*: equality/range predicates on the partition
    column resolve literals at plan time and parameters at execution
    time, so a cached prepared plan prunes correctly for each binding.

    Modelled I/O charges the **maximum** per-partition page count (the
    partition streams are read concurrently, so the scan costs as much
    as its slowest fragment) plus one random page per fragment for
    dispatch.  The governor is charged for each shipped slice's bytes —
    the coordinator-side estimate of per-worker memory.

    Fragments that still fail after the pool's retry budget degrade to
    inline execution through the same fragment interpreter the workers
    run, so worker loss never changes results.
    """

    def __init__(
        self,
        template: SeqScan,
        pool_provider: Callable[[], object],
        registry: FunctionRegistry,
        workers: int,
        predicate_ast: Expr | None = None,
        params=None,
        prunes: list[tuple[str, tuple[str, object]]] | None = None,
        mode: str = "ordered",
    ) -> None:
        if not isinstance(template.table, PartitionedHeapTable):
            raise ExecutionError("Exchange requires a partitioned heap")
        if mode not in ("ordered", "unordered"):
            raise ExecutionError(f"unknown exchange mode {mode!r}")
        self.template = template
        self.input = template  # children(): EXPLAIN and stats walks
        self.heap: PartitionedHeapTable = template.table
        self.alias = template.alias
        self.pool_provider = pool_provider
        self.registry = registry
        self.workers = workers
        self.predicate_ast = predicate_ast
        self.params = params
        self.prunes = list(prunes or ())
        self.mode = mode
        self.io = template.io
        self.binding = template.binding
        self.estimated_rows = template.estimated_rows
        self.agg: dict | None = None
        self.project: list[Expr] | None = None
        self._static_parts = self._static_prune()

    # -- planner hooks -----------------------------------------------------

    def attach_partial_agg(
        self,
        group_asts: list[Expr],
        agg_asts: list[tuple[str, Expr | None]],
        binding: Binding,
        estimated_rows: float,
    ) -> None:
        """Turn this exchange into a partial-aggregation exchange."""
        self.agg = {
            "group": group_asts,
            "aggs": agg_asts,
            "grand_total": not group_asts,
        }
        self.binding = binding
        self.estimated_rows = estimated_rows

    def attach_project(
        self, project_asts: list[Expr], binding: Binding
    ) -> None:
        """Push the SELECT list into the fragments.

        Workers evaluate the projection expressions (XADT method calls
        included — each worker carries the full UDF registry) per row,
        so the exchange emits final output tuples and the planner drops
        the coordinator-side ``Project``.  The heavy per-row work then
        lands in the fragments' lanes, which the modeled multi-core pool
        runs side by side.
        """
        if self.agg is not None:
            raise ExecutionError(
                "cannot push a projection into a partial-agg exchange"
            )
        self.project = list(project_asts)
        self.binding = binding

    # -- pruning -----------------------------------------------------------

    def _resolve_source(self, source: tuple[str, object]) -> object:
        kind, payload = source
        if kind == "lit":
            return payload
        return self.params.values[payload]  # type: ignore[union-attr]

    def _apply_prunes(self, resolve) -> list[int]:
        spec = self.heap.spec
        parts = set(range(spec.partitions))
        for op, source in self.prunes:
            value = resolve(source)
            if value is None:
                # ``col <op> NULL`` matches no row under SQL semantics
                return []
            if op == "=":
                parts &= {spec.partition_for(value)}
            else:
                pruned = spec.prune_range(op, value)
                if pruned is not None:
                    parts &= set(pruned)
        return sorted(parts)

    def _static_prune(self) -> list[int] | None:
        """Partitions surviving literal-only pruning; None if bind-dependent."""
        if any(source[0] != "lit" for _, source in self.prunes):
            return None
        return self._apply_prunes(lambda source: source[1])

    def _live_partitions(self) -> list[int]:
        if self._static_parts is not None:
            return self._static_parts
        return self._apply_prunes(self._resolve_source)

    # -- execution ---------------------------------------------------------

    def _param_values(self) -> tuple:
        if self.params is None or not getattr(self.params, "count", 0):
            return ()
        return tuple(self.params.values)

    def _make_task(
        self, partition: int, horizon: int, catalog_token: int, values: tuple
    ) -> dict:
        key = self.heap.schema.key
        task = {
            "kind": "agg" if self.agg is not None else "scan",
            "table": key,
            "partition": partition,
            "slice_key": (key, partition, catalog_token, horizon),
            "schema": self.heap.schema,
            "alias": self.alias,
            "predicate": self.predicate_ast,
            "projection": self.template.projection,
            "params": values,
        }
        if self.agg is not None:
            task["group"] = self.agg["group"]
            task["aggs"] = self.agg["aggs"]
        if self.project is not None:
            task["project"] = self.project
        return task

    def _execute(self) -> Iterator[Batch]:
        heap = self.heap
        version = table_version(heap)
        horizon = len(heap.rows) if version is None else version.row_count
        parts = self._live_partitions()
        if not parts:
            if self.agg is not None and self.agg["grand_total"]:
                yield [
                    tuple(
                        PartialAgg(kind).result()
                        for kind, _ in self.agg["aggs"]
                    )
                ]
            return
        if self.io is not None:
            # partitions live on separate spindles (shared-nothing layout,
            # DESIGN.md §12) and are read concurrently: charge the widest
            # fragment, not the sum, and one parallel dispatch seek
            self.io.charge_sequential(
                max(pages_of_bytes(heap.partition_bytes(p)) for p in parts)
            )
            self.io.charge_random(1)
        budget = active_budget()
        if budget is not None:
            for p in parts:
                budget.charge_memory(heap.partition_bytes(p))
        context = current_context()
        catalog_token = (
            context.snapshot.catalog.version
            if context is not None and context.snapshot is not None
            else -1
        )
        values = self._param_values()
        tasks = [
            self._make_task(p, horizon, catalog_token, values) for p in parts
        ]
        providers = [
            (lambda p=p: heap.partition_rows(p, limit=horizon)) for p in parts
        ]
        pool = self.pool_provider() if self.pool_provider is not None else None
        if pool is not None:
            with TRACER.span("exchange"):
                outcomes = pool.run_tasks(list(zip(tasks, providers)))
        else:
            outcomes = [("failed", "no worker pool", None, 0)] * len(tasks)
        results = []
        #: counted work per lane: a worker slot, or None = the coordinator
        lanes: dict[int | None, Counter] = defaultdict(Counter)
        for task, provider, outcome in zip(tasks, providers, outcomes):
            if outcome[0] == "ok":
                _, result, work, lane = outcome
            else:
                # degrade to inline execution of the same fragment: it
                # runs on, and lengthens, the coordinator's own lane
                result, work = execute_lane_fragment(
                    task, provider(), self.registry
                )
                lane = None
            results.append(result)
            lanes[lane].update(work)
        # On the modeled pool (one core per worker plus the coordinator,
        # DESIGN.md §12) the lanes run side by side, so the exchange takes
        # as long as its busiest lane: every other lane's work is booked
        # as overlapped.
        io = work_counters()
        busiest = max(lanes, key=lambda lane: work_seconds(lanes[lane]))
        for lane, work in lanes.items():
            add_work(io.work, work)
            if lane is not busiest:
                add_work(io.overlapped, work)
        yield from self._stitch(results)

    def _stitch(self, results) -> Iterator[Batch]:
        """Merge fragment results into output batches (coordinator side)."""
        if self.agg is not None:
            yield from self._merge_partial_agg(results)
            return
        size = self.batch_size
        if self.mode == "ordered":
            merged = heapq.merge(*results, key=itemgetter(0))
            batch: Batch = []
            for _, row in merged:
                batch.append(row)
                if len(batch) >= size:
                    yield batch
                    batch = []
            if batch:
                yield batch
        else:
            for pairs in results:
                for start in range(0, len(pairs), size):
                    yield [row for _, row in pairs[start : start + size]]

    def _merge_partial_agg(self, results) -> Iterator[Batch]:
        assert self.agg is not None
        kinds = [kind for kind, _ in self.agg["aggs"]]
        merged: dict[tuple, list] = {}
        for partial in results:
            for key, (raw_key, first_rid, states) in partial.items():
                entry = merged.get(key)
                if entry is None:
                    entry = [raw_key, first_rid, [
                        PartialAgg(kind) for kind in kinds
                    ]]
                    merged[key] = entry
                elif first_rid < entry[1]:
                    entry[1] = first_rid
                for accumulator, state in zip(entry[2], states):
                    accumulator.merge(state)
        if not merged:
            if self.agg["grand_total"]:
                yield [
                    tuple(PartialAgg(kind).result() for kind in kinds)
                ]
            return
        # ascending minimal row id == HashAggregate's first-seen order
        rows = [
            raw_key + tuple(acc.result() for acc in accumulators)
            for raw_key, _, accumulators in sorted(
                merged.values(), key=itemgetter(1)
            )
        ]
        yield from _batched(rows, self.batch_size)

    # -- explain -----------------------------------------------------------

    def explain(self, depth: int = 0) -> list[str]:
        total = self.heap.spec.partitions
        live = "?" if self._static_parts is None else len(self._static_parts)
        suffix = f" exchange[{live}/{total} parts] workers={self.workers}"
        if self.agg is not None:
            suffix += " partial-agg"
        if self.project is not None:
            names = ", ".join(slot.name for slot in self.binding.slots)
            suffix += f" project[{names}]"
        if self.mode != "ordered":
            suffix += f" {self.mode}"
        lines = [self._line(depth, f"Exchange{suffix}")]
        lines.extend(self.template.explain(depth + 1))
        return lines


#: aggregate kinds with mergeable partial states (DESIGN.md §12)
_PARTIAL_AGG_KINDS = frozenset({"count", "sum", "avg", "min", "max"})


def maybe_push_partial_agg(
    source: Operator,
    aggregate: Operator,
    group_by: list[Expr],
    aggregates: list[FuncCall],
) -> Operator:
    """Fold ``HashAggregate(Exchange)`` into a partial-agg exchange.

    Only when the aggregate sits *directly* on a scan-mode Exchange and
    every aggregate is non-DISTINCT with a mergeable partial state do
    workers pre-aggregate their partitions; the coordinator merges the
    states and reproduces HashAggregate's first-seen group order by
    minimal row id.  Anything else keeps the inline HashAggregate (the
    Exchange's ordered merge already feeds it the exact row stream).
    """
    if not isinstance(source, Exchange) or source.agg is not None:
        return aggregate
    if not isinstance(aggregate, HashAggregate) or aggregate.input is not source:
        return aggregate
    agg_asts: list[tuple[str, Expr | None]] = []
    for call in aggregates:
        kind = call.name.lower()
        if kind not in _PARTIAL_AGG_KINDS or call.distinct:
            return aggregate
        if kind == "count" and (not call.args or isinstance(call.args[0], Star)):
            agg_asts.append((kind, None))
        else:
            agg_asts.append((kind, call.args[0]))
    source.attach_partial_agg(
        list(group_by),
        agg_asts,
        aggregate.binding,
        aggregate.estimated_rows,
    )
    return source



__all__ = ["Exchange", "maybe_push_partial_agg"]
