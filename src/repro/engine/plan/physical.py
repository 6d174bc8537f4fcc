"""Physical operators (batch-at-a-time model).

Every operator exposes its output :class:`~repro.engine.expr.Binding`
(flat slot layout), a ``batches()`` iterator yielding **lists of row
tuples** (at most ``batch_size`` rows,
:data:`~repro.engine.config.DEFAULT_BATCH_SIZE` unless set on the
node), a row-flattening ``rows()`` convenience view, and an
``explain()`` listing.

``batches()`` is a template method over the subclass's ``_execute()``:
when EXPLAIN ANALYZE attaches per-operator runtime stats it wraps the
iterator with rows-out counting (rows *inside* batches, not batch
count) and monotonic timing, and otherwise it returns the raw iterator
(one branch of overhead per operator per execution).  Batching moves the
per-tuple interpreter tax (iterator resumption, instrumentation branch,
operator dispatch) to a per-batch cost: the inner loops below run over
plain local lists, mostly as list comprehensions.

Predicates and expressions arrive pre-compiled by
:mod:`repro.engine.expr_compile` — the only compiler a plan holds — so
operators stay free of name-resolution concerns and may rely on the
closures' ``batch_filter`` / ``batch_eval`` companions to process a
whole batch in one generated comprehension.  The lowering
(:mod:`repro.engine.plan.lowering`) wires closures against the correct
child bindings, including the scan-level projection pushdown
(``SeqScan``/``IndexScan`` accept a ``projection`` column list and then
bind only the surviving slots).  The scatter-gather ``Exchange`` lives
in :mod:`repro.engine.plan.exchange`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator

from repro.engine.config import DEFAULT_BATCH_SIZE
from repro.engine.expr import Binding, Compiled, Slot
from repro.engine.index import Index
from repro.engine.io import (
    IoCounters,
    batch_row_bytes,
    estimate_row_bytes,
    pages_of_bytes,
    work_counters,
)
from repro.engine.parallel import AGG_UPDATES, PartialAgg, row_picker
from repro.engine.snapshot import active_budget, read_bound, table_version
from repro.engine.storage import HeapTable
from repro.engine.udf import FunctionRegistry, TableFunction
from repro.engine.values import batch_group_keys
from repro.errors import ExecutionError
from repro.obs.explain import OperatorStats

#: a batch is a plain list of row tuples — cheap to slice, comprehend, extend
Batch = list


def _batched(rows: Iterable[tuple], size: int) -> Iterator[Batch]:
    """Re-chunk a row iterable into batches of at most ``size`` rows."""
    if isinstance(rows, list):
        for start in range(0, len(rows), size):
            yield rows[start : start + size]
        return
    batch: Batch = []
    for row in rows:
        batch.append(row)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


def _instrumented(impl: Iterator[Batch], stats: OperatorStats) -> Iterator[Batch]:
    """Wrap an operator's batch iterator with row counting and timing.

    ``stats.rows_out`` counts the rows *inside* each batch, so EXPLAIN
    ANALYZE actuals stay per-row under batching.  The time charged to
    ``stats.seconds`` is everything spent inside ``next()`` — this
    operator plus its children; EXPLAIN ANALYZE derives self time by
    subtracting the children's inclusive totals.
    """
    perf = time.perf_counter
    if stats.started_at is None:
        stats.started_at = perf()
    while True:
        begin = perf()
        try:
            batch = next(impl)
        except StopIteration:
            now = perf()
            stats.seconds += now - begin
            stats.finished_at = now
            return
        stats.seconds += perf() - begin
        stats.rows_out += len(batch)
        yield batch


def _governed(impl: Iterator[Batch], budget) -> Iterator[Batch]:
    """Check the statement deadline before producing each batch.

    Wrapped around every operator when the active
    :class:`~repro.engine.governor.StatementBudget` carries a timeout,
    so abort latency is bounded by the cost of one batch at the slowest
    operator (plus one UDF call; see :mod:`repro.engine.udf`).
    """
    for batch in impl:
        budget.tick()
        yield batch


class Operator:
    """Base class of physical operators.

    Subclasses implement :meth:`_execute` (yielding batches); the public
    :meth:`batches` is a template method that returns the raw iterator
    when no :class:`~repro.obs.explain.OperatorStats` is attached (the
    normal execution path — the only added cost is this one branch) and
    an instrumented wrapper when EXPLAIN ANALYZE or tracing attached
    one.  :meth:`rows` flattens batches for consumers that want a plain
    row stream (Limit's early-exit pull, result assembly, tests).
    """

    binding: Binding
    #: optimizer's cardinality estimate, for EXPLAIN output
    estimated_rows: float = 0.0
    #: runtime counters; attached by EXPLAIN ANALYZE, None otherwise
    stats: OperatorStats | None = None
    #: rows per emitted batch (tests shrink it to put boundaries everywhere)
    batch_size: int = DEFAULT_BATCH_SIZE

    def batches(self) -> Iterator[Batch]:
        impl = self._execute()
        budget = active_budget()
        if budget is not None and budget.deadline is not None:
            impl = _governed(impl, budget)
        stats = self.stats
        if stats is None:
            return impl
        stats.loops += 1
        return _instrumented(impl, stats)

    def rows(self) -> Iterator[tuple]:
        for batch in self.batches():
            yield from batch

    def _execute(self) -> Iterator[Batch]:
        # compatibility shim: ad-hoc operators (tests, harnesses) may
        # override rows() instead of the batch protocol — chunk them
        if type(self).rows is not Operator.rows or "rows" in self.__dict__:
            yield from _batched(self.rows(), self.batch_size)
            return
        raise NotImplementedError

    def children(self) -> list["Operator"]:
        """Direct inputs in explain order (left before right)."""
        out: list["Operator"] = []
        for attribute in ("left", "right", "input"):
            child = getattr(self, attribute, None)
            if isinstance(child, Operator):
                out.append(child)
        return out

    def explain(self, depth: int = 0) -> list[str]:
        raise NotImplementedError

    def _line(self, depth: int, text: str) -> str:
        return "  " * depth + text + f"  [est {self.estimated_rows:.0f} rows]"


class SeqScan(Operator):
    """Full scan of a heap table, with pushed-down filter and projection.

    The predicate runs against the *full* storage row; the projection
    then drops unused columns before the batch leaves the scan, so
    downstream operators never materialize dropped columns.
    """

    def __init__(
        self,
        table: HeapTable,
        alias: str,
        predicate: Compiled | None = None,
        predicate_sql: str = "",
        io: IoCounters | None = None,
        projection: list[int] | None = None,
        xadt_access: str | None = None,
    ) -> None:
        self.table = table
        self.alias = alias.lower()
        self.predicate = predicate
        self.predicate_sql = predicate_sql
        self.io = io
        self.projection = projection
        self.xadt_access = xadt_access
        self.binding = table_binding(table, alias, projection)

    def _execute(self) -> Iterator[Batch]:
        # resolve the snapshot horizon once per execution: the pinned
        # extent bounds both the rows yielded and the pages charged
        version = table_version(self.table)
        bound = None if version is None else version.row_count
        if self.io is not None:
            pages = (
                self.table.data_pages() if version is None else version.pages
            )
            self.io.charge_sequential(pages)
        # like its pages, a scan's rows are charged whole and up front
        work_counters().work["scan_rows"] += (
            self.table.row_count() if bound is None else bound
        )
        predicate = self.predicate
        pick = row_picker(self.projection)
        for chunk in self.table.scan_batches(self.batch_size, limit=bound):
            if predicate is not None:
                chunk = predicate.batch_filter(chunk)
                if not chunk:
                    continue
            if pick is not None:
                chunk = [pick(row) for row in chunk]
            yield chunk

    def explain(self, depth: int = 0) -> list[str]:
        suffix = f" filter[{self.predicate_sql}]" if self.predicate else ""
        if self.projection is not None:
            names = ",".join(slot.name for slot in self.binding.slots)
            suffix += f" cols[{names}]"
        if self.xadt_access is not None:
            suffix += f" xadt[{self.xadt_access}]"
        return [
            self._line(
                depth, f"SeqScan {self.table.schema.name} as {self.alias}{suffix}"
            )
        ]


class IndexScan(Operator):
    """Equality probe of an index, with residual filter/projection."""

    def __init__(
        self,
        table: HeapTable,
        alias: str,
        index: Index,
        key: object = None,
        residual: Compiled | None = None,
        residual_sql: str = "",
        io: IoCounters | None = None,
        key_fn: Compiled | None = None,
        projection: list[int] | None = None,
        xadt_access: str | None = None,
    ) -> None:
        self.table = table
        self.alias = alias.lower()
        self.index = index
        self.key = key
        #: lazy probe key (a closure over the empty row) — used when the
        #: key is a prepared-statement parameter resolved per execution
        self.key_fn = key_fn
        self.residual = residual
        self.residual_sql = residual_sql
        self.io = io
        self.projection = projection
        self.xadt_access = xadt_access
        self.binding = table_binding(table, alias, projection)

    def _execute(self) -> Iterator[Batch]:
        bound = read_bound(self.table)  # snapshot horizon, once per run
        if self.io is not None:
            self.io.charge_random(1)  # leaf descent; interior pages cached
        key = self.key_fn(()) if self.key_fn is not None else self.key
        fetch = self.table.fetch
        residual = self.residual
        pick = row_picker(self.projection)
        io = self.io
        rows_per_page = _rows_per_page(self.table)
        touched: set[int] = set()
        size = self.batch_size
        batch: Batch = []
        row_ids = self.index.lookup(key, bound=bound)
        work_counters().work["scan_rows"] += len(row_ids)
        for row_id in row_ids:
            if io is not None:
                page = row_id // rows_per_page
                if page not in touched:  # buffer pool caches within a query
                    touched.add(page)
                    io.charge_random(1)
            row = fetch(row_id)
            if residual is None or residual(row):
                batch.append(pick(row) if pick is not None else row)
                if len(batch) >= size:
                    yield batch
                    batch = []
        if batch:
            yield batch

    def explain(self, depth: int = 0) -> list[str]:
        if self.key_fn is not None and self.key is None:
            probe = "key = ?"
        else:
            probe = f"key = {self.key!r}"
        suffix = f" residual[{self.residual_sql}]" if self.residual else ""
        if self.projection is not None:
            names = ",".join(slot.name for slot in self.binding.slots)
            suffix += f" cols[{names}]"
        if self.xadt_access is not None:
            suffix += f" xadt[{self.xadt_access}]"
        return [
            self._line(
                depth,
                f"IndexScan {self.table.schema.name} as {self.alias} "
                f"using {self.index.definition.name} ({probe}){suffix}",
            )
        ]


class HashJoin(Operator):
    """Equi-join: build a hash table on the right input, probe with the left."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: list[int],
        right_keys: list[int],
        residual: Compiled | None = None,
        residual_sql: str = "",
        io: IoCounters | None = None,
    ) -> None:
        if len(left_keys) != len(right_keys) or not left_keys:
            raise ExecutionError("hash join requires matching, non-empty key lists")
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.residual_sql = residual_sql
        self.io = io
        self.binding = left.binding.extend(right.binding)

    def _execute(self) -> Iterator[Batch]:
        table: dict[object, list[tuple]] = {}
        composite = len(self.right_keys) > 1
        right_key = itemgetter(*self.right_keys)
        build_bytes = 0
        budget = active_budget()
        setdefault = table.setdefault
        work = work_counters().work
        for batch in self.right.batches():
            work["hash_build_rows"] += len(batch)
            width = batch_row_bytes(batch)
            build_bytes += width
            keys = batch_group_keys(list(map(right_key, batch)), composite)
            if composite:
                for key, row in zip(keys, batch):
                    if None not in key:  # NULL keys never join
                        setdefault(key, []).append(row)
            else:
                for key, row in zip(keys, batch):
                    if key is not None:
                        setdefault(key, []).append(row)
            if budget is not None:
                budget.charge_memory(width)
        spilled = (
            self.io is not None and build_bytes > self.io.work_mem_bytes
        )
        left_key = itemgetter(*self.left_keys)
        residual = self.residual
        get = table.get
        probe_bytes = 0
        for left_batch in self.left.batches():
            work["hash_probe_rows"] += len(left_batch)
            if spilled:
                probe_bytes += batch_row_bytes(left_batch)
            keys = batch_group_keys(list(map(left_key, left_batch)), composite)
            # a NULL key (or part) finds no bucket: the build skipped them
            if residual is None:
                out = [
                    left_row + right_row
                    for left_row, key in zip(left_batch, keys)
                    for right_row in get(key, ())
                ]
            else:  # filter as the pairs are formed: only passing rows are kept
                out = residual.batch_filter(
                    left_row + right_row
                    for left_row, key in zip(left_batch, keys)
                    for right_row in get(key, ())
                )
            if out:
                yield out
        if spilled:
            # GRACE partitioning: both inputs are written out sequentially
            # and read back during the merge phase, where partition files
            # interleave — the re-reads behave like random page I/O.
            pages = pages_of_bytes(build_bytes) + pages_of_bytes(probe_bytes)
            self.io.charge_spill(pages)
            self.io.charge_random(pages)
            self.io.notes.append(
                f"hash join spilled {pages} pages (build {build_bytes} B)"
            )

    def explain(self, depth: int = 0) -> list[str]:
        keys = ", ".join(
            f"{self.left.binding.slots[l].qualifier}.{self.left.binding.slots[l].name}"
            f" = {self.right.binding.slots[r].qualifier}.{self.right.binding.slots[r].name}"
            for l, r in zip(self.left_keys, self.right_keys)
        )
        suffix = f" residual[{self.residual_sql}]" if self.residual else ""
        lines = [self._line(depth, f"HashJoin on {keys}{suffix}")]
        lines.extend(self.left.explain(depth + 1))
        lines.extend(self.right.explain(depth + 1))
        return lines


class NestedLoopJoin(Operator):
    """General join: the right input is materialized and rescanned per row."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        predicate: Compiled | None = None,
        predicate_sql: str = "",
    ) -> None:
        self.left = left
        self.right = right
        self.predicate = predicate
        self.predicate_sql = predicate_sql
        self.binding = left.binding.extend(right.binding)

    def _execute(self) -> Iterator[Batch]:
        budget = active_budget()
        if budget is None:
            right_rows = [
                row for batch in self.right.batches() for row in batch
            ]
        else:
            right_rows = []
            for batch in self.right.batches():
                right_rows.extend(batch)
                budget.charge_memory(batch_row_bytes(batch))
        predicate = self.predicate
        work = work_counters().work
        for left_batch in self.left.batches():
            work["operator_rows"] += len(left_batch) * len(right_rows)  # pairs
            out: Batch = []
            if predicate is None:
                for left_row in left_batch:
                    out.extend(left_row + right_row for right_row in right_rows)
            else:
                for left_row in left_batch:
                    for right_row in right_rows:
                        combined = left_row + right_row
                        if predicate(combined):
                            out.append(combined)
            if out:
                yield out

    def explain(self, depth: int = 0) -> list[str]:
        suffix = f" on [{self.predicate_sql}]" if self.predicate else " (cross)"
        lines = [self._line(depth, f"NestedLoopJoin{suffix}")]
        lines.extend(self.left.explain(depth + 1))
        lines.extend(self.right.explain(depth + 1))
        return lines


class IndexNestedLoopJoin(Operator):
    """For each left row, probe an index on the inner table.

    This is the access path that lets the Hybrid schema exploit its
    parentID indexes: joins become O(n log n) instead of O(n^2).
    """

    def __init__(
        self,
        left: Operator,
        table: HeapTable,
        alias: str,
        index: Index,
        left_key_slot: int,
        residual: Compiled | None = None,
        residual_sql: str = "",
        io: IoCounters | None = None,
    ) -> None:
        self.left = left
        self.table = table
        self.alias = alias.lower()
        self.index = index
        self.left_key_slot = left_key_slot
        self.residual = residual
        self.residual_sql = residual_sql
        self.io = io
        self.binding = left.binding.extend(table_binding(table, alias))

    def _execute(self) -> Iterator[Batch]:
        bound = read_bound(self.table)  # snapshot horizon, once per run
        fetch = self.table.fetch
        lookup = self.index.lookup
        key_slot = self.left_key_slot
        residual = self.residual
        io = self.io
        rows_per_page = _rows_per_page(self.table)
        probed_keys: set[object] = set()
        touched_pages: set[int] = set()
        work = work_counters().work
        for left_batch in self.left.batches():
            work["operator_rows"] += len(left_batch)  # one index descent each
            fetched = 0
            out: Batch = []
            append = out.append
            for left_row in left_batch:
                key = left_row[key_slot]
                if key is None:
                    continue
                if io is not None and key not in probed_keys:
                    probed_keys.add(key)
                    io.charge_random(1)  # index leaf, cached per key
                row_ids = lookup(key, bound=bound)
                fetched += len(row_ids)
                for row_id in row_ids:
                    if io is not None:
                        page = row_id // rows_per_page
                        if page not in touched_pages:
                            touched_pages.add(page)
                            io.charge_random(1)
                    combined = left_row + fetch(row_id)
                    if residual is None or residual(combined):
                        append(combined)
            work["scan_rows"] += fetched
            if out:
                yield out

    def explain(self, depth: int = 0) -> list[str]:
        key_slot = self.left.binding.slots[self.left_key_slot]
        suffix = f" residual[{self.residual_sql}]" if self.residual else ""
        lines = [
            self._line(
                depth,
                f"IndexNLJoin {self.table.schema.name} as {self.alias} using "
                f"{self.index.definition.name} (outer key "
                f"{key_slot.qualifier}.{key_slot.name}){suffix}",
            )
        ]
        lines.extend(self.left.explain(depth + 1))
        return lines


class LateralFunctionScan(Operator):
    """DB2-style lateral table function: invoked once per input row.

    The paper's ``TABLE(unnest(speaker, 'speaker')) unnestedS`` runs this
    way — argument expressions may reference the columns of FROM items to
    the left.
    """

    def __init__(
        self,
        input_op: Operator,
        function: TableFunction,
        args: list[Compiled],
        alias: str,
        registry: FunctionRegistry,
    ) -> None:
        self.input = input_op
        #: bound once, at lowering; ``fn``/``invoke`` are read per call
        self.function = function
        self.args = args
        self.alias = alias.lower()
        self.registry = registry
        slots = [
            Slot(self.alias, name, sql_type)
            for name, sql_type in function.output_columns
        ]
        self.binding = input_op.binding.extend(Binding(slots))
        self._arity = len(slots)

    def _execute(self) -> Iterator[Batch]:
        invoke = self.registry.invoke_table
        function = self.function
        args = self.args
        arity = self._arity
        work = work_counters().work
        for input_batch in self.input.batches():
            work["operator_rows"] += len(input_batch)
            # argument expressions run a column at a time (their scalar
            # calls cross the UDF boundary once per batch)
            columns = [arg.batch_eval(input_batch) for arg in args]
            out: Batch = []
            for input_row, evaluated in zip(
                input_batch, zip(*columns) if columns else repeat(())
            ):
                produced = invoke(function, evaluated)
                if produced and set(map(len, produced)) != {arity}:
                    width = next(
                        len(row) for row in produced if len(row) != arity
                    )
                    raise ExecutionError(
                        f"table function {function.name!r} produced "
                        f"{width} columns, declared {arity}"
                    )
                out.extend([input_row + tuple(row) for row in produced])
            if out:
                yield out

    def explain(self, depth: int = 0) -> list[str]:
        lines = [
            self._line(
                depth, f"LateralFunctionScan {self.function.name}(...) as {self.alias}"
            )
        ]
        lines.extend(self.input.explain(depth + 1))
        return lines


class Filter(Operator):
    """Row filter for predicates that could not be pushed into scans/joins."""

    def __init__(
        self,
        input_op: Operator,
        predicate: Compiled,
        predicate_sql: str = "",
        xadt_access: str | None = None,
    ):
        self.input = input_op
        self.predicate = predicate
        self.predicate_sql = predicate_sql
        self.xadt_access = xadt_access
        self.binding = input_op.binding

    def _execute(self) -> Iterator[Batch]:
        predicate = self.predicate
        work = work_counters().work
        for batch in self.input.batches():
            work["operator_rows"] += len(batch)
            kept = predicate.batch_filter(batch)
            if kept:
                yield kept

    def explain(self, depth: int = 0) -> list[str]:
        suffix = f" xadt[{self.xadt_access}]" if self.xadt_access else ""
        lines = [self._line(depth, f"Filter [{self.predicate_sql}]{suffix}")]
        lines.extend(self.input.explain(depth + 1))
        return lines


class Project(Operator):
    """Compute the SELECT list.

    Two regimes: identity (``tuple_fn`` is None) passes batches through
    untouched — SELECT * over an aligned input — and otherwise
    ``tuple_fn``, one generated closure for the whole output tuple, is
    evaluated a batch at a time.
    """

    def __init__(
        self,
        input_op: Operator,
        out_slots: list[Slot],
        tuple_fn: Compiled | None = None,
        xadt_access: str | None = None,
    ) -> None:
        self.input = input_op
        self.tuple_fn = tuple_fn
        self.xadt_access = xadt_access
        self.binding = Binding(out_slots)

    def _execute(self) -> Iterator[Batch]:
        if self.tuple_fn is None:
            yield from self.input.batches()
            return
        batch_eval = self.tuple_fn.batch_eval
        work = work_counters().work
        for batch in self.input.batches():
            work["operator_rows"] += len(batch)
            yield batch_eval(batch)

    def explain(self, depth: int = 0) -> list[str]:
        names = ", ".join(slot.name for slot in self.binding.slots)
        suffix = f" xadt[{self.xadt_access}]" if self.xadt_access else ""
        lines = [self._line(depth, f"Project [{names}]{suffix}")]
        lines.extend(self.input.explain(depth + 1))
        return lines


class HashDistinct(Operator):
    """Duplicate elimination over full rows (first occurrence wins)."""

    def __init__(self, input_op: Operator) -> None:
        self.input = input_op
        self.binding = input_op.binding

    def _execute(self) -> Iterator[Batch]:
        seen: set[tuple] = set()
        seen_add = seen.add
        budget = active_budget()
        size = self.batch_size
        out: Batch = []
        work = work_counters().work
        for batch in self.input.batches():
            work["group_rows"] += len(batch)
            fresh = [
                row
                for key, row in zip(batch_group_keys(batch, True), batch)
                if key not in seen and not seen_add(key)
            ]
            out.extend(fresh)
            if len(out) >= size:
                full = len(out) - len(out) % size
                yield from _batched(out[:full], size)
                out = out[full:]
            if budget is not None and fresh:
                budget.charge_memory(batch_row_bytes(fresh))
        if out:
            yield out

    def explain(self, depth: int = 0) -> list[str]:
        lines = [self._line(depth, "HashDistinct")]
        lines.extend(self.input.explain(depth + 1))
        return lines


@dataclass
class AggSpec:
    """One aggregate of a GROUP BY (or a grand total)."""

    kind: str                 #: count | sum | avg | min | max
    arg: Compiled | None      #: None only for COUNT(*)
    distinct: bool = False


class _Accumulator(PartialAgg):
    """An aggregate's running state, plus its DISTINCT set."""

    __slots__ = ("seen",)

    def __init__(self, kind: str, distinct: bool) -> None:
        super().__init__(kind)
        self.seen: set[object] | None = set() if distinct else None


class HashAggregate(Operator):
    """Hash aggregation; output = group keys then aggregate results."""

    def __init__(
        self,
        input_op: Operator,
        group_exprs: list[Compiled],
        group_slots: list[Slot],
        aggregates: list[AggSpec],
        agg_slots: list[Slot],
    ) -> None:
        self.input = input_op
        self.group_exprs = group_exprs
        self.aggregates = aggregates
        self.binding = Binding(group_slots + agg_slots)
        self._grand_total = not group_exprs

    def _execute(self) -> Iterator[Batch]:
        groups: dict[tuple, tuple[tuple, list[_Accumulator]]] = {}
        group_exprs = self.group_exprs
        aggregates = self.aggregates
        updates = [AGG_UPDATES[spec.kind] for spec in aggregates]
        budget = active_budget()
        #: modelled bytes per group entry: key tuple + accumulator slots
        group_overhead = 56 * max(len(aggregates), 1)
        groups_get = groups.get
        work = work_counters().work
        #: hashed values per input row: its group key, and one more per
        #: DISTINCT aggregate (each keeps a set)
        hashes = 1 + sum(1 for spec in aggregates if spec.distinct)
        for batch in self.input.batches():
            work["group_rows"] += hashes * len(batch)
            new_bytes = 0
            raw_keys = (
                list(zip(*[expr.batch_eval(batch) for expr in group_exprs]))
                if group_exprs
                else [()] * len(batch)
            )
            #: each row's accumulator list (its group's)
            row_accumulators = []
            for key, raw_key in zip(batch_group_keys(raw_keys, True), raw_keys):
                entry = groups_get(key)
                if entry is None:
                    entry = groups[key] = (
                        raw_key,
                        [_Accumulator(a.kind, a.distinct) for a in aggregates],
                    )
                    if budget is not None:
                        new_bytes += (
                            estimate_row_bytes(raw_key) + group_overhead
                        )
                row_accumulators.append(entry[1])
            for slot, (spec, update) in enumerate(zip(aggregates, updates)):
                if spec.arg is None:  # COUNT(*)
                    for accumulators in row_accumulators:
                        accumulators[slot].count += 1
                    continue
                values = spec.arg.batch_eval(batch)
                if not spec.distinct:
                    for accumulators, value in zip(row_accumulators, values):
                        if value is not None:
                            update(accumulators[slot], value)
                    continue
                keys = batch_group_keys(values, False)
                for accumulators, value, key in zip(row_accumulators, values, keys):
                    accumulator = accumulators[slot]
                    if value is not None and key not in accumulator.seen:
                        accumulator.seen.add(key)
                        update(accumulator, value)
            if budget is not None and new_bytes:
                budget.charge_memory(new_bytes)
        if not groups and self._grand_total:
            empty = [_Accumulator(a.kind, a.distinct) for a in aggregates]
            yield [tuple(acc.result() for acc in empty)]
            return
        result_rows = [
            raw_key + tuple(acc.result() for acc in accumulators)
            for raw_key, accumulators in groups.values()
        ]
        yield from _batched(result_rows, self.batch_size)

    def explain(self, depth: int = 0) -> list[str]:
        described = ", ".join(
            ("count(*)" if a.arg is None else a.kind + "(...)")
            + (" distinct" if a.distinct else "")
            for a in self.aggregates
        )
        lines = [
            self._line(
                depth,
                f"HashAggregate groups={len(self.group_exprs)} aggs=[{described}]",
            )
        ]
        lines.extend(self.input.explain(depth + 1))
        return lines


class _SortKey:
    """Total-order wrapper tolerant of mixed types and NULLs (NULLs last)."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def __lt__(self, other: "_SortKey") -> bool:
        a, b = self.value, other.value
        if a is None:
            return False
        if b is None:
            return True
        try:
            return a < b  # type: ignore[operator]
        except TypeError:
            return str(a) < str(b)


class Sort(Operator):
    """Full materializing sort (stable, multi-key)."""

    def __init__(
        self,
        input_op: Operator,
        keys: list[Compiled],
        descending: list[bool],
    ) -> None:
        self.input = input_op
        self.keys = keys
        self.descending = descending
        self.binding = input_op.binding

    def _execute(self) -> Iterator[Batch]:
        budget = active_budget()
        if budget is None:
            rows = [row for batch in self.input.batches() for row in batch]
        else:
            rows = []
            for batch in self.input.batches():
                rows.extend(batch)
                budget.charge_memory(batch_row_bytes(batch))
        # n * ceil(log2 n) comparisons per key pass, whatever the input order
        work_counters().work["sort_comparisons"] += (
            len(self.keys) * len(rows) * (len(rows) - 1).bit_length()
        )
        # stable multi-key sort: apply keys right-to-left
        for key, desc in reversed(list(zip(self.keys, self.descending))):
            rows.sort(key=lambda row: _SortKey(key(row)), reverse=desc)
        yield from _batched(rows, self.batch_size)

    def explain(self, depth: int = 0) -> list[str]:
        lines = [self._line(depth, f"Sort keys={len(self.keys)}")]
        lines.extend(self.input.explain(depth + 1))
        return lines


class Limit(Operator):
    def __init__(self, input_op: Operator, limit: int) -> None:
        self.input = input_op
        self.limit = limit
        self.binding = input_op.binding

    def _execute(self) -> Iterator[Batch]:
        remaining = self.limit
        if remaining <= 0:
            return
        size = self.batch_size
        work = work_counters().work
        out: Batch = []
        # pull row-at-a-time so the child stops producing at the cutoff
        for row in self.input.rows():
            out.append(row)
            remaining -= 1
            if remaining == 0:
                break
            if len(out) >= size:
                work["operator_rows"] += len(out)
                yield out
                out = []
        if out:
            work["operator_rows"] += len(out)
            yield out

    def explain(self, depth: int = 0) -> list[str]:
        lines = [self._line(depth, f"Limit {self.limit}")]
        lines.extend(self.input.explain(depth + 1))
        return lines


def _rows_per_page(table: HeapTable) -> int:
    """Average rows per data page, for page-id derivation from row ids."""
    pages = max(table.data_pages(), 1)
    return max(table.row_count() // pages, 1)


def table_binding(
    table: HeapTable, alias: str, projection: list[int] | None = None
) -> Binding:
    """The slot layout a table contributes under ``alias``.

    ``projection`` (a scan's pushed-down column index list) keeps only
    those columns, in that order.
    """
    qualifier = alias.lower()
    columns = table.schema.columns
    if projection is not None:
        columns = [columns[i] for i in projection]
    return Binding(
        [Slot(qualifier, column.name, column.sql_type) for column in columns]
    )


__all__ = [
    "AggSpec",
    "Batch",
    "Filter",
    "HashAggregate",
    "HashDistinct",
    "HashJoin",
    "IndexNestedLoopJoin",
    "IndexScan",
    "LateralFunctionScan",
    "Limit",
    "NestedLoopJoin",
    "Operator",
    "Project",
    "SeqScan",
    "Sort",
    "table_binding",
]
