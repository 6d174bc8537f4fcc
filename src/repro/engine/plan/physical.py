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
:mod:`repro.engine.expr_compile` — the only compiler a plan holds — as
batch functions (a list of rows in, the kept rows or one value / tuple
per row out), so operators stay free of name-resolution concerns and
every expression, with the UDF calls in it, runs a batch at a time:
no operator evaluates an expression on a single row.  The lowering
(:mod:`repro.engine.plan.lowering`) wires them against the correct
child bindings, including the scan-level projection pushdown
(``SeqScan``/``IndexScan`` accept a ``projection`` column list and then
bind only the surviving slots).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro.engine.config import DEFAULT_BATCH_SIZE, DEFAULT_WORK_MEM_BYTES
from repro.engine.expr import Binding, Slot
from repro.engine.expr_compile import BatchFn
from repro.engine.index import Index
from repro.engine.io import (
    estimate_row_bytes,
    pages_of_bytes,
    row_bytes_kernel,
    work_counters,
)
from repro.engine.snapshot import (
    active_budget,
    current_context,
    read_bound,
    table_version,
)
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
        predicate: BatchFn | None = None,
        predicate_sql: str = "",
        projection: list[int] | None = None,
        xadt_access: str | None = None,
    ) -> None:
        self.table = table
        self.alias = alias.lower()
        self.predicate = predicate
        self.predicate_sql = predicate_sql
        self.projection = projection
        self.xadt_access = xadt_access
        self.binding = table_binding(table, alias, projection)

    def _execute(self) -> Iterator[Batch]:
        # resolve the snapshot horizon once per execution: the pinned
        # extent bounds both the rows yielded and the pages charged
        version = table_version(self.table)
        bound = None if version is None else version.row_count
        io = work_counters()
        io.charge_sequential(
            self.table.data_pages() if version is None else version.pages
        )
        # like its pages, a scan's rows are charged whole and up front
        io.work["scan_rows"] += (
            self.table.row_count() if bound is None else bound
        )
        predicate = self.predicate
        pick = row_picker(self.projection)
        for chunk in self.table.scan_batches(self.batch_size, limit=bound):
            if predicate is not None:
                chunk = predicate(chunk)
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
        residual: BatchFn | None = None,
        residual_sql: str = "",
        key_fn: BatchFn | None = None,
        projection: list[int] | None = None,
        xadt_access: str | None = None,
    ) -> None:
        self.table = table
        self.alias = alias.lower()
        self.index = index
        self.key = key
        #: the probe key as a column over the one empty row — used when
        #: the key is a prepared-statement parameter, once per execution
        self.key_fn = key_fn
        self.residual = residual
        self.residual_sql = residual_sql
        self.projection = projection
        self.xadt_access = xadt_access
        self.binding = table_binding(table, alias, projection)

    def _execute(self) -> Iterator[Batch]:
        bound = read_bound(self.table)  # snapshot horizon, once per run
        io = work_counters()
        io.charge_random(1)  # leaf descent; interior pages cached
        key = self.key if self.key_fn is None else self.key_fn([()])[0]
        fetch = self.table.fetch
        residual = self.residual
        pick = row_picker(self.projection)
        rows_per_page = _rows_per_page(self.table)
        touched: set[int] = set()
        row_ids = self.index.lookup(key, bound=bound)
        io.work["scan_rows"] += len(row_ids)
        for chunk_ids in _batched(row_ids, self.batch_size):
            for page in {row_id // rows_per_page for row_id in chunk_ids}:
                if page not in touched:  # buffer pool caches within a query
                    touched.add(page)
                    io.charge_random(1)
            chunk = [fetch(row_id) for row_id in chunk_ids]
            if residual is not None:
                chunk = residual(chunk)
                if not chunk:
                    continue
            if pick is not None:
                chunk = [pick(row) for row in chunk]
            yield chunk

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


def hash_buckets(
    keyed: Iterable[tuple[list, Batch]], composite: bool
) -> dict[object, tuple]:
    """A hash join's build table: each key's rows, in input order.

    ``keyed`` yields ``(keys, batch)`` pairs, one key (with
    ``composite``, one tuple of key parts) per row.  A row whose key is
    NULL (or has a NULL part) is left out: NULL never joins.  Every
    bucket is a tuple — ``(row,)`` for a key seen once, which is most of
    them — so once its rows are untracked the collector can untrack the
    bucket too; a second row upgrades a bucket to a list, and those
    lists are frozen to tuples before the table is returned.
    """
    table: dict[object, tuple | list] = {}
    get = table.get
    grown = []
    for keys, batch in keyed:
        for key, row in zip(keys, batch):
            if key is None or composite and None in key:
                continue
            bucket = get(key)
            if bucket is None:
                table[key] = (row,)
            elif type(bucket) is tuple:
                table[key] = [bucket[0], row]
                grown.append(key)
            else:
                bucket.append(row)
    for key in grown:
        table[key] = tuple(table[key])
    return table


class HashJoin(Operator):
    """Equi-join: build a hash table on the right input, probe with the left."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: list[int],
        right_keys: list[int],
    ) -> None:
        if len(left_keys) != len(right_keys) or not left_keys:
            raise ExecutionError("hash join requires matching, non-empty key lists")
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.binding = left.binding.extend(right.binding)
        #: the spill decision's row widths, costed from each input's slots
        self.build_width = row_bytes_kernel(right.binding.slots)
        self.probe_width = row_bytes_kernel(left.binding.slots)

    def _execute(self) -> Iterator[Batch]:
        composite = len(self.right_keys) > 1
        right_key = itemgetter(*self.right_keys)
        build_bytes = 0
        # read per execution, never baked into the plan: a cached plan
        # follows ``Database.work_mem_bytes``
        context = current_context()
        work_mem = context.work_mem_bytes if context else DEFAULT_WORK_MEM_BYTES
        budget = active_budget()
        batch_bytes = self.build_width
        io = work_counters()
        work = io.work

        def keyed_build() -> Iterator[tuple[list, Batch]]:
            nonlocal build_bytes
            for batch in self.right.batches():
                work["hash_build_rows"] += len(batch)
                width = batch_bytes(batch)
                build_bytes += width
                yield batch_group_keys(list(map(right_key, batch)), composite), batch
                if budget is not None:
                    budget.charge_memory(width)

        table = hash_buckets(keyed_build(), composite)
        spilled = build_bytes > work_mem
        left_key = itemgetter(*self.left_keys)
        get = table.get
        batch_bytes = self.probe_width
        probe_bytes = 0
        for left_batch in self.left.batches():
            work["hash_probe_rows"] += len(left_batch)
            if spilled:
                probe_bytes += batch_bytes(left_batch)
            keys = batch_group_keys(list(map(left_key, left_batch)), composite)
            # a NULL key (or part) finds no bucket: the build skipped them
            out = [
                left_row + right_row
                for left_row, key in zip(left_batch, keys)
                for right_row in get(key, ())
            ]
            if out:
                yield out
        if spilled:
            # GRACE partitioning: both inputs are written out sequentially
            # and read back during the merge phase, where partition files
            # interleave — the re-reads behave like random page I/O.
            pages = pages_of_bytes(build_bytes) + pages_of_bytes(probe_bytes)
            io.charge_spill(pages)
            io.charge_random(pages)
            io.notes.append(
                f"hash join spilled {pages} pages (build {build_bytes} B)"
            )

    def explain(self, depth: int = 0) -> list[str]:
        keys = ", ".join(
            f"{self.left.binding.slots[l].qualifier}.{self.left.binding.slots[l].name}"
            f" = {self.right.binding.slots[r].qualifier}.{self.right.binding.slots[r].name}"
            for l, r in zip(self.left_keys, self.right_keys)
        )
        lines = [self._line(depth, f"HashJoin on {keys}")]
        lines.extend(self.left.explain(depth + 1))
        lines.extend(self.right.explain(depth + 1))
        return lines


class NestedLoopJoin(Operator):
    """Cross join: the right input is materialized and rescanned per row
    (join predicates run in a ``Filter`` above it)."""

    def __init__(self, left: Operator, right: Operator) -> None:
        self.left = left
        self.right = right
        self.binding = left.binding.extend(right.binding)
        self.batch_bytes = row_bytes_kernel(right.binding.slots)

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
                budget.charge_memory(self.batch_bytes(batch))
        work = work_counters().work
        for left_batch in self.left.batches():
            work["operator_rows"] += len(left_batch) * len(right_rows)  # pairs
            out = [
                left_row + right_row
                for left_row in left_batch
                for right_row in right_rows
            ]
            if out:
                yield out

    def explain(self, depth: int = 0) -> list[str]:
        lines = [self._line(depth, "NestedLoopJoin (cross)")]
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
        residual: BatchFn | None = None,
        residual_sql: str = "",
    ) -> None:
        self.left = left
        self.table = table
        self.alias = alias.lower()
        self.index = index
        self.left_key_slot = left_key_slot
        self.residual = residual
        self.residual_sql = residual_sql
        self.binding = left.binding.extend(table_binding(table, alias))

    def _execute(self) -> Iterator[Batch]:
        bound = read_bound(self.table)  # snapshot horizon, once per run
        fetch = self.table.fetch
        lookup = self.index.lookup
        key_slot = self.left_key_slot
        residual = self.residual
        rows_per_page = _rows_per_page(self.table)
        probed_keys: set[object] = set()
        touched_pages: set[int] = set()
        io = work_counters()
        work = io.work
        for left_batch in self.left.batches():
            work["operator_rows"] += len(left_batch)  # one index descent each
            fetched = 0
            out: Batch = []
            append = out.append
            for left_row in left_batch:
                key = left_row[key_slot]
                if key is None:
                    continue
                if key not in probed_keys:
                    probed_keys.add(key)
                    io.charge_random(1)  # index leaf, cached per key
                row_ids = lookup(key, bound=bound)
                fetched += len(row_ids)
                for row_id in row_ids:
                    page = row_id // rows_per_page
                    if page not in touched_pages:
                        touched_pages.add(page)
                        io.charge_random(1)
                    append(left_row + fetch(row_id))
            work["scan_rows"] += fetched
            if residual is not None and out:
                out = residual(out)
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
    the left.  The calls of one input batch cross the UDF boundary
    together (``FunctionRegistry.invoke_table_batch``).
    """

    def __init__(
        self,
        input_op: Operator,
        function: TableFunction,
        args: list[BatchFn],
        alias: str,
        registry: FunctionRegistry,
        columnar: Sequence[bool],
    ) -> None:
        self.input = input_op
        #: bound once, at lowering; ``fn``/``invoke`` are read per batch
        self.function = function
        self.args = args
        #: which arguments vary by row: a literal or ``?`` argument is
        #: evaluated once per batch and every call receives that value
        self.columnar = tuple(columnar)
        self.alias = alias.lower()
        self.registry = registry
        slots = [
            Slot(self.alias, name, sql_type)
            for name, sql_type in function.output_columns
        ]
        self.binding = input_op.binding.extend(Binding(slots))
        self._arity = len(slots)

    def _execute(self) -> Iterator[Batch]:
        invoke = self.registry.invoke_table_batch
        function = self.function
        args = self.args
        columnar = self.columnar
        arity = self._arity
        work = work_counters().work
        for input_batch in self.input.batches():
            n = len(input_batch)
            work["operator_rows"] += n
            if not n:
                continue
            # argument expressions run a column at a time (their scalar
            # calls cross the UDF boundary once per batch); a constant
            # one is evaluated over the batch's first row only
            values = [
                arg(input_batch) if column else arg(input_batch[:1])[0]
                for arg, column in zip(args, columnar)
            ]
            out: Batch = []
            for input_row, produced in zip(
                input_batch, invoke(function, n, values, columnar)
            ):
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
        predicate: BatchFn,
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
            kept = predicate(batch)
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
    ``tuple_fn``, one generated batch function for the whole output
    tuple, maps each batch.
    """

    def __init__(
        self,
        input_op: Operator,
        out_slots: list[Slot],
        tuple_fn: BatchFn | None = None,
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
        tuple_fn = self.tuple_fn
        work = work_counters().work
        for batch in self.input.batches():
            work["operator_rows"] += len(batch)
            yield tuple_fn(batch)

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
        self.batch_bytes = row_bytes_kernel(input_op.binding.slots)

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
                budget.charge_memory(self.batch_bytes(fresh))
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
    arg: BatchFn | None       #: None only for COUNT(*)
    distinct: bool = False


def _fold(
    kind: str, groups: list[int], values: list, counts: list[int], totals: list
) -> None:
    """Fold one aggregate's values into the state of their groups.

    ``groups[i]`` is the group number of ``values[i]``; NULLs are
    skipped.  COUNT / SUM / AVG count each value in ``counts``; SUM and
    AVG add it to ``totals`` left to right, MIN and MAX keep the best
    value there instead.
    """
    if kind == "count":
        for group, value in zip(groups, values):
            if value is not None:
                counts[group] += 1
    elif kind == "sum" or kind == "avg":
        for group, value in zip(groups, values):
            if value is None:
                continue
            if not isinstance(value, (int, float)):
                raise ExecutionError(f"{kind.upper()} over non-numeric {value!r}")
            counts[group] += 1
            totals[group] += value
    else:
        lowest = kind == "min"
        try:
            for group, value in zip(groups, values):
                if value is None:
                    continue
                best = totals[group]
                if best is None or (value < best if lowest else value > best):
                    totals[group] = value
        except TypeError:
            raise ExecutionError(
                f"{kind.upper()} over unordered {value!r}"
            ) from None


def _results(kind: str, counts: list[int], totals: list) -> list:
    """One aggregate's result per group, from its folded state."""
    if kind == "count":
        return counts
    if kind == "sum":
        return [total if count else None for count, total in zip(counts, totals)]
    if kind == "avg":
        return [
            total / count if count else None for count, total in zip(counts, totals)
        ]
    return totals


class HashAggregate(Operator):
    """Hash aggregation; output = group keys then aggregate results."""

    def __init__(
        self,
        input_op: Operator,
        group_exprs: list[BatchFn],
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
        #: group key -> group number; every other piece of state is a
        #: flat list indexed by group number (or, for DISTINCT, a set of
        #: ``(group, key)`` pairs), so none of it is one object per group
        groups: dict[object, int] = {}
        group_keys: list[tuple] = []
        group_exprs = self.group_exprs
        aggregates = self.aggregates
        counts: list[list[int]] = [[] for _ in aggregates]
        totals: list[list] = [[] for _ in aggregates]
        starts = [0 if spec.kind in ("sum", "avg") else None for spec in aggregates]
        seen: list[set | None] = [
            set() if spec.distinct else None for spec in aggregates
        ]
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
            raw_keys = (
                list(zip(*[expr(batch) for expr in group_exprs]))
                if group_exprs
                else [()] * len(batch)
            )
            known = len(group_keys)
            #: each row's group number
            row_groups = []
            for key, raw_key in zip(batch_group_keys(raw_keys, True), raw_keys):
                group = groups_get(key)
                if group is None:
                    group = groups[key] = len(group_keys)
                    group_keys.append(raw_key)
                row_groups.append(group)
            fresh = len(group_keys) - known
            if fresh:
                for slot, start in enumerate(starts):
                    counts[slot].extend([0] * fresh)
                    totals[slot].extend([start] * fresh)
            for slot, spec in enumerate(aggregates):
                if spec.arg is None:  # COUNT(*)
                    slot_counts = counts[slot]
                    for group in row_groups:
                        slot_counts[group] += 1
                    continue
                values = spec.arg(batch)
                value_groups = row_groups
                distinct = seen[slot]
                if distinct is not None:
                    add = distinct.add
                    firsts = [
                        (group, value)
                        for group, value, key in zip(
                            row_groups, values, batch_group_keys(values, False)
                        )
                        if value is not None
                        and (pair := (group, key)) not in distinct
                        and not add(pair)
                    ]
                    value_groups = [group for group, _ in firsts]
                    values = [value for _, value in firsts]
                _fold(spec.kind, value_groups, values, counts[slot], totals[slot])
            if budget is not None and fresh:
                budget.charge_memory(sum(
                    estimate_row_bytes(raw_key) + group_overhead
                    for raw_key in group_keys[known:]
                ))
        if not group_keys and self._grand_total:
            # the grand total of no rows is still one row
            group_keys.append(())
            for slot, start in enumerate(starts):
                counts[slot].append(0)
                totals[slot].append(start)
        columns = [
            _results(spec.kind, counts[slot], totals[slot])
            for slot, spec in enumerate(aggregates)
        ]
        result_rows = (
            [key + tail for key, tail in zip(group_keys, zip(*columns))]
            if columns
            else group_keys
        )
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
    """Full materializing sort (stable, multi-key).

    Each key is a batch function computing the key's column over all the
    input rows at once; the rows are then sorted by those columns.
    """

    def __init__(
        self,
        input_op: Operator,
        keys: list[BatchFn],
        descending: list[bool],
    ) -> None:
        self.input = input_op
        self.keys = keys
        self.descending = descending
        self.binding = input_op.binding
        self.batch_bytes = row_bytes_kernel(input_op.binding.slots)

    def _execute(self) -> Iterator[Batch]:
        budget = active_budget()
        if budget is None:
            rows = [row for batch in self.input.batches() for row in batch]
        else:
            rows = []
            for batch in self.input.batches():
                rows.extend(batch)
                budget.charge_memory(self.batch_bytes(batch))
        # n * ceil(log2 n) comparisons per key pass, whatever the input order
        work_counters().work["sort_comparisons"] += (
            len(self.keys) * len(rows) * (len(rows) - 1).bit_length()
        )
        columns = [key(rows) for key in self.keys]
        # stable multi-key sort of the row positions: keys right-to-left
        order = list(range(len(rows)))
        for column, desc in reversed(list(zip(columns, self.descending))):
            order.sort(key=list(map(_SortKey, column)).__getitem__, reverse=desc)
        yield from _batched([rows[i] for i in order], self.batch_size)

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


def row_picker(projection: list[int] | None):
    """A row → pruned-tuple function for a pushed-down column list."""
    if projection is None:
        return None
    if not projection:
        return lambda row: ()
    if len(projection) == 1:
        index = projection[0]
        return lambda row: (row[index],)
    return itemgetter(*projection)


def table_binding(
    table: HeapTable, alias: str, projection: list[int] | None = None
) -> Binding:
    """The slot layout a table contributes under ``alias``.

    ``projection`` (a scan's pushed-down column index list) keeps only
    those columns, in that order.  The slots are ``stored`` when the
    table's values went through their column types' validation.
    """
    qualifier = alias.lower()
    columns = table.schema.columns
    if projection is not None:
        columns = [columns[i] for i in projection]
    stored = table.typed
    return Binding(
        [
            Slot(qualifier, column.name, column.sql_type, stored)
            for column in columns
        ]
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
    "row_picker",
    "table_binding",
]
