"""Heap table storage.

Rows live as Python tuples in insertion order (their position is the row
id).  Every insert validates and coerces values against the schema and
feeds the page accountant, so a table always knows its modelled on-disk
size.  Indexes attached to the table are kept consistent on insert.
:meth:`HeapTable._store_row` defines what an insert checks and does; a
batch — a single insert is a batch of one — goes through the column-wise
:meth:`HeapTable._store_batch`, which does the same or steps aside to
``_store_row`` row by row.

Concurrency contract (DESIGN.md §8): the row list is append-only and all
appends happen on the single writer thread.  Any prefix ``rows[:n]``
that has been published in an :class:`~repro.engine.snapshot.EngineSnapshot`
is therefore physically immutable — that prefix is the row-version array
a pinned reader sees.  Read paths accept an optional ``limit`` (the
snapshot horizon) and never look past it; with no limit they read the
live tail exactly as before the layering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.engine.faults import FAULTS
from repro.engine.pages import PageAccounting
from repro.engine.schema import TableSchema
from repro.engine.snapshot import TableVersion, active_budget
from repro.engine.types import COLUMN_OVERHEAD, ROW_OVERHEAD
from repro.errors import ExecutionError
from repro.obs.metrics import METRICS

#: process-wide load-side accounting across every HeapTable
_ROWS_INSERTED = METRICS.counter("storage.rows_inserted")
_BYTES_WRITTEN = METRICS.counter("storage.bytes_written")

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.governor import StatementBudget
    from repro.engine.index import Index


class HeapTable:
    """A heap of rows conforming to a :class:`TableSchema`."""

    #: every stored value went through its column type's ``validate``
    #: (or the ``batch_widths`` kernel that vouches for it), so a
    #: column's values have the Python types its SQL type admits
    typed = True

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.rows: list[tuple] = []
        self.accounting = PageAccounting()
        self.indexes: list["Index"] = []
        self._pk_position = (
            schema.position(schema.primary_key.name)
            if schema.primary_key is not None
            else None
        )
        self._pk_seen: set[object] = set()

    # -- writes -----------------------------------------------------------

    def insert(self, row: Sequence[object]) -> int:
        """Insert one row (a batch of one); returns its row id."""
        row_id = len(self.rows)
        self.bulk_insert([row])
        return row_id

    def bulk_insert(self, rows: Iterable[Sequence[object]]) -> int:
        """Insert many rows atomically; returns the number inserted.

        A batch is validated, measured, stored and indexed a column at a
        time (:meth:`_store_batch`), and the page/byte accounting and the
        process-wide load metrics are settled once for the whole batch
        (``PageAccounting.add_rows``) — document loads are a measured
        axis in the paper, and recovery replays through here too.  A
        batch with anything irregular in it — a value to coerce or to
        reject, a wrong arity, a key that is already taken — goes row by
        row through :meth:`_store_row` instead, so the first offending
        row raises exactly what a single :meth:`insert` of it would.

        All-or-nothing at the batch level (DESIGN.md §9): any mid-batch
        failure — a rejected row, an injected fault, a governor abort —
        rolls the heap, the primary-key set, every attached index, *and*
        the page accounting back to the pre-batch mark, so an aborted
        statement leaves the snapshot horizon exactly where it was.
        When a governor budget is active, the statement timeout is
        checked every 256 rows.
        """
        mark = self.mark()
        budget = active_budget()
        try:
            if not isinstance(rows, list):
                rows = list(rows)
            widths = self._store_batch(rows, budget)
            if widths is None:
                widths = []
                for row in rows:
                    widths.append(self._store_row(row))
                    if budget is not None and len(widths) % 256 == 0:
                        budget.tick()
            if widths:
                self.accounting.add_rows(widths)
        except BaseException:
            self.rollback_to(mark)
            raise
        if widths:
            _ROWS_INSERTED.inc(len(widths))
            _BYTES_WRITTEN.inc(sum(widths))
        return len(widths)

    def _store_batch(
        self, rows: list[Sequence[object]], budget: "StatementBudget | None"
    ) -> list[int] | None:
        """:meth:`_store_row` over a whole batch, column-wise; returns the
        rows' byte widths — or None, with nothing touched, for a batch
        that has to go row by row.

        Every check runs before the first mutation, and each one judges
        the values it observes: a column is taken on trust only when
        ``SqlType.batch_widths`` finds every value already in stored
        form, keys only when they are non-NULL, distinct within the
        batch and absent from the table.  Whatever fails a check would
        make some ``_store_row`` raise or coerce, and the caller lets it.
        """
        count = len(rows)
        if count == 0:
            return []
        columns_of = self.schema.columns
        try:
            if set(map(len, rows)) != {len(columns_of)}:
                return None
            rows = list(map(tuple, rows))
        except TypeError:  # a row that is no sequence
            return None
        columns = list(zip(*rows))
        # the row header rides along as one more column of widths
        widths = [[ROW_OVERHEAD + COLUMN_OVERHEAD * len(columns_of)] * count]
        for column, values in zip(columns_of, columns):
            column_widths = column.sql_type.batch_widths(values)
            if column_widths is None:
                return None
            widths.append(column_widths)
        if self._pk_position is not None:
            primary_keys = set(columns[self._pk_position])
            if (
                None in primary_keys
                or len(primary_keys) != count
                or not primary_keys.isdisjoint(self._pk_seen)
            ):
                return None
        for index in self.indexes:
            if index.definition.unique:
                keys = [key for key in columns[index.position] if key is not None]
                if len(set(keys)) != len(keys) or any(map(index.contains, keys)):
                    return None
        if FAULTS.active or budget is not None:
            # what the row loop does between rows, in the same order
            for stored in range(1, count + 1):
                if FAULTS.active:
                    FAULTS.fire("heap.store_row")
                if budget is not None and stored % 256 == 0:
                    budget.tick()
        # -- point of no return: all checks passed, now mutate ------------
        first_row_id = len(self.rows)
        self.rows.extend(rows)
        if self._pk_position is not None:
            self._pk_seen |= primary_keys
        for index in self.indexes:
            index.insert_many(columns[index.position], first_row_id)
        return list(map(sum, zip(*widths)))

    # -- batch rollback ----------------------------------------------------

    def mark(self) -> tuple:
        """A rollback point covering rows, accounting, and index state."""
        return (
            len(self.rows),
            self.accounting.mark(),
            [index.mark() for index in self.indexes],
        )

    def rollback_to(self, mark: tuple) -> None:
        """Rewind to :meth:`mark`; the abort path of a failed batch.

        Runs under the engine writer lock.  Published snapshots are
        unaffected: their horizons never cover unpublished rows, and the
        rows being truncated were appended after the mark was taken, so
        no reader can hold a horizon past it.
        """
        row_count, accounting_mark, index_marks = mark
        if self._pk_position is not None:
            for row in self.rows[row_count:]:
                self._pk_seen.discard(row[self._pk_position])
        del self.rows[row_count:]
        self.accounting.restore(accounting_mark)
        for index, index_mark in zip(self.indexes, index_marks):
            index.rollback_to(row_count, index_mark)

    def _store_row(self, row: Sequence[object]) -> int:
        """Validate, append, and index one row; returns its byte width.

        All-or-nothing per row: every check that can reject the row —
        arity, type coercion, primary-key nullability/uniqueness, unique
        secondary indexes — runs *before* the first mutation, so a
        failure anywhere leaves ``rows``, ``_pk_seen``, and every index
        exactly as they were (a mid-batch ``bulk_insert`` failure keeps
        the stored prefix fully consistent).

        Accounting is the caller's (:meth:`bulk_insert`) responsibility.
        """
        if FAULTS.active:
            FAULTS.fire("heap.store_row")
        if len(row) != self.schema.arity():
            raise ExecutionError(
                f"table {self.schema.name!r} expects {self.schema.arity()} values, "
                f"got {len(row)}"
            )
        coerced = tuple(
            column.sql_type.validate(value)
            for column, value in zip(self.schema.columns, row)
        )
        pk_key = None
        if self._pk_position is not None:
            pk_key = coerced[self._pk_position]
            if pk_key is None:
                raise ExecutionError(
                    f"primary key {self.schema.primary_key.name!r} cannot be NULL"
                )
            if pk_key in self._pk_seen:
                raise ExecutionError(
                    f"duplicate primary key {pk_key!r} in table {self.schema.name!r}"
                )
        for index in self.indexes:
            if index.definition.unique:
                key = coerced[index.position]
                if key is not None and index.contains(key):
                    raise ExecutionError(
                        f"unique index {index.definition.name!r} rejects "
                        f"duplicate {key!r}"
                    )
        # pricing the row may fail too (an indexed value's directory is
        # built through a fault site, under the statement's budget)
        width = self._row_bytes(coerced)
        # -- point of no return: all checks passed, now mutate ------------
        row_id = len(self.rows)
        self.rows.append(coerced)
        if self._pk_position is not None:
            self._pk_seen.add(pk_key)
        for index in self.indexes:
            index.insert(coerced, row_id)
        return width

    def _row_bytes(self, row: tuple) -> int:
        width = ROW_OVERHEAD + COLUMN_OVERHEAD * len(row)
        for column, value in zip(self.schema.columns, row):
            width += column.sql_type.byte_width(value)
        return width

    # -- reads ---------------------------------------------------------------

    def scan(self, limit: int | None = None) -> Iterator[tuple]:
        rows = self.rows
        if limit is not None:
            return iter(rows[:limit])
        return iter(rows)

    def scan_batches(
        self, size: int, limit: int | None = None
    ) -> Iterator[list[tuple]]:
        """Scan as list batches of at most ``size`` rows.

        Batches are produced by list slicing, so the per-row cost of a
        full scan is one pointer copy — this is what SeqScan feeds the
        vectorized executor.  ``limit`` is the snapshot horizon: rows at
        or beyond it are never yielded (slicing an append-only list is
        atomic under the GIL, so a concurrent writer appending past the
        horizon cannot tear a batch).
        """
        rows = self.rows
        end = len(rows) if limit is None else min(limit, len(rows))
        for start in range(0, end, size):
            yield rows[start : min(start + size, end)]

    def fetch(self, row_id: int) -> tuple:
        return self.rows[row_id]

    def row_count(self) -> int:
        return len(self.rows)

    # -- size accounting -------------------------------------------------------

    def capture_version(self) -> TableVersion:
        """Freeze the current extent for publication in a snapshot."""
        pages, _, used_bytes = self.accounting.capture()
        return TableVersion(
            row_count=len(self.rows), pages=pages, used_bytes=used_bytes
        )

    def data_pages(self) -> int:
        return self.accounting.pages

    def data_bytes(self) -> int:
        return self.accounting.total_bytes()

    def index_bytes(self) -> int:
        return sum(index.byte_size() for index in self.indexes)

    def attach_index(self, index: "Index") -> None:
        self.indexes.append(index)

    def __repr__(self) -> str:
        return f"HeapTable({self.schema.name}, {len(self.rows)} rows)"
