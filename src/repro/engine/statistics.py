"""Table and column statistics (the engine's ``runstats``).

The optimizer's selectivity and cardinality estimates come from these
statistics, mirroring the paper's methodology ("we always ran the
runstats command ... before executing the queries").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from types import NoneType
from typing import Iterable

from repro.engine.storage import HeapTable
from repro.engine.types import is_xadt_value

#: selectivity assumed for predicates we cannot estimate (LIKE, UDFs)
DEFAULT_SELECTIVITY = 0.1
#: selectivity for equality against a column with no statistics
DEFAULT_EQ_SELECTIVITY = 0.01


@dataclass
class ColumnStats:
    """Statistics for one column."""

    n_distinct: int = 0
    null_count: int = 0
    avg_width: float = 0.0
    min_value: object = None
    max_value: object = None

    def eq_selectivity(self) -> float:
        if self.n_distinct <= 0:
            return DEFAULT_EQ_SELECTIVITY
        return 1.0 / self.n_distinct


@dataclass
class TableStats:
    """Statistics for one table."""

    row_count: int = 0
    data_pages: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name.lower())


def collect_stats(table: HeapTable) -> TableStats:
    """One full pass over ``table`` collecting per-column statistics."""
    stats = TableStats(row_count=table.row_count(), data_pages=table.data_pages())
    columns = zip(*table.scan()) if stats.row_count else repeat(())
    for column, values in zip(table.schema.columns, columns):
        stats.columns[column.key] = _column_stats(values)
    return stats


def _column_stats(values: tuple) -> ColumnStats:
    """:func:`_scan_column`, by set and C-level reductions where the
    value types observed allow it: a column of nothing but ``int`` (or
    nothing but ``str``) and NULLs.  There equal values are
    interchangeable, so set order cannot show in min/max."""
    kinds = set(map(type, values))
    kinds.discard(NoneType)
    if kinds != {int} and kinds != {str}:
        return _scan_column(values)
    distinct = set(values)
    distinct.discard(None)
    null_count = values.count(None)
    non_null = len(values) - null_count
    if kinds == {int}:
        width = 4 * non_null
    elif null_count:
        width = sum(len(value) for value in values if value is not None)
    else:
        width = sum(map(len, values))
    return ColumnStats(
        n_distinct=len(distinct),
        null_count=null_count,
        avg_width=width / non_null,
        min_value=min(distinct),
        max_value=max(distinct),
    )


def _scan_column(values: Iterable[object]) -> ColumnStats:
    """One column's statistics, a value at a time: the definition."""
    distinct: set[object] = set()
    nulls = 0
    non_null = 0
    width = 0
    minimum: object = None
    maximum: object = None
    for value in values:
        if value is None:
            nulls += 1
            continue
        non_null += 1
        if is_xadt_value(value):
            # XADT columns: track width only; fragments are not
            # meaningfully comparable for min/max or distinct-count.
            width += value.byte_size()
            continue
        distinct.add(value)
        width += 4 if isinstance(value, int) else len(str(value))
        if minimum is None or value < minimum:  # type: ignore[operator]
            minimum = value
        if maximum is None or value > maximum:  # type: ignore[operator]
            maximum = value
    return ColumnStats(
        n_distinct=len(distinct),
        null_count=nulls,
        avg_width=(width / non_null) if non_null else 0.0,
        min_value=minimum,
        max_value=maximum,
    )
