"""Cost and selectivity estimation.

Costs are expressed in *modeled milliseconds* using the same disk
constants as :mod:`repro.engine.io` (0.4 ms per sequential 8 KB page,
5 ms per random page) plus a per-tuple CPU charge, so the optimizer's
choices are consistent with the cold-run time the benchmark harness
reports.  Selectivity formulas are the classic System-R ones: equality
is 1/n_distinct, unknown predicates get a default, join output scales
by 1/max(d_left, d_right).
"""

from __future__ import annotations

from repro.engine.expr import (
    ColumnRef,
    Comparison,
    Expr,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
)
from repro.engine.io import RANDOM_PAGE_SECONDS, SEQUENTIAL_PAGE_SECONDS
from repro.engine.statistics import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_SELECTIVITY,
    TableStats,
)

#: milliseconds per sequential page (from the shared disk model)
MS_SEQ_PAGE = SEQUENTIAL_PAGE_SECONDS * 1000.0
#: milliseconds per random page
MS_RANDOM_PAGE = RANDOM_PAGE_SECONDS * 1000.0
#: milliseconds of CPU per tuple visited
MS_TUPLE = 0.005


def predicate_selectivity(expr: Expr, stats: TableStats | None) -> float:
    """Selectivity of a single-table predicate."""
    if isinstance(expr, Comparison):
        column = _column_of(expr)
        if expr.op == "=":
            if column is not None and stats is not None:
                column_stats = stats.column(column.name)
                if column_stats is not None and column_stats.n_distinct > 0:
                    return min(1.0, column_stats.eq_selectivity())
            return DEFAULT_EQ_SELECTIVITY
        if expr.op == "<>":
            return 1.0 - DEFAULT_EQ_SELECTIVITY
        return 1.0 / 3.0  # range predicates
    if isinstance(expr, Like):
        return DEFAULT_SELECTIVITY
    if isinstance(expr, IsNull):
        return DEFAULT_SELECTIVITY if not expr.negated else 1.0 - DEFAULT_SELECTIVITY
    if isinstance(expr, Or):
        inner = [predicate_selectivity(item, stats) for item in expr.items]
        result = 0.0
        for s in inner:
            result = result + s - result * s
        return min(result, 1.0)
    if isinstance(expr, Not):
        return max(0.0, 1.0 - predicate_selectivity(expr.operand, stats))
    return DEFAULT_SELECTIVITY


def _column_of(comparison: Comparison) -> ColumnRef | None:
    """The column side of a col-vs-literal comparison, if that is the shape."""
    if isinstance(comparison.left, ColumnRef) and isinstance(comparison.right, Literal):
        return comparison.left
    if isinstance(comparison.right, ColumnRef) and isinstance(comparison.left, Literal):
        return comparison.right
    return None


def eq_match_estimate(
    stats: TableStats | None, column: str, row_count: int
) -> float:
    """Estimated rows matching an equality probe on ``column``."""
    if stats is not None:
        column_stats = stats.column(column)
        if column_stats is not None and column_stats.n_distinct > 0:
            return max(row_count / column_stats.n_distinct, 0.1)
    return max(row_count * DEFAULT_EQ_SELECTIVITY, 0.1)


def join_selectivity(
    left_stats: TableStats | None,
    left_column: str,
    right_stats: TableStats | None,
    right_column: str,
) -> float:
    """Equi-join selectivity: 1 / max(distinct counts)."""
    candidates: list[int] = []
    for stats, column in ((left_stats, left_column), (right_stats, right_column)):
        if stats is not None:
            column_stats = stats.column(column)
            if column_stats is not None and column_stats.n_distinct > 0:
                candidates.append(column_stats.n_distinct)
    if not candidates:
        return DEFAULT_EQ_SELECTIVITY
    return 1.0 / max(candidates)


def seq_scan_cost(row_count: float, data_pages: float) -> float:
    """Full-scan cost in modeled milliseconds."""
    return data_pages * MS_SEQ_PAGE + row_count * MS_TUPLE


def index_scan_cost(matches: float, table_pages: float | None = None) -> float:
    """Unclustered index equality scan: leaf probe plus one random page
    per match, capped by the table's page count (within-query caching)."""
    pages = matches if table_pages is None else min(matches, table_pages)
    return MS_RANDOM_PAGE * (1.0 + pages) + matches * MS_TUPLE


#: crude width assumed for intermediate join rows when estimating spills
INTERMEDIATE_ROW_BYTES = 80.0


def hash_join_cost(
    left_rows: float,
    right_rows: float,
    work_mem_bytes: float | None = None,
    left_row_bytes: float = INTERMEDIATE_ROW_BYTES,
    right_row_bytes: float = INTERMEDIATE_ROW_BYTES,
) -> float:
    """Build+probe CPU plus the expected spill I/O when the build side
    is estimated to exceed working memory."""
    cost = (left_rows + right_rows) * MS_TUPLE * 2.0
    if work_mem_bytes is not None:
        build_bytes = right_rows * right_row_bytes
        if build_bytes > work_mem_bytes:
            total_bytes = build_bytes + left_rows * left_row_bytes
            pages = total_bytes / 8192.0
            cost += pages * (MS_SEQ_PAGE + MS_RANDOM_PAGE)
    return cost


def index_nl_join_cost(
    outer_rows: float,
    matches_per_probe: float,
    table_pages: float | None = None,
) -> float:
    """Per-outer-row index probe plus unclustered match fetches, with the
    random pages capped by the table's page count (within-query caching)."""
    random_pages = outer_rows * (1.0 + matches_per_probe)
    if table_pages is not None:
        random_pages = min(random_pages, outer_rows + table_pages)
    return (
        MS_RANDOM_PAGE * random_pages
        + outer_rows * matches_per_probe * MS_TUPLE
    )
