"""Cold-run accounting: the simulated 2002 machine, disk and CPU.

The paper's timings are *cold numbers* from DB2 V7.2 on a 550 MHz
Pentium III with 256 MB of RAM and a year-2002 disk.  A pure in-memory
Python engine on a modern host reproduces none of those costs by being
timed, so the engine *counts* what it does while executing and the
model prices the counts with pinned constants:

    modeled      = cpu_seconds + disk_seconds
    disk_seconds = (sequential_pages + spill_pages) * SEQUENTIAL_PAGE_SECONDS
                 + random_pages * RANDOM_PAGE_SECONDS
    cpu_seconds  = sum(counter * WORK_SECONDS[counter])

No clock enters the model: it is a function of (data, plan), identical
from run to run, host to host and Python to Python (sums go through
``math.fsum``).  Host wall time is recorded beside it by the harness,
never added to it.

Charging rules (DESIGN.md §2).  Pages:

* a sequential scan charges the table's data pages, sequentially;
* an index probe charges one random page (leaf; interior pages are
  assumed cached) plus one random data page per fetched row
  (secondary indexes are unclustered, as in the paper's setup);
* a hash join whose build side exceeds the statement's work_mem
  partitions to disk GRACE-style: both inputs are written and re-read
  once (2 x (build+probe) pages, sequential);
* everything already resident in the operator pipeline (lateral table
  functions, projections, in-memory aggregation) charges no pages.

Work: operators charge the rows they consume, once per batch; the UDF
boundary charges calls per fencing mode; the XADT methods charge the
bytes their access path reads — all independent of batch size and of
plan- and decode-cache state.

One rule finds the counters for both: a charge site asks
:func:`work_counters` for the running statement's counters (its
session put them in the execution context); outside any statement the
charges go to a sink.

Every constant is fixed a priori from period hardware and the paper's
Figure 14, never tuned per experiment; DESIGN.md §2 derives each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from repro.engine.faults import FAULTS
from repro.engine.pages import PAGE_SIZE, pages_for
from repro.engine.snapshot import current_context
from repro.engine.types import FloatType, IntegerType, VarcharType
from repro.obs.metrics import METRICS

#: process-wide page-read mirrors (lifetime totals across all databases,
#: unlike the per-query IoCounters the harness resets)
_SEQ_PAGES = METRICS.counter("io.sequential_pages")
_RANDOM_PAGES = METRICS.counter("io.random_pages")
_SPILL_PAGES = METRICS.counter("io.spill_pages")

#: seconds to read one 8 KB page sequentially (~20 MB/s, year-2002 disk)
SEQUENTIAL_PAGE_SECONDS = PAGE_SIZE / (20 * 1024 * 1024)
#: seconds per random page (seek + rotational latency + transfer)
RANDOM_PAGE_SECONDS = 0.005
#: seconds of the 550 MHz CPU per unit of counted query work (1 us is
#: ~550 cycles: one tuple through one operator, or one hash-table visit)
WORK_SECONDS: Mapping[str, float] = {
    "scan_rows": 1.0e-6,         # a row read off a page by a scan
    "operator_rows": 1.0e-6,     # a row into Filter/Project/Lateral/NL join
    "hash_build_rows": 1.0e-6,   # a row inserted into a join hash table
    "hash_probe_rows": 1.0e-6,   # a row probing one
    "group_rows": 1.0e-6,        # a value hashed by GROUP BY / DISTINCT
    "sort_comparisons": 0.2e-6,  # n * ceil(log2 n) per sort key
    "udf_calls_builtin": 1.0e-6,  # one more expression node on the row
    # Figure 14: scan + project + one call per row runs 40 % over the
    # built-in twin, so 1 + 1 + c = 1.4 * (1 + 1 + 1)
    "udf_calls_not_fenced": 2.2e-6,
    "udf_calls_fenced": 25.0e-6,  # an address-space round trip
    # a tag-matching string scan at ~16 MB/s: a 2002 XML tokenizer's
    # order, and below the disk's 20 MB/s (why QS6 loses, paper §4.3)
    "xadt_bytes_scanned": 60.0e-9,
    "xadt_bytes_decoded": 150.0e-9,  # a dict payload byte decompressed
}
#: the load side, priced the same way (``LoadReport.work`` counts it)
LOAD_WORK_SECONDS: Mapping[str, float] = {
    "nodes_shredded": 2.0e-6,    # a DOM element visited by the shredder
    "rows_stored": 20.0e-6,      # an INSERT and its log record (~50 k/s)
    "fragment_bytes": 60.0e-9,   # serializing: the XADT scan in reverse
    "compressed_bytes": 150.0e-9,  # the dict encoder, per byte out
    "index_entries": 5.0e-6,     # a key sorted and placed into its leaf
    "rows_sampled": 1.0e-6,      # a row through runstats' one pass
}


def work_seconds(
    work: Mapping[str, int], prices: Mapping[str, float] = WORK_SECONDS
) -> float:
    """CPU seconds of the simulated machine for ``work`` (name -> count)."""
    return fsum(work.get(name, 0) * price for name, price in prices.items())


def add_work(into: dict[str, int], work: Mapping[str, int]) -> None:
    """Add the counts of ``work`` to ``into``, name by name."""
    for name, amount in work.items():
        into[name] += amount


def _no_work() -> dict[str, int]:
    return dict.fromkeys(WORK_SECONDS, 0)


@dataclass
class IoCounters:
    """Logical I/O and counted CPU work of one statement."""

    sequential_pages: int = 0
    random_pages: int = 0
    spill_pages: int = 0  #: sequential pages written+read by join spills
    #: counted work, one entry per ``WORK_SECONDS`` name (a charge to any
    #: other name is a KeyError): ``io.work[name] += n``
    work: dict[str, int] = field(default_factory=_no_work)
    #: per-category detail for EXPLAIN-style reporting
    notes: list[str] = field(default_factory=list)

    def reset(self) -> None:
        self.sequential_pages = self.random_pages = self.spill_pages = 0
        self.work.update(_no_work())
        self.notes.clear()

    # Each page charge is a fault-injection site ("io.charge"): delay
    # rules installed there model a degraded disk, which is how the chaos
    # and governor tests make a query deterministically slow.

    def charge_sequential(self, pages: int) -> None:
        if FAULTS.active:
            FAULTS.fire("io.charge")
        self.sequential_pages += pages
        _SEQ_PAGES.inc(pages)

    def charge_random(self, pages: int = 1) -> None:
        if FAULTS.active:
            FAULTS.fire("io.charge")
        self.random_pages += pages
        _RANDOM_PAGES.inc(pages)

    def charge_spill(self, pages: int) -> None:
        if FAULTS.active:
            FAULTS.fire("io.charge")
        self.spill_pages += pages
        _SPILL_PAGES.inc(pages)

    def merge(self, other: "IoCounters") -> None:
        """Add what another statement was charged to these counters."""
        self.sequential_pages += other.sequential_pages
        self.random_pages += other.random_pages
        self.spill_pages += other.spill_pages
        add_work(self.work, other.work)
        self.notes.extend(other.notes)

    def cpu_seconds(self) -> float:
        """CPU seconds of the counted work."""
        return work_seconds(self.work)

    def disk_seconds(self) -> float:
        return (
            (self.sequential_pages + self.spill_pages) * SEQUENTIAL_PAGE_SECONDS
            + self.random_pages * RANDOM_PAGE_SECONDS
        )

    def modeled_seconds(self) -> float:
        """Cold seconds on the simulated machine: the reported metric."""
        return self.cpu_seconds() + self.disk_seconds()

    def snapshot(self) -> tuple[int, int, int]:
        return (self.sequential_pages, self.random_pages, self.spill_pages)


#: what :func:`work_counters` answers outside any statement; never read
_UNOBSERVED = IoCounters()


def work_counters() -> IoCounters:
    """The counters of the statement running on this thread: the ones
    its session put in the execution context.  Every page and work
    charge lands here; a charge site resolves them once per execution.
    Outside any statement there is nothing to model — operators, UDFs
    and XADT methods driven bare (unit tests, micro-benchmarks, library
    calls, a plan's ``batches()`` run by hand) count into a sink."""
    context = current_context()
    return (context and context.io) or _UNOBSERVED


def _values_bytes(values) -> int:
    """Variable-width bytes of ``values``: the per-value reference path."""
    width = 0
    for value in values:
        if isinstance(value, str):
            width += len(value)
        elif value is not None and not isinstance(value, (int, float)):
            size = getattr(value, "byte_size", None)
            if size is not None:
                width += size()
    return width


def estimate_row_bytes(row: tuple) -> int:
    """Cheap in-flight width estimate for spill decisions.

    The reference semantics of :func:`row_bytes_kernel`, and the form for
    a single row (a new group's key).
    """
    return 24 + 8 * len(row) + _values_bytes(row)


_FIXED_WIDTH = frozenset({int, float, bool, type(None)})
_STR_OR_NULL = frozenset({str, type(None)})


def _column_bytes(column: list) -> int:
    """:func:`_values_bytes` of one column, costed from the value types
    observed in it (never from an inferred slot type): integer/NULL
    columns cost nothing, string columns one ``sum(map(len, ...))``, and
    only columns holding anything else (XADT fragments, ``str``
    subclasses, foreign objects) take the per-value reference path."""
    kinds = set(map(type, column))
    if kinds <= _FIXED_WIDTH:
        return 0
    if kinds <= _STR_OR_NULL:  # filter() drops the NULLs (and "")
        return sum(map(len, filter(None, column)))
    return _values_bytes(column)


def row_bytes_kernel(slots: Sequence) -> Callable[[list], int]:
    """The batch width kernel — ``sum(map(estimate_row_bytes, batch))``,
    a column at a time — specialised, at plan time, to an input's slot
    layout.

    A ``stored`` slot reads a base-table column, whose values storage
    has validated against the declared type: an INTEGER or DOUBLE column
    holds numbers or NULL and is never read, a VARCHAR column holds
    ``str`` or NULL and costs one ``sum(map(len, ...))``, and any other
    type (the XADT) takes the per-value reference path.  A slot of
    unknown provenance (a computed column, a table function's output, a
    system view) keeps the observed-type rule of :func:`_column_bytes`.
    Every answer equals ``sum(map(estimate_row_bytes, batch))``.
    """
    fixed = 24 + 8 * len(slots)
    strings = []
    others = []
    for position, slot in enumerate(slots):
        getter = itemgetter(position)
        if not slot.stored:
            others.append((getter, _column_bytes))
        elif isinstance(slot.sql_type, VarcharType):
            strings.append(getter)
        elif not isinstance(slot.sql_type, (IntegerType, FloatType)):
            others.append((getter, _values_bytes))

    def width(batch: list) -> int:
        total = len(batch) * fixed
        for getter in strings:
            total += sum(map(len, filter(None, map(getter, batch))))
        for getter, cost in others:
            total += cost(list(map(getter, batch)))
        return total

    return width


def pages_of_bytes(total: int) -> int:
    """Pages for ``total`` raw bytes (delegates to the page model)."""
    if total <= 0:
        return 0
    return pages_for(total)
