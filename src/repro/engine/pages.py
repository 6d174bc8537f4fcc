"""Page-level size accounting.

The engine stores rows as Python tuples; the *sizes* reported for
Tables 1 and 2 of the paper come from modelling a conventional slotted
page layout.  Constants approximate DB2's layout closely enough for the
ratios the paper reports (the experiments compare the two mappings on
the same accounting, so only relative accuracy matters).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import METRICS

#: process-wide write-side accounting (every page allocation feeds it)
_PAGES_WRITTEN = METRICS.counter("storage.pages_written")

#: bytes per page (the paper configures an 8 KB page size)
PAGE_SIZE = 8192
#: page header + slot directory baseline
PAGE_HEADER = 96
#: bytes of usable space per page
PAGE_CAPACITY = PAGE_SIZE - PAGE_HEADER
#: slot directory entry per row
SLOT_ENTRY = 4


@dataclass
class PageAccounting:
    """Incremental packer: feed row widths, read page/byte totals."""

    pages: int = 0
    rows: int = 0
    used_bytes: int = 0
    _free_in_current: int = 0

    def add_rows(self, row_widths: list[int]) -> None:
        """Account for rows of these payload widths, packed in order.

        A row takes its width plus a slot entry; one that fits no page
        spans dedicated pages of its own.  Packing is incremental, so one
        call over a list equals one call per width (same page splits,
        same byte totals); the page counter and the process-wide metric
        move once per call — this is the accounting half of
        ``HeapTable.bulk_insert``.
        """
        pages = self.pages
        free = self._free_in_current
        used = 0
        new_pages = 0
        for row_bytes in row_widths:
            need = row_bytes + SLOT_ENTRY
            if need > PAGE_CAPACITY:
                # oversized rows span dedicated pages
                span = (need + PAGE_CAPACITY - 1) // PAGE_CAPACITY
                new_pages += span
                free = 0
            else:
                if need > free:
                    new_pages += 1
                    free = PAGE_CAPACITY
                free -= need
            used += need
        self.pages = pages + new_pages
        self._free_in_current = free
        self.rows += len(row_widths)
        self.used_bytes += used
        if new_pages:
            _PAGES_WRITTEN.inc(new_pages)

    def total_bytes(self) -> int:
        """Allocated size in bytes (whole pages)."""
        return self.pages * PAGE_SIZE

    def capture(self) -> tuple[int, int, int]:
        """``(pages, rows, used_bytes)`` as one publish-time reading.

        Accounting is mutable and writer-owned: it changes only under
        the storage engine's writer lock.  At publish, these totals are
        copied into an immutable ``TableVersion`` so snapshot readers
        never consult this object while a writer is packing rows.
        """
        return (self.pages, self.rows, self.used_bytes)

    def mark(self) -> tuple[int, int, int, int]:
        """A rollback point: the full packer state, fill level included.

        Unlike :meth:`capture` (a reader-facing reading of the totals),
        a mark also records ``_free_in_current`` so :meth:`restore` puts
        the packer back mid-page — an aborted batch must not leave the
        next batch starting on a phantom page boundary.
        """
        return (self.pages, self.rows, self.used_bytes, self._free_in_current)

    def restore(self, mark: tuple[int, int, int, int]) -> None:
        """Rewind to a :meth:`mark` (the abort path of ``bulk_insert``)."""
        self.pages, self.rows, self.used_bytes, self._free_in_current = mark

    def reset(self) -> None:
        self.pages = 0
        self.rows = 0
        self.used_bytes = 0
        self._free_in_current = 0


def pages_for(total_bytes: int) -> int:
    """Pages needed for ``total_bytes`` of tightly packed payload."""
    if total_bytes <= 0:
        return 0
    return (total_bytes + PAGE_CAPACITY - 1) // PAGE_CAPACITY
