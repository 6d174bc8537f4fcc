"""Execution-layer configuration.

The engine has one execution regime — batches of row tuples through
expressions compiled by :mod:`repro.engine.expr_compile`, with
single-table predicates and the needed-column projection pushed into the
scans — and no execution option is left to set: the two defaults below
are its only tunables.

No option picks an XADT method's access path: the stored value does
(DESIGN.md §10).  :class:`ExecutionConfig` survives only as the
field-less holder of the read-only ``xadt_structural_index`` name that is
always False, because ``benchmarks/layers`` still reads
``db.exec_config.xadt_structural_index``; the ROADMAP item "The
benchmark stops patching the engine" deletes it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: target rows per batch (``Operator._execute`` yields lists of row
#: tuples).  1024 amortizes the per-batch Python overhead (iterator
#: resumption, instrumentation branch, loop setup) over enough rows that
#: per-row cost approaches the body of a list comprehension, while a
#: batch of 1024 narrow tuples still fits comfortably in cache.
DEFAULT_BATCH_SIZE = 1024

#: join/sort working memory before spilling.  This is a *scale model*:
#: the paper's machine gave DB2 roughly 2 MB of buffer/sort memory against
#: 7.5-96 MB data sets (a 1:4 .. 1:48 ratio); our benchmark corpora are
#: ~100 KB-10 MB, so 64 KB preserves the memory:data ratio band in which
#: the paper's join-spill behaviour lives.  Override per Database.
DEFAULT_WORK_MEM_BYTES = 64 * 1024


@dataclass(frozen=True)
class ExecutionConfig:
    """The execution layer's (empty) set of knobs."""

    @property
    def xadt_structural_index(self) -> bool:
        """Always False, and not settable: the stored value picks the
        access path.  Kept only for ``benchmarks/layers``, which reads it
        (the ROADMAP item "The benchmark stops patching the engine"
        deletes it)."""
        return False


__all__ = ["DEFAULT_BATCH_SIZE", "DEFAULT_WORK_MEM_BYTES", "ExecutionConfig"]
