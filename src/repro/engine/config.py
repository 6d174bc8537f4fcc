"""Execution-layer configuration.

The engine has one execution regime — batches of row tuples through
expressions compiled by :mod:`repro.engine.expr_compile`, with
single-table predicates and the needed-column projection pushed into the
scans — so the one :class:`ExecutionConfig` riding on each
:class:`~repro.engine.database.Database` only selects what differs
between deployments:

* ``parallel_workers`` — size of the multiprocessing worker pool for
  partition-parallel scans (DESIGN.md §12).  0 (the default) disables
  the pool entirely: plans never contain an Exchange operator and the
  engine behaves byte-identically to the pre-partitioning executor.
  Scans of partitioned tables with ``parallel_workers >= 1`` are
  wrapped in a scatter-gather Exchange.

Changing the config on a live database bumps its config epoch, which
invalidates cached plans (their operators bake in the Exchange
wrapping).

No option picks an XADT method's access path: the stored value does
(DESIGN.md §10).  ``xadt_structural_index`` survives only as a
read-only name that is always False, because ``benchmarks/layers``
still reads it; ROADMAP item 6 deletes it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.errors import ConfigError

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
    """Immutable knobs of the execution layer."""

    parallel_workers: int = 0

    def __post_init__(self) -> None:
        if self.parallel_workers < 0:
            raise ConfigError("parallel_workers cannot be negative")

    @property
    def xadt_structural_index(self) -> bool:
        """Always False, and not settable: the stored value picks the
        access path.  Kept only for ``benchmarks/layers``, which reads it
        (ROADMAP item 6 deletes it)."""
        return False

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


__all__ = ["DEFAULT_BATCH_SIZE", "DEFAULT_WORK_MEM_BYTES", "ExecutionConfig"]
