"""Execution-layer configuration.

The engine has one execution regime — batches of row tuples through
expressions compiled by :mod:`repro.engine.expr_compile`, with
single-table predicates and the needed-column projection pushed into the
scans — so the one :class:`ExecutionConfig` riding on each
:class:`~repro.engine.database.Database` only selects what differs
between deployments:

* ``xadt_structural_index`` — route the XADT methods through the
  persistent per-column structural index
  (:mod:`repro.xadt.structural_index`) when one is published for the
  fragment.  Off by default: the tag-scan path is the paper-faithful
  mode whose Fig11/Fig13 shapes the benchmarks reproduce.
* ``parallel_workers`` — size of the multiprocessing worker pool for
  partition-parallel scans (DESIGN.md §12).  0 (the default) disables
  the pool entirely: plans never contain an Exchange operator and the
  engine behaves byte-identically to the pre-partitioning executor.
  Scans of partitioned tables with ``parallel_workers >= 1`` are
  wrapped in a scatter-gather Exchange.

Changing the config on a live database bumps its config epoch, which
invalidates cached plans (their operators bake in the XADT access-path
label and the Exchange wrapping).
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


@dataclass(frozen=True)
class ExecutionConfig:
    """Immutable knobs of the execution layer."""

    xadt_structural_index: bool = False
    parallel_workers: int = 0

    def __post_init__(self) -> None:
        if self.parallel_workers < 0:
            raise ConfigError("parallel_workers cannot be negative")

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


__all__ = ["DEFAULT_BATCH_SIZE", "ExecutionConfig"]
