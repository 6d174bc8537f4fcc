"""Snapshot plumbing: pinned read views and the execution context.

The engine's concurrency model (DESIGN.md §8) separates one *writer*
from many *readers*.  Writers mutate the live storage structures under
the engine's writer lock and then *publish* an immutable
:class:`EngineSnapshot`: the catalog state, the heap/index objects, and
a :class:`TableVersion` per heap recording how many rows (and modelled
pages) were visible at publish time.  Heap rows are append-only, so the
prefix ``rows[:row_count]`` named by a published version is physically
immutable — that prefix is the "row-version array" a reader sees.

Readers never take the lock.  A session pins a published snapshot and
installs it, with the rest of the statement's state, as one
:class:`ExecContext` for the duration of each statement; the storage
layer's read paths — ``HeapTable.scan_batches``, ``Index.lookup``, the
scan operators' page charges — consult :func:`read_bound` /
:func:`table_version` and clamp everything they return to the pinned
horizon.  With no context installed
(single-threaded callers, unit tests poking heaps directly) every helper
returns None and reads see the live state, exactly as before the
layering.
"""

from __future__ import annotations

from contextvars import ContextVar, Token
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.engine.config import DEFAULT_WORK_MEM_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.catalog import CatalogState
    from repro.engine.governor import StatementBudget
    from repro.engine.index import Index
    from repro.engine.io import IoCounters
    from repro.engine.storage import HeapTable


@dataclass(frozen=True)
class TableVersion:
    """The visible extent of one heap at publish time."""

    row_count: int    #: rows in the immutable prefix readers may touch
    pages: int        #: modelled data pages covering that prefix
    used_bytes: int   #: payload bytes accounted for that prefix


@dataclass(frozen=True)
class EngineSnapshot:
    """One published, immutable version of the whole database.

    ``version`` is the engine's single monotonically increasing epoch;
    it advances on *every* publish (DML and DDL alike).  ``catalog`` is
    the frozen catalog state the snapshot was published under — its own
    ``version`` field records the epoch of the last plan-relevant change
    (DDL, runstats, exec-config swap) and is what the plan cache keys
    on, so inserts never invalidate compiled plans.
    """

    version: int
    catalog: "CatalogState"
    #: table key -> live heap object (readers hold the reference, so a
    #: dropped table's rows stay reachable for sessions pinned before
    #: the drop)
    heaps: Mapping[str, "HeapTable"] = field(default_factory=dict)
    #: index key -> live index structure
    indexes: Mapping[str, "Index"] = field(default_factory=dict)
    #: heap object -> visible extent at this version
    tables: Mapping["HeapTable", TableVersion] = field(default_factory=dict)


class ExecContext:
    """What a session installs while executing one statement: the only
    channel for per-statement state."""

    __slots__ = ("snapshot", "io", "budget", "work_mem_bytes")

    def __init__(
        self,
        snapshot: EngineSnapshot | None,
        io: "IoCounters | None",
        budget: "StatementBudget | None" = None,
        work_mem_bytes: int = DEFAULT_WORK_MEM_BYTES,
    ) -> None:
        self.snapshot = snapshot
        self.io = io
        self.budget = budget
        self.work_mem_bytes = work_mem_bytes


#: the active execution context; None outside session-managed execution
_CONTEXT: ContextVar[ExecContext | None] = ContextVar(
    "repro_exec_context", default=None
)


def activate(
    snapshot: EngineSnapshot | None,
    io: "IoCounters | None" = None,
    budget: "StatementBudget | None" = None,
    work_mem_bytes: int = DEFAULT_WORK_MEM_BYTES,
) -> Token:
    """Install an execution context; pair with :func:`deactivate`."""
    return _CONTEXT.set(ExecContext(snapshot, io, budget, work_mem_bytes))


def deactivate(token: Token) -> None:
    _CONTEXT.reset(token)


def current_context() -> ExecContext | None:
    return _CONTEXT.get()


def table_version(heap: "HeapTable") -> TableVersion | None:
    """The pinned version of ``heap``, or None when reading live."""
    context = _CONTEXT.get()
    if context is None or context.snapshot is None:
        return None
    version = context.snapshot.tables.get(heap)
    if version is None:
        # the heap post-dates the pin; nothing of it is visible
        return TableVersion(0, 0, 0)
    return version


def read_bound(heap: "HeapTable") -> int | None:
    """Row-id horizon for reads of ``heap``; None means live (no bound)."""
    version = table_version(heap)
    return None if version is None else version.row_count


def active_budget() -> "StatementBudget | None":
    """The governor budget of the running statement, or None."""
    context = _CONTEXT.get()
    return None if context is None else context.budget


__all__ = [
    "EngineSnapshot",
    "ExecContext",
    "TableVersion",
    "activate",
    "active_budget",
    "current_context",
    "deactivate",
    "read_bound",
    "table_version",
]
