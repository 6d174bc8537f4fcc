"""The storage layer: heaps + indexes behind a single-writer publish lock.

The :class:`StorageEngine` owns every live :class:`HeapTable` and
:class:`Index` structure and serializes all mutation through one
re-entrant writer lock.  A *write transaction*
(``with engine.write() as version:``) covers any number of catalog and
storage mutations; when the outermost transaction exits, the engine
*publishes*: B-tree staging arrays are finalized, every heap's visible
extent is captured as a :class:`TableVersion`, and a new immutable
:class:`EngineSnapshot` replaces the published one with a single
reference store.  Readers (sessions) pin whichever snapshot is published
when their statement starts and never block — snapshot isolation with
one writer and any number of lock-free readers.

Version arithmetic: the engine version advances by one per publish (DML
included); the catalog's own version is stamped with the transaction
version only when a plan-relevant change (DDL / runstats / exec-config)
actually happens, so ``snapshot.catalog.version <= snapshot.version``
always holds and plain inserts never invalidate cached plans.
Monotonicity of both is asserted at publish time, under the lock — the
regression target of the old epoch-race bug.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.engine.catalog import CatalogManager
from repro.engine.faults import FAULTS
from repro.engine.index import Index, build_index
from repro.engine.schema import IndexDef, TableSchema
from repro.engine.snapshot import EngineSnapshot, TableVersion
from repro.engine.storage import HeapTable, PartitionedHeapTable
from repro.errors import CatalogError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan_cache import PlanCache
    from repro.xadt.structural_index import StructuralIndexStore


class StorageEngine:
    """Live storage structures + the writer lock + snapshot publication."""

    def __init__(self, catalog: CatalogManager) -> None:
        self._catalog = catalog
        self._heaps: dict[str, HeapTable] = {}
        self._indexes: dict[str, Index] = {}
        self._lock = threading.RLock()
        self._depth = 0
        self._txn_version = 0
        self._plan_cache: "PlanCache | None" = None
        self._xindex: "StructuralIndexStore | None" = None
        self._snapshot = EngineSnapshot(
            version=0, catalog=catalog.state, heaps={}, indexes={}, tables={}
        )

    def attach_plan_cache(self, cache: "PlanCache") -> None:
        """Register the cache to purge when a catalog change publishes."""
        self._plan_cache = cache

    def attach_xindex(self, store: "StructuralIndexStore") -> None:
        """Register the XADT structural-index store to publish with
        each snapshot swap (same commit-before-publish ordering as every
        other index: staged builds become visible only here, after the
        WAL transaction committed)."""
        self._xindex = store

    # -- snapshots ---------------------------------------------------------

    @property
    def snapshot(self) -> EngineSnapshot:
        """The currently published snapshot (readers pin this)."""
        return self._snapshot

    @property
    def version(self) -> int:
        return self._snapshot.version

    # -- the write path ----------------------------------------------------

    @contextmanager
    def write(self) -> Iterator[int]:
        """A write transaction; yields the version it will publish as.

        Re-entrant: nested ``write()`` blocks join the outermost
        transaction and share its version.  Publication happens in a
        ``finally`` when the outermost block exits, even on error —
        whatever state the mutation layer left behind is republished
        consistently.  A failed ``bulk_insert`` rolls its batch back
        before the error propagates (DESIGN.md §9), so the snapshot
        published by an aborted statement matches the pre-statement
        state except for the version bump.
        """
        with self._lock:
            if self._depth == 0:
                self._txn_version = self._snapshot.version + 1
            self._depth += 1
            try:
                yield self._txn_version
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self._publish()

    def _publish(self) -> None:
        """Swap in a new snapshot (caller holds the writer lock)."""
        if FAULTS.active:
            FAULTS.fire("index.publish")
        for index in self._indexes.values():
            index.finalize()
        catalog = self._catalog.state
        previous = self._snapshot
        version = self._txn_version
        if version <= previous.version:
            raise CatalogError(
                f"engine version moved backwards: {previous.version} -> "
                f"{version} (writes must serialize through the writer lock)"
            )
        if catalog.version < previous.catalog.version:
            raise CatalogError(
                f"catalog version moved backwards: "
                f"{previous.catalog.version} -> {catalog.version}"
            )
        # Heaps are append-only and ``rollback_to`` restores rows and
        # accounting together, so a heap object whose row count did not
        # move since the previous publish still has that version.
        tables: dict[HeapTable, TableVersion] = {}
        for heap in self._heaps.values():
            extent = previous.tables.get(heap)
            if extent is None or extent.row_count != len(heap.rows):
                extent = heap.capture_version()
            tables[heap] = extent
        self._snapshot = EngineSnapshot(
            version=version,
            catalog=catalog,
            heaps=dict(self._heaps),
            indexes=dict(self._indexes),
            tables=tables,
        )
        if (
            catalog.version > previous.catalog.version
            and self._plan_cache is not None
        ):
            self._plan_cache.purge_stale(catalog.version)
        if self._xindex is not None and self._xindex.active:
            self._xindex.publish(catalog.version)

    # -- storage mutations (call inside a write transaction) ---------------

    def add_heap(self, schema: TableSchema) -> HeapTable:
        heap = (
            PartitionedHeapTable(schema)
            if schema.partition is not None
            else HeapTable(schema)
        )
        self._heaps[schema.key] = heap
        return heap

    def replace_heap(self, heap: HeapTable) -> None:
        """Swap in a rebuilt heap for an existing table (partitioning DDL).

        The caller (``Database.partition_table``) rebuilt the heap with
        identical rows/indexes under the writer lock; the old heap stays
        valid for snapshots already pinned to it.
        """
        key = heap.schema.key
        if key not in self._heaps:
            raise CatalogError(f"unknown table {heap.schema.name!r}")
        self._heaps[key] = heap
        for index in heap.indexes:
            self._indexes[index.definition.name.lower()] = index

    def drop_heap(self, name: str) -> None:
        key = name.lower()
        self._heaps.pop(key, None)
        self._indexes = {
            iname: index
            for iname, index in self._indexes.items()
            if index.definition.table.lower() != key
        }

    def add_index(self, definition: IndexDef) -> Index:
        heap = self.heap(definition.table)
        index = build_index(definition, heap)
        self._indexes[definition.name.lower()] = index
        heap.attach_index(index)
        return index

    # -- live accessors ----------------------------------------------------

    def heap(self, table_name: str) -> HeapTable:
        try:
            return self._heaps[table_name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {table_name!r}") from None

    def index(self, index_name: str) -> Index:
        try:
            return self._indexes[index_name.lower()]
        except KeyError:
            raise CatalogError(f"unknown index {index_name!r}") from None

    def heaps(self) -> dict[str, HeapTable]:
        return self._heaps

    def indexes(self) -> dict[str, Index]:
        return self._indexes


__all__ = ["StorageEngine"]
