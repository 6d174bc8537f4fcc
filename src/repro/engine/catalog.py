"""The catalog layer: versioned, copy-on-write schema state.

One :class:`CatalogState` is an immutable value: the table schemas, the
index definitions and the per-table statistics, stamped with the engine
epoch at which it was published.  DDL and ``runstats()`` never mutate a
state in place; the :class:`CatalogManager` builds a new state with
copied dictionaries and swaps one reference — readers planning against a
pinned state can never observe a half-applied change.

The single ``version`` stamp subsumes the schema/stats/config epoch trio
the plan cache used to juggle: a cached plan records the catalog version
it was compiled under, and any plan-relevant change advances the one
number (monotonicity is asserted under the writer lock — see
:meth:`CatalogManager.publish`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.engine.schema import IndexDef, TableSchema
from repro.errors import CatalogError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.statistics import TableStats


@dataclass(frozen=True)
class CatalogState:
    """An immutable catalog version (read API mirrors the old Catalog)."""

    version: int
    tables: Mapping[str, TableSchema] = field(default_factory=dict)
    indexes: Mapping[str, IndexDef] = field(default_factory=dict)
    stats: Mapping[str, "TableStats"] = field(default_factory=dict)

    # -- reads (the planner/CLI surface) ----------------------------------

    def table(self, name: str) -> TableSchema:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    def table_names(self) -> list[str]:
        return [schema.name for schema in self.tables.values()]

    def index_names(self) -> list[str]:
        return [index.name for index in self.indexes.values()]

    def indexes_on(self, table: str) -> list[IndexDef]:
        key = table.lower()
        return [i for i in self.indexes.values() if i.table.lower() == key]

    def find_index(self, table: str, column: str) -> IndexDef | None:
        column_key = column.lower()
        for index in self.indexes_on(table):
            if index.column.lower() == column_key:
                return index
        return None

    def stats_for(self, table: str) -> "TableStats | None":
        return self.stats.get(table.lower())


class CatalogManager:
    """Builds successive :class:`CatalogState` versions (writer-only).

    Every mutator validates against the current state, then swaps in a
    copied-and-modified state stamped ``version``.  Callers (the storage
    engine's write transactions) provide the version and hold the writer
    lock; the manager asserts the stamp never moves backwards.
    """

    def __init__(self) -> None:
        self._state = CatalogState(0, {}, {}, {})

    @property
    def state(self) -> CatalogState:
        return self._state

    def _swap(self, version: int, **changes) -> None:
        current = self._state
        if version < current.version:
            raise CatalogError(
                f"catalog version moved backwards: {current.version} -> "
                f"{version} (writes must serialize through the writer lock)"
            )
        fields = {
            "tables": current.tables,
            "indexes": current.indexes,
            "stats": current.stats,
        }
        fields.update(changes)
        self._state = CatalogState(version, **fields)

    # -- mutations (called under the engine writer lock) -------------------

    def add_table(self, schema: TableSchema, version: int) -> None:
        if schema.key in self._state.tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        tables = dict(self._state.tables)
        tables[schema.key] = schema
        self._swap(version, tables=tables)

    def drop_table(self, name: str, version: int) -> None:
        key = name.lower()
        if key not in self._state.tables:
            raise CatalogError(f"unknown table {name!r}")
        tables = dict(self._state.tables)
        del tables[key]
        indexes = {
            iname: idef
            for iname, idef in self._state.indexes.items()
            if idef.table.lower() != key
        }
        stats = {k: v for k, v in self._state.stats.items() if k != key}
        self._swap(version, tables=tables, indexes=indexes, stats=stats)

    def add_index(self, definition: IndexDef, version: int) -> None:
        key = definition.name.lower()
        if key in self._state.indexes:
            raise CatalogError(f"index {definition.name!r} already exists")
        # validates the table and column exist
        self._state.table(definition.table).position(definition.column)
        indexes = dict(self._state.indexes)
        indexes[key] = definition
        self._swap(version, indexes=indexes)

    def set_stats(
        self, new_stats: Mapping[str, "TableStats"], version: int
    ) -> None:
        stats = dict(self._state.stats)
        stats.update(new_stats)
        self._swap(version, stats=stats)


__all__ = ["CatalogManager", "CatalogState"]
