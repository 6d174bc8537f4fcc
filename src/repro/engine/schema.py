"""Table schemas and the catalog.

Identifiers are case-insensitive (folded to lower case for lookup) but
keep their declared spelling for display, matching the usual DBMS
behaviour and letting the workload SQL quote the paper's mixed-case
column names (``speech_parentCODE`` etc.) freely.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.types import SqlType
from repro.errors import CatalogError


@dataclass(frozen=True)
class Column:
    """One column of a table schema."""

    name: str
    sql_type: SqlType
    primary_key: bool = False

    @property
    def key(self) -> str:
        return self.name.lower()


class TableSchema:
    """An ordered set of columns with unique (case-insensitive) names."""

    def __init__(self, name: str, columns: list[Column]):
        if not columns:
            raise CatalogError(f"table {name!r} requires at least one column")
        self.name = name
        self.columns = list(columns)
        self._by_key: dict[str, int] = {}
        for position, column in enumerate(self.columns):
            if column.key in self._by_key:
                raise CatalogError(
                    f"duplicate column {column.name!r} in table {name!r}"
                )
            self._by_key[column.key] = position
        primary = [c for c in columns if c.primary_key]
        if len(primary) > 1:
            raise CatalogError(f"table {name!r} declares multiple primary keys")
        self.primary_key: Column | None = primary[0] if primary else None

    @property
    def key(self) -> str:
        return self.name.lower()

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_key

    def position(self, name: str) -> int:
        try:
            return self._by_key[name.lower()]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def column(self, name: str) -> Column:
        return self.columns[self.position(name)]

    def arity(self) -> int:
        return len(self.columns)

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name}:{c.sql_type!r}" for c in self.columns)
        return f"TableSchema({self.name}, [{cols}])"


@dataclass
class IndexDef:
    """Catalog entry describing an index (the structure lives on the table)."""

    name: str
    table: str
    column: str
    kind: str  #: 'btree' or 'hash'
    unique: bool = False


class Catalog:
    """Name -> schema registry for tables and indexes."""

    def __init__(self) -> None:
        self._tables: dict[str, TableSchema] = {}
        self._indexes: dict[str, IndexDef] = {}

    def add_table(self, schema: TableSchema) -> None:
        if schema.key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        self._tables[schema.key] = schema

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        del self._tables[key]
        self._indexes = {
            iname: idef
            for iname, idef in self._indexes.items()
            if idef.table.lower() != key
        }

    def table(self, name: str) -> TableSchema:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return [schema.name for schema in self._tables.values()]

    def add_index(self, index: IndexDef) -> None:
        key = index.name.lower()
        if key in self._indexes:
            raise CatalogError(f"index {index.name!r} already exists")
        self.table(index.table).position(index.column)  # validates
        self._indexes[key] = index

    def indexes_on(self, table: str) -> list[IndexDef]:
        key = table.lower()
        return [i for i in self._indexes.values() if i.table.lower() == key]

    def index_names(self) -> list[str]:
        return [i.name for i in self._indexes.values()]

    def find_index(self, table: str, column: str) -> IndexDef | None:
        column_key = column.lower()
        for index in self.indexes_on(table):
            if index.column.lower() == column_key:
                return index
        return None
