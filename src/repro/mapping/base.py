"""Common model for mapped relational schemas.

Every mapping algorithm (Hybrid, XORator, Basic, Shared) produces a
:class:`MappedSchema`: a set of :class:`MappedTable` whose columns carry
*extraction provenance* — enough information for the shredder
(:mod:`repro.shred.loader`) to fill tuples from a document without any
algorithm-specific code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dtd.simplify import SimplifiedDtd
from repro.errors import MappingError


class ColumnKind(enum.Enum):
    """What a mapped column stores and how the shredder fills it."""

    ID = "id"                    #: surrogate primary key
    PARENT_ID = "parent_id"      #: foreign key to the parent tuple
    PARENT_CODE = "parent_code"  #: name of the parent's table (element)
    CHILD_ORDER = "child_order"  #: 1-based order among same-tag siblings
    VALUE = "value"              #: the relation element's own text
    INLINED_LEAF = "inlined"     #: text of a (transitively) inlined leaf
    ATTRIBUTE = "attribute"      #: an XML attribute value
    PRESENCE = "presence"        #: 1 when an EMPTY inlined element occurs
    XADT = "xadt"                #: an XML fragment column (XORator only)


@dataclass
class MappedColumn:
    """One column plus the provenance the shredder needs."""

    name: str
    kind: ColumnKind
    type_name: str = "VARCHAR"
    #: element-name path from the relation element down to the source
    #: element (empty for ID/PARENT_*/CHILD_ORDER/VALUE columns)
    path: tuple[str, ...] = ()
    #: attribute name for ATTRIBUTE columns
    attribute: str | None = None
    primary_key: bool = False

    def ddl_fragment(self) -> str:
        suffix = " PRIMARY KEY" if self.primary_key else ""
        return f"{self.name} {self.type_name}{suffix}"


@dataclass
class MappedTable:
    """One relation of a mapped schema."""

    name: str
    element: str
    columns: list[MappedColumn] = field(default_factory=list)
    #: element names of the relations that can be this table's parent
    parent_elements: list[str] = field(default_factory=list)

    def column(self, name: str) -> MappedColumn:
        key = name.lower()
        for column in self.columns:
            if column.name.lower() == key:
                return column
        raise MappingError(f"table {self.name!r} has no column {name!r}")

    def columns_of_kind(self, kind: ColumnKind) -> list[MappedColumn]:
        return [column for column in self.columns if column.kind is kind]

    def needs_parent_code(self) -> bool:
        return len(self.parent_elements) > 1

    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def xadt_columns(self) -> list[MappedColumn]:
        return self.columns_of_kind(ColumnKind.XADT)

    def create_table_sql(self) -> str:
        body = ", ".join(column.ddl_fragment() for column in self.columns)
        return f"CREATE TABLE {self.name} ({body})"


@dataclass
class MappedSchema:
    """A full mapping result."""

    algorithm: str
    dtd: SimplifiedDtd
    tables: list[MappedTable] = field(default_factory=list)

    def table_names(self) -> list[str]:
        return [table.name for table in self.tables]

    def table(self, name: str) -> MappedTable:
        key = name.lower()
        for table in self.tables:
            if table.name.lower() == key:
                return table
        raise MappingError(f"mapping has no table {name!r}")

    def table_for_element(self, element: str) -> MappedTable | None:
        for table in self.tables:
            if table.element == element:
                return table
        return None

    def relation_elements(self) -> set[str]:
        return {table.element for table in self.tables}

    def ddl(self) -> list[str]:
        return [table.create_table_sql() for table in self.tables]

    def table_count(self) -> int:
        return len(self.tables)

    def describe(self) -> str:
        """Figure-5/6-style textual schema listing."""
        lines: list[str] = []
        for table in self.tables:
            columns = ", ".join(
                f"{c.name}:{c.type_name}" for c in table.columns
            )
            lines.append(f"{table.name} ({columns})")
        return "\n".join(lines)

    def validate(self) -> None:
        """Internal consistency checks (used by property tests)."""
        seen: set[str] = set()
        for table in self.tables:
            if table.name.lower() in seen:
                raise MappingError(f"duplicate table name {table.name!r}")
            seen.add(table.name.lower())
            names: set[str] = set()
            pk = 0
            for column in table.columns:
                if column.name.lower() in names:
                    raise MappingError(
                        f"duplicate column {column.name!r} in {table.name!r}"
                    )
                names.add(column.name.lower())
                pk += 1 if column.primary_key else 0
            if pk != 1:
                raise MappingError(
                    f"table {table.name!r} must have exactly one primary key"
                )
            for parent in table.parent_elements:
                if self.table_for_element(parent) is None:
                    raise MappingError(
                        f"table {table.name!r} references non-relation parent "
                        f"{parent!r}"
                    )
