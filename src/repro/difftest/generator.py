"""Seeded random query generator for differential backend testing.

Queries are drawn from the *shared dialect* — the SQL subset every
backend translates faithfully — so a divergence always means a bug, not
a known semantic gap.  The generator therefore avoids, by construction:

* ``/`` (the engine floors integer division, SQLite truncates),
* comparisons whose literal type differs from the column type (the
  engine's implicit int/str alignment has no SQL counterpart),
* ``LIMIT`` without a total order (it samples ``ORDER BY`` on the
  table's unique ID column first), and
* XADT method calls with non-literal arguments or level bounds.

Everything else it samples freely: single-table scans, star selects,
2–3 table joins along the mapped schema's parent/child edges,
aggregates with GROUP BY/HAVING, DISTINCT, parameterized predicates,
and — on XORator schemas — the five XADT methods with element tags,
search keys, and subtree texts sampled from the actual stored
fragments.  Generation is fully deterministic per ``(schema, data,
seed)``: value pools are collected in heap order and every choice goes
through one ``random.Random(seed)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.mapping.base import ColumnKind, MappedSchema

#: cap on distinct sample values pooled per column
_VALUE_POOL = 40
#: cap on fragments inspected per XADT column when building vocabulary
_FRAGMENT_POOL = 12
#: cap on (tag, subtree-text) pairs kept per XADT column
_SUBTREE_POOL = 30


@dataclass(frozen=True)
class GeneratedQuery:
    """One generated statement plus its bind values and shape label."""

    sql: str
    params: tuple = ()
    shape: str = "scan"


@dataclass
class _XadtVocab:
    """Sampled vocabulary of one XADT column's stored fragments."""

    tags: list[str] = field(default_factory=list)
    words: list[str] = field(default_factory=list)
    #: (tag, whole-subtree character stream) pairs for elmEquals
    subtrees: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class _TableProfile:
    name: str
    id_column: str | None = None
    int_columns: list[str] = field(default_factory=list)
    str_columns: list[str] = field(default_factory=list)
    xadt_columns: list[str] = field(default_factory=list)
    int_values: dict[str, list[int]] = field(default_factory=dict)
    str_values: dict[str, list[str]] = field(default_factory=dict)
    xadt: dict[str, _XadtVocab] = field(default_factory=dict)
    row_count: int = 0

    def scalar_columns(self) -> list[str]:
        return self.int_columns + self.str_columns


@dataclass(frozen=True)
class _JoinEdge:
    child: str
    parent_column: str
    parent: str
    parent_id: str


def _quote(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def _fragment_vocab(vocab: _XadtVocab, value: object) -> None:
    events = list(value.events())
    stack: list[tuple[str, list[str]]] = []
    for event in events:
        kind = event[0]
        if kind == "open":
            stack.append((event[1], []))
            if event[1] not in vocab.tags:
                vocab.tags.append(event[1])
        elif kind == "close":
            tag, parts = stack.pop()
            text = "".join(parts)
            if stack:
                stack[-1][1].append(text)
            if len(vocab.subtrees) < _SUBTREE_POOL:
                vocab.subtrees.append((tag, text))
        else:
            if stack:
                stack[-1][1].append(event[1])
            for word in event[1].split():
                cleaned = word.strip(".,;:!?'\"()")
                if (
                    len(cleaned) >= 3
                    and cleaned.isalnum()
                    and len(vocab.words) < 60
                    and cleaned not in vocab.words
                ):
                    vocab.words.append(cleaned)


class QueryGenerator:
    """Draws random shared-dialect queries over one loaded database."""

    def __init__(self, db, schema: MappedSchema, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self.seed = seed
        self.profiles: dict[str, _TableProfile] = {}
        self.edges: list[_JoinEdge] = []
        self._build_profiles(db, schema)
        self._build_edges(schema)

    # -- profile construction ----------------------------------------------

    def _build_profiles(self, db, schema: MappedSchema) -> None:
        for mapped in schema.tables:
            heap = db.heap(mapped.name)
            profile = _TableProfile(name=mapped.name, row_count=len(heap.rows))
            for position, column in enumerate(heap.schema.columns):
                kind = mapped.column(column.name).kind
                type_name = mapped.column(column.name).type_name.upper()
                if kind is ColumnKind.XADT:
                    profile.xadt_columns.append(column.name)
                    vocab = _XadtVocab()
                    seen = 0
                    for row in heap.rows:
                        if row[position] is None:
                            continue
                        _fragment_vocab(vocab, row[position])
                        seen += 1
                        if seen >= _FRAGMENT_POOL:
                            break
                    profile.xadt[column.name] = vocab
                    continue
                pool: list = []
                for row in heap.rows:
                    value = row[position]
                    if value is None or value in pool:
                        continue
                    pool.append(value)
                    if len(pool) >= _VALUE_POOL:
                        break
                if type_name == "INTEGER":
                    profile.int_columns.append(column.name)
                    profile.int_values[column.name] = [
                        v for v in pool if isinstance(v, int)
                    ]
                else:
                    profile.str_columns.append(column.name)
                    profile.str_values[column.name] = [
                        v for v in pool if isinstance(v, str)
                    ]
                if kind is ColumnKind.ID:
                    profile.id_column = column.name
            self.profiles[mapped.name] = profile

    def _build_edges(self, schema: MappedSchema) -> None:
        by_element = {table.element: table for table in schema.tables}
        for mapped in schema.tables:
            parent_columns = mapped.columns_of_kind(ColumnKind.PARENT_ID)
            if not parent_columns or len(mapped.parent_elements) != 1:
                continue
            parent = by_element.get(mapped.parent_elements[0])
            if parent is None:
                continue
            ids = parent.columns_of_kind(ColumnKind.ID)
            if not ids:
                continue
            self.edges.append(
                _JoinEdge(
                    child=mapped.name,
                    parent_column=parent_columns[0].name,
                    parent=parent.name,
                    parent_id=ids[0].name,
                )
            )

    # -- shape sampling ----------------------------------------------------

    def generate(self, count: int) -> list[GeneratedQuery]:
        return [self.query() for _ in range(count)]

    def query(self) -> GeneratedQuery:
        rng = self._rng
        shapes: list[tuple[str, int]] = [
            ("scan", 4),
            ("star", 1),
            ("aggregate", 2),
            ("group", 2),
            ("distinct", 1),
            ("param", 2),
        ]
        if self.edges:
            shapes.append(("join", 4))
        if any(p.xadt_columns for p in self.profiles.values()):
            shapes.append(("xadt_filter", 3))
            shapes.append(("xadt_select", 3))
        if any(p.id_column for p in self.profiles.values()):
            shapes.append(("order_limit", 1))
        names = [name for name, weight in shapes for _ in range(weight)]
        shape = rng.choice(names)
        return getattr(self, f"_shape_{shape}")(rng)

    def _table(self, rng: random.Random, need=None) -> _TableProfile:
        candidates = [
            p for p in self.profiles.values()
            if p.scalar_columns() and (need is None or need(p))
        ]
        return rng.choice(candidates)

    # -- predicates --------------------------------------------------------

    def _predicate(
        self,
        rng: random.Random,
        profile: _TableProfile,
        qualifier: str | None = None,
        as_param: bool = False,
    ) -> tuple[str, tuple]:
        """One WHERE conjunct; returns (sql_fragment, bind_values)."""

        def col(name: str) -> str:
            return f"{qualifier}.{name}" if qualifier else name

        choices = []
        if any(profile.int_values.get(c) for c in profile.int_columns):
            choices.append("int")
        if any(profile.str_values.get(c) for c in profile.str_columns):
            choices.extend(["str", "like"])
        if profile.scalar_columns():
            choices.append("null")
        if not choices:
            return ("1 = 1", ())
        kind = rng.choice(choices)
        if kind == "int":
            name = rng.choice(
                [c for c in profile.int_columns if profile.int_values.get(c)]
            )
            value = rng.choice(profile.int_values[name])
            op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
            if as_param:
                return (f"{col(name)} {op} ?", (value,))
            return (f"{col(name)} {op} {value}", ())
        if kind == "str":
            name = rng.choice(
                [c for c in profile.str_columns if profile.str_values.get(c)]
            )
            value = rng.choice(profile.str_values[name])
            op = rng.choice(["=", "=", "<>"])
            if as_param:
                return (f"{col(name)} {op} ?", (value,))
            return (f"{col(name)} {op} {_quote(value)}", ())
        if kind == "like":
            name = rng.choice(
                [c for c in profile.str_columns if profile.str_values.get(c)]
            )
            value = rng.choice(profile.str_values[name])
            if len(value) >= 3:
                start = rng.randrange(0, max(1, len(value) - 2))
                value = value[start: start + 3]
            value = value.replace("%", "").replace("_", "") or "a"
            negated = rng.random() < 0.25
            keyword = "NOT LIKE" if negated else "LIKE"
            return (f"{col(name)} {keyword} {_quote('%' + value + '%')}", ())
        name = rng.choice(profile.scalar_columns())
        keyword = "IS NOT NULL" if rng.random() < 0.6 else "IS NULL"
        return (f"{col(name)} {keyword}", ())

    def _where(
        self,
        rng: random.Random,
        profile: _TableProfile,
        qualifier: str | None = None,
    ) -> tuple[str, tuple]:
        """Zero to two conjuncts/disjuncts, possibly negated."""
        roll = rng.random()
        if roll < 0.25:
            return ("", ())
        first, params = self._predicate(rng, profile, qualifier)
        if roll < 0.65:
            clause = first
        else:
            second, more = self._predicate(rng, profile, qualifier)
            joiner = "AND" if rng.random() < 0.6 else "OR"
            clause = f"({first} {joiner} {second})"
            params = params + more
        if rng.random() < 0.15:
            clause = f"NOT {clause}" if clause.startswith("(") else f"NOT ({clause})"
        return (clause, params)

    def _columns(
        self, rng: random.Random, profile: _TableProfile, limit: int = 3
    ) -> list[str]:
        names = profile.scalar_columns()
        count = rng.randint(1, min(limit, len(names)))
        return rng.sample(names, count)

    # -- shapes ------------------------------------------------------------

    def _shape_scan(self, rng: random.Random) -> GeneratedQuery:
        profile = self._table(rng)
        columns = self._columns(rng, profile)
        where, params = self._where(rng, profile)
        sql = f"SELECT {', '.join(columns)} FROM {profile.name}"
        if where:
            sql += f" WHERE {where}"
        return GeneratedQuery(sql, params, "scan")

    def _shape_star(self, rng: random.Random) -> GeneratedQuery:
        profile = self._table(rng)
        where, params = self._where(rng, profile)
        sql = f"SELECT * FROM {profile.name}"
        if where:
            sql += f" WHERE {where}"
        return GeneratedQuery(sql, params, "star")

    def _shape_param(self, rng: random.Random) -> GeneratedQuery:
        profile = self._table(rng)
        columns = self._columns(rng, profile)
        where, params = self._predicate(rng, profile, as_param=True)
        sql = f"SELECT {', '.join(columns)} FROM {profile.name} WHERE {where}"
        return GeneratedQuery(sql, params, "param")

    def _shape_order_limit(self, rng: random.Random) -> GeneratedQuery:
        profile = self._table(rng, need=lambda p: p.id_column)
        columns = self._columns(rng, profile)
        if profile.id_column not in columns:
            columns.append(profile.id_column)
        where, params = self._where(rng, profile)
        direction = " DESC" if rng.random() < 0.5 else ""
        limit = rng.randint(1, 12)
        sql = f"SELECT {', '.join(columns)} FROM {profile.name}"
        if where:
            sql += f" WHERE {where}"
        sql += f" ORDER BY {profile.id_column}{direction} LIMIT {limit}"
        return GeneratedQuery(sql, params, "order_limit")

    def _shape_distinct(self, rng: random.Random) -> GeneratedQuery:
        profile = self._table(rng)
        column = rng.choice(profile.scalar_columns())
        where, params = self._where(rng, profile)
        sql = f"SELECT DISTINCT {column} FROM {profile.name}"
        if where:
            sql += f" WHERE {where}"
        return GeneratedQuery(sql, params, "distinct")

    def _shape_aggregate(self, rng: random.Random) -> GeneratedQuery:
        profile = self._table(rng)
        items = ["COUNT(*)"]
        if profile.int_columns and rng.random() < 0.7:
            column = rng.choice(profile.int_columns)
            items.append(
                rng.choice(["SUM", "MIN", "MAX", "AVG", "COUNT"]) + f"({column})"
            )
        if profile.str_columns and rng.random() < 0.4:
            column = rng.choice(profile.str_columns)
            items.append(rng.choice(["MIN", "MAX", "COUNT"]) + f"({column})")
        where, params = self._where(rng, profile)
        sql = f"SELECT {', '.join(items)} FROM {profile.name}"
        if where:
            sql += f" WHERE {where}"
        return GeneratedQuery(sql, params, "aggregate")

    def _shape_group(self, rng: random.Random) -> GeneratedQuery:
        profile = self._table(rng)
        group = rng.choice(profile.scalar_columns())
        agg = "COUNT(*)"
        if profile.int_columns and rng.random() < 0.4:
            agg = rng.choice(["SUM", "MIN", "MAX"]) + (
                f"({rng.choice(profile.int_columns)})"
            )
        sql = f"SELECT {group}, {agg} FROM {profile.name}"
        where, params = self._where(rng, profile)
        if where:
            sql += f" WHERE {where}"
        sql += f" GROUP BY {group}"
        if rng.random() < 0.4:
            sql += f" HAVING COUNT(*) > {rng.randint(0, 3)}"
        return GeneratedQuery(sql, params, "group")

    def _shape_join(self, rng: random.Random) -> GeneratedQuery:
        edge = rng.choice(self.edges)
        child = self.profiles[edge.child]
        parent = self.profiles[edge.parent]
        tables = [child.name, parent.name]
        conds = [
            f"{child.name}.{edge.parent_column} = {parent.name}.{edge.parent_id}"
        ]
        columns = [
            f"{child.name}.{rng.choice(child.scalar_columns())}",
            f"{parent.name}.{rng.choice(parent.scalar_columns())}",
        ]
        grandparent_edges = [
            e for e in self.edges
            if e.child == parent.name and e.parent not in tables
        ]
        if grandparent_edges and rng.random() < 0.4:
            hop = rng.choice(grandparent_edges)
            grand = self.profiles[hop.parent]
            tables.append(grand.name)
            conds.append(
                f"{parent.name}.{hop.parent_column} = "
                f"{grand.name}.{hop.parent_id}"
            )
            columns.append(f"{grand.name}.{rng.choice(grand.scalar_columns())}")
        params: tuple = ()
        if rng.random() < 0.6:
            target = self.profiles[rng.choice(tables)]
            extra, params = self._predicate(rng, target, qualifier=target.name)
            conds.append(extra)
        sql = (
            f"SELECT {', '.join(columns)} FROM {', '.join(tables)} "
            f"WHERE {' AND '.join(conds)}"
        )
        return GeneratedQuery(sql, params, "join")

    # -- XADT shapes -------------------------------------------------------

    def _xadt_table(self, rng: random.Random) -> tuple[_TableProfile, str]:
        profile = self._table(
            rng,
            need=lambda p: any(
                p.xadt[c].tags for c in p.xadt_columns if c in p.xadt
            ),
        )
        column = rng.choice(
            [c for c in profile.xadt_columns if profile.xadt[c].tags]
        )
        return profile, column

    def _shape_xadt_filter(self, rng: random.Random) -> GeneratedQuery:
        profile, column = self._xadt_table(rng)
        vocab = profile.xadt[column]
        columns = self._columns(rng, profile, limit=2)
        roll = rng.random()
        if roll < 0.5 or not vocab.subtrees:
            tag = rng.choice(vocab.tags + [""])
            key = rng.choice(vocab.words) if vocab.words else ""
            if not tag and not key:
                tag = rng.choice(vocab.tags)
            if tag and rng.random() < 0.4:
                key = ""
            call = f"findKeyInElm({column}, {_quote(tag)}, {_quote(key)})"
        else:
            tag, text = rng.choice(vocab.subtrees)
            call = f"elmEquals({column}, {_quote(tag)}, {_quote(text)})"
        condition = f"{call} = {rng.choice([1, 1, 1, 0])}"
        params: tuple = ()
        roll = rng.random()
        if roll < 0.3:  # the call is reached only where the first operand lets it
            first, params = self._predicate(rng, profile)
            condition = f"{first} {rng.choice(['AND', 'OR'])} {condition}"
        elif roll < 0.45:
            condition = f"NOT ({condition})"
        sql = (
            f"SELECT {', '.join(columns)} FROM {profile.name} "
            f"WHERE {condition}"
        )
        return GeneratedQuery(sql, params, "xadt_filter")

    def _shape_xadt_select(self, rng: random.Random) -> GeneratedQuery:
        profile, column = self._xadt_table(rng)
        vocab = profile.xadt[column]
        roll = rng.random()
        if roll < 0.25:
            item = f"elmText({column})"
        elif roll < 0.5:
            child = rng.choice(vocab.tags)
            parent = rng.choice(vocab.tags + ["", ""])
            start = rng.randint(1, 2)
            end = start + rng.randint(0, 2)
            item = (
                f"getElmIndex({column}, {_quote(parent)}, {_quote(child)}, "
                f"{start}, {end})"
            )
        else:
            root = rng.choice(vocab.tags + [""])
            search = rng.choice(vocab.tags + ["", ""])
            key = rng.choice(vocab.words) if vocab.words else ""
            if not root and not search and not key:
                root = rng.choice(vocab.tags)
            item = (
                f"getElm({column}, {_quote(root)}, {_quote(search)}, "
                f"{_quote(key)})"
            )
        where, params = self._where(rng, profile)
        sql = f"SELECT {item} FROM {profile.name}"
        if where:
            sql += f" WHERE {where}"
        return GeneratedQuery(sql, params, "xadt_select")


__all__ = ["GeneratedQuery", "QueryGenerator"]
