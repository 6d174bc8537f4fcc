"""The write-side batch kernels against their per-value references.

``HeapTable.bulk_insert`` must leave a table — rows, primary-key set,
page accounting, every index — exactly as storing the
same rows one ``_store_row`` at a time does, and raise exactly what that
loop raises, for any batch: valid, coercible, or with one bad row
anywhere in it.  ``collect_stats`` must equal ``_scan_column`` on every
column.  The ``heap.store_row`` fault site must keep its hit numbering.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.faults import FAULTS, FaultPlan
from repro.engine.index import build_index
from repro.engine.schema import Column, IndexDef, TableSchema
from repro.engine.statistics import _scan_column, collect_stats
from repro.engine.storage import HeapTable
from repro.engine.types import INTEGER, VARCHAR, XADT, VarcharType
from repro.errors import CrashPoint, ReproError
from repro.xadt import DICT, INDEXED, PLAIN, XadtValue


@pytest.fixture(autouse=True)
def clean_injector():
    FAULTS.clear()
    yield
    FAULTS.clear()


# ---------------------------------------------------------------------------
# bulk_insert vs. the row loop
# ---------------------------------------------------------------------------

COLUMNS = [
    Column("id", INTEGER, primary_key=True),
    Column("parent", INTEGER),
    Column("code", VarcharType(6)),
    Column("name", VARCHAR),
    Column("tag", INTEGER),
    Column("frag", XADT),
]
INDEXES = [
    ("by_parent", "parent", "hash", False),
    ("by_name", "name", "btree", False),
    ("by_tag", "tag", "hash", True),
    ("by_code", "code", "btree", True),
    ("by_frag", "frag", "hash", False),
]
FRAGMENTS = [
    XadtValue.from_xml(text, codec)
    for text in ("<a>x</a>", "<a>x</a><a>é</a>", "")
    for codec in (PLAIN, DICT, INDEXED)
]


def make_table():
    table = HeapTable(TableSchema("t", COLUMNS))
    for name, column, kind, unique in INDEXES:
        table.attach_index(build_index(IndexDef(name, "t", column, kind, unique), table))
    return table


def store_by_row(table, rows):
    """``bulk_insert`` with the column kernel taken out: the reference."""
    mark = table.mark()
    widths = []
    try:
        for row in rows:
            widths.append(table._store_row(row))
        if widths:
            table.accounting.add_rows(widths)
    except BaseException:
        table.rollback_to(mark)
        raise
    return len(widths)


def state_of(table):
    """Everything a load leaves behind, readable without private layout."""
    indexes = []
    for index in table.indexes:
        keys = {row[index.position] for row in table.rows} | {None}
        lookups = {
            # copied: a hash lookup hands out the live bucket
            repr(key): (list(index.lookup(key)), index.contains(key))
            for key in keys
        }
        ordered = list(index.range()) if index.kind == "btree" else None
        indexes.append(
            (index.definition.name, index.entry_count(), index.byte_size(),
             index.mark(), lookups, ordered)
        )
    return {
        "rows": list(table.rows),
        "row_types": [type(row) for row in table.rows],
        "pk_seen": set(table._pk_seen),
        "accounting": table.accounting.mark(),
        "indexes": indexes,
    }


def outcome(load, table, rows):
    try:
        return ("stored", load(table, rows))
    except (ReproError, TypeError) as error:
        return (type(error), str(error))


@st.composite
def valid_rows(draw, first_id, count):
    rows = []
    for offset in range(count):
        key = first_id + offset
        rows.append((
            key,
            draw(st.one_of(st.none(), st.integers(0, 4))),
            # unique btree: distinct per row, or NULL
            draw(st.sampled_from([None, f"c{key}"[:6]])),
            draw(st.one_of(st.none(), st.sampled_from(["ann", "bob", "zoë", ""]))),
            draw(st.sampled_from([None, 1000 + key])),
            draw(st.one_of(st.none(), st.sampled_from(FRAGMENTS))),
        ))
    return rows


def _coercible(row, rows):
    return (str(row[0]), row[1], row[2], 7, row[4], row[5])


def _short(row, rows):
    return row[:-1]


def _long(row, rows):
    return row + (None,)


def _not_a_row(row, rows):
    return None


def _wrong_type(row, rows):
    return (row[0], "many", row[2], row[3], row[4], row[5])


def _bool_for_int(row, rows):
    return (row[0], True, row[2], row[3], row[4], row[5])


def _int_out_of_range(row, rows):
    return (row[0], 2**31, row[2], row[3], row[4], row[5])


def _string_for_fragment(row, rows):
    return row[:5] + ("<a/>",)


def _null_key(row, rows):
    return (None,) + row[1:]


def _key_twice_in_batch(row, rows):
    return (rows[0][0],) + row[1:]


def _key_already_stored(row, rows):
    return (0,) + row[1:]


def _unique_hit_in_batch(row, rows):
    return row[:4] + (424242,) + row[5:]


def _unique_btree_hit_in_batch(row, rows):
    return row[:2] + ("twice",) + row[3:]


def _unique_hit_stored(row, rows):
    return row[:2] + ("c0",) + row[3:]


def _overlong(row, rows):
    return row[:2] + ("sevench",) + row[3:]


def _list_row(row, rows):
    return list(row)


MUTATIONS = [
    None, _coercible, _list_row, _short, _long, _not_a_row, _wrong_type,
    _bool_for_int, _int_out_of_range, _string_for_fragment, _null_key,
    _key_twice_in_batch, _key_already_stored, _unique_hit_in_batch,
    _unique_btree_hit_in_batch, _unique_hit_stored, _overlong,
]


@st.composite
def batches(draw):
    """A few batches; each valid, or with one row bent out of shape."""
    out = []
    next_id = 4  # ids 0..3 are preloaded
    for _ in range(draw(st.integers(1, 3))):
        count = draw(st.integers(0, 6))
        rows = draw(valid_rows(next_id, count))
        next_id += count
        mutation = draw(st.sampled_from(MUTATIONS))
        if mutation is not None and rows:
            position = draw(st.integers(0, len(rows) - 1))
            if mutation in (_unique_hit_in_batch, _unique_btree_hit_in_batch):
                # two rows share the unique key
                rows[0] = mutation(rows[0], rows)
                position = max(position, 1) if len(rows) > 1 else 0
            if mutation is _key_twice_in_batch and position == 0:
                position = len(rows) - 1
            rows[position] = mutation(rows[position], rows)
        out.append(rows)
    return out


PRELOAD = [
    (0, 0, "c0", "ann", 1000, FRAGMENTS[0]),
    (1, 1, None, "bob", None, None),
    (2, None, "c2", None, 1002, FRAGMENTS[3]),
    (3, 4, "c3", "zoë", 1003, FRAGMENTS[1]),
]


class TestBulkInsertEqualsTheRowLoop:
    @given(batches=batches(), as_iterator=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_same_state_same_exception(self, batches, as_iterator):
        kernel, reference = make_table(), make_table()
        for table in (kernel, reference):
            for row in PRELOAD:
                table.insert(row)
        for rows in batches:
            fed = iter(list(rows)) if as_iterator else list(rows)
            assert outcome(HeapTable.bulk_insert, kernel, fed) == outcome(
                store_by_row, reference, rows
            )
            assert state_of(kernel) == state_of(reference)

    def test_the_kernel_is_what_a_regular_batch_takes(self, monkeypatch):
        # guards the test above against comparing the row loop to itself
        table = make_table()
        monkeypatch.setattr(
            HeapTable, "_store_row", lambda self, row: pytest.fail("row path taken")
        )
        assert table.bulk_insert(PRELOAD) == len(PRELOAD)
        assert table.rows == PRELOAD

    def test_index_built_over_loaded_rows_equals_one_kept_up_to_date(self):
        kept, built = make_table(), HeapTable(TableSchema("t", COLUMNS))
        kept.bulk_insert(PRELOAD)
        built.bulk_insert(PRELOAD)
        for name, column, kind, unique in INDEXES:
            built.attach_index(
                build_index(IndexDef(name, "t", column, kind, unique), built)
            )
        for index in kept.indexes:
            index.finalize()
        assert state_of(kept) == state_of(built)


# ---------------------------------------------------------------------------
# fault-site numbering
# ---------------------------------------------------------------------------


class TestStoreRowFaultSite:
    ROWS = [(4 + i, i % 3, None, "x", None, None) for i in range(9)]

    @pytest.mark.parametrize("hit", range(1, 10))
    def test_crash_inside_a_batch_lands_on_the_same_hit(self, hit):
        states = []
        for load in (HeapTable.bulk_insert, store_by_row):
            table = make_table()
            table.bulk_insert(PRELOAD)
            before = state_of(table)
            plan = FaultPlan().crash_at("heap.store_row", hit=hit)
            FAULTS.install(plan)
            with pytest.raises(CrashPoint):
                load(table, self.ROWS)
            FAULTS.clear()
            assert plan.hits("heap.store_row") == hit
            assert state_of(table) == before
            states.append(before)
        assert states[0] == states[1]

    def test_a_completed_batch_fires_once_per_row(self):
        table = make_table()
        plan = FaultPlan()
        FAULTS.install(plan)
        table.bulk_insert(PRELOAD)
        table.bulk_insert(self.ROWS)
        assert plan.hits("heap.store_row") == len(PRELOAD) + len(self.ROWS)

    @pytest.mark.parametrize("hit", [11, 14, 20])
    def test_database_recovers_to_the_committed_prefix(self, tmp_path, hit):
        ddl = "CREATE TABLE t (id INTEGER PRIMARY KEY, parent INTEGER, name VARCHAR)"

        def load(db, doc):
            rows = [(i, i % 5, f"name{i % 3}") for i in range(doc * 10, doc * 10 + 10)]
            with db.transaction(marker=f"doc:{doc}"):
                db.bulk_insert("t", rows)

        path = str(tmp_path / "wal.jsonl")
        db = Database.open(path, sync_mode="always")
        db.execute(ddl)
        db.create_index("by_parent", "t", "parent", "hash")
        FAULTS.install(FaultPlan().crash_at("heap.store_row", hit=hit))
        with pytest.raises(CrashPoint):
            for doc in range(3):
                load(db, doc)
        FAULTS.clear()
        db.wal.abandon()
        recovered = Database.open(path, recover=True)
        reference = Database("ref")
        reference.execute(ddl)
        load(reference, 0)
        query = "SELECT id, parent, name FROM t ORDER BY id"
        assert recovered.recovery_report.markers == ["doc:0"]
        assert recovered.execute(query).rows == reference.execute(query).rows


# ---------------------------------------------------------------------------
# collect_stats vs. the value-at-a-time scan
# ---------------------------------------------------------------------------

stat_columns = st.one_of(
    st.lists(st.integers(-3, 3), max_size=8),
    st.lists(st.one_of(st.none(), st.integers(-3, 3)), max_size=8),
    st.lists(st.text(alphabet="abé ", max_size=3), max_size=8),
    st.lists(st.one_of(st.none(), st.text(alphabet="abé ", max_size=3)), max_size=8),
    st.lists(st.none(), max_size=8),
    st.lists(st.one_of(st.none(), st.sampled_from(FRAGMENTS)), max_size=8),
    # mixed: equal across types (1 == 1.0 == True), so first-seen shows
    st.lists(
        st.one_of(st.none(), st.booleans(), st.integers(0, 2),
                  st.floats(0, 2, width=16)),
        max_size=8,
    ),
)


def column_outcome(scan, values):
    try:
        return repr(scan(values))  # repr: 1, 1.0 and True must not pass for one another
    except TypeError as error:
        return str(error)


class TestCollectStatsEqualsTheScan:
    @given(st.lists(stat_columns, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_every_column(self, columns):
        height = max(map(len, columns))
        columns = [column + [None] * (height - len(column)) for column in columns]
        schema = TableSchema(
            "t", [Column(f"c{i}", VARCHAR) for i in range(len(columns))]
        )
        table = HeapTable(schema)
        # straight into the heap: no column type admits these mixtures,
        # but a statistics pass must not care what it is handed
        table.rows.extend(zip(*columns))
        for column, values in zip(schema.columns, columns):
            expected = column_outcome(_scan_column, values)
            got = column_outcome(
                lambda _: collect_stats(table).columns[column.key], values
            )
            assert got == expected

    def test_str_and_int_mixed_raises_as_the_scan_does(self):
        table = HeapTable(TableSchema("t", [Column("c", VARCHAR)]))
        table.rows.extend([(1,), ("a",)])
        with pytest.raises(TypeError):
            _scan_column([1, "a"])
        with pytest.raises(TypeError):
            collect_stats(table)

    def test_empty_table(self):
        table = make_table()
        stats = collect_stats(table)
        assert stats.row_count == 0
        assert [repr(stats.columns[c.key]) for c in COLUMNS] == [
            repr(_scan_column([]))
        ] * len(COLUMNS)
