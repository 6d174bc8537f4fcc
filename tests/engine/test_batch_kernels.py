"""The two batch kernels against their per-row reference semantics.

``io.row_bytes_kernel`` over slots of unknown provenance must equal
``sum(estimate_row_bytes(row))`` and ``values.batch_group_keys`` must
equal ``group_key`` value by value, for any mix of value types a batch
can hold — the kernels decide from the types they observe, so no mix may
steer them wrong.  The width kernel must equal the same sum on a base
table's stored rows too, where it trusts the declared column types.  ``HashJoin`` is held, rows **and order**, to a
per-row hash join kept here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine.expr import Binding, ParamBox, Slot
from repro.engine.io import (
    IoCounters,
    estimate_row_bytes,
    pages_of_bytes,
    row_bytes_kernel,
)
from repro.engine.plan.logical import infer_type
from repro.engine.plan.optimizer import plan_select
from repro.engine.plan.physical import (
    HashJoin,
    Operator,
    Project,
    SeqScan,
    row_picker,
    table_binding,
)
from repro.engine.schema import Column, TableSchema
from repro.engine.snapshot import activate, deactivate
from repro.engine.sql.parser import parse_sql
from repro.engine.storage import HeapTable
from repro.engine.types import DOUBLE, INTEGER, VARCHAR, XADT, IntegerType
from repro.engine.values import batch_group_keys, group_key, like, like_matcher
from repro.xadt import DICT, INDEXED, PLAIN, XadtValue, register_xadt_functions


class _Text(str):
    """A ``str`` subclass: must be costed and keyed like a ``str``."""


class _Falsy(str):
    """A ``str`` subclass that tests false even when it is not empty."""

    def __bool__(self):
        return False


class _Sized:
    """A foreign object that reports a byte size."""

    def byte_size(self):
        return 17


class _Opaque:
    """A foreign object with no byte size (costs nothing)."""


_FRAGMENTS = ["<a>x</a>", "<a>x</a><a>y</a>", "<b k='1'><a>x</a></b>", ""]

xadt_values = st.builds(
    lambda text, codec: XadtValue.from_xml(text, codec),
    st.sampled_from(_FRAGMENTS),
    st.sampled_from([PLAIN, DICT, INDEXED]),
)
plain_values = st.one_of(
    st.none(),
    st.integers(-5, 5),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text(max_size=6),
)
any_values = st.one_of(
    plain_values,
    st.builds(_Text, st.text(max_size=6)),
    xadt_values,
    st.builds(_Sized),
    st.builds(_Opaque),
)


@st.composite
def batches(draw, values=any_values):
    """A batch of equal-arity rows at size 1, 2 or 1024."""
    arity = draw(st.integers(0, 4))
    rows = draw(
        st.lists(
            st.lists(values, min_size=arity, max_size=arity).map(tuple),
            min_size=1,
            max_size=6,
        )
    )
    size = draw(st.sampled_from([1, 2, 1024]))
    return (rows * (size // len(rows) + 1))[:size]


def unstored_width(batch):
    """The width kernel over slots of unknown provenance, typed INTEGER
    (a computed column's inferred type says nothing of its values)."""
    arity = len(batch[0]) if batch else 0
    slots = [Slot("", f"c{i}", INTEGER) for i in range(arity)]
    return row_bytes_kernel(slots)(batch)


class TestWidthKernel:
    """The observed-type rule: what a slot of unknown provenance costs."""

    @given(batches())
    @settings(max_examples=150, deadline=None)
    def test_equals_sum_of_row_estimates(self, batch):
        assert unstored_width(batch) == sum(map(estimate_row_bytes, batch))

    def test_empty_batch(self):
        assert unstored_width([]) == 0

    def test_column_kinds(self):
        fragment = XadtValue.from_xml("<a>x</a>", DICT)
        batch = [(1, "ab", None, fragment), (None, None, 2.5, fragment)]
        assert unstored_width(batch) == (
            2 * (24 + 8 * 4) + 2 + 2 * fragment.byte_size()
        )


#: a base table with one column of each declared type
BASE_COLUMNS = [
    Column("i", INTEGER), Column("d", DOUBLE), Column("v", VARCHAR),
    Column("x", XADT),
]
base_rows = st.lists(
    st.tuples(
        st.none() | st.integers(-(2**31), 2**31 - 1),
        st.none() | st.floats() | st.integers(-5, 5),  # stored as float
        # "" and non-ASCII text; a str subclass is stored as plain str
        st.none()
        | st.text(max_size=6)
        | st.builds(_Text, st.text(max_size=3))
        | st.builds(_Falsy, st.text(min_size=1, max_size=3)),
        st.none() | xadt_values,
    ),
    min_size=1,
    max_size=6,
)


def reference_width(batch):
    return sum(map(estimate_row_bytes, batch))


class TestPlannedWidthKernel:
    @given(
        rows=base_rows,
        projection=st.none() | st.lists(st.integers(0, 3), max_size=5),
        size=st.sampled_from([1, 2, 1024]),
    )
    @settings(max_examples=150, deadline=None)
    def test_base_table_batches(self, rows, projection, size):
        table = HeapTable(TableSchema("t", BASE_COLUMNS))
        table.bulk_insert(rows)
        slots = table_binding(table, "t", projection).slots
        assert all(slot.stored for slot in slots)
        stored = (table.rows * (size // len(rows) + 1))[:size]
        pick = row_picker(projection)
        batch = stored if pick is None else list(map(pick, stored))
        width = reference_width(batch)
        assert row_bytes_kernel(slots)(batch) == width
        assert unstored_width(batch) == width

    @given(batches(), st.lists(st.sampled_from([INTEGER, DOUBLE, VARCHAR, XADT])))
    @settings(max_examples=150, deadline=None)
    def test_slots_of_unknown_provenance(self, batch, types):
        # a declared type says nothing about a computed column's values
        arity = len(batch[0])
        types = (types + [INTEGER] * arity)[:arity]
        slots = [Slot("", f"c{i}", sql_type) for i, sql_type in enumerate(types)]
        assert row_bytes_kernel(slots)(batch) == reference_width(batch)

    def test_empty_batch(self):
        slots = table_binding(HeapTable(TableSchema("t", BASE_COLUMNS)), "t").slots
        assert row_bytes_kernel(slots)([]) == 0

    def test_only_base_tables_are_stored(self, typed_db):
        view = typed_db.heap("sys_tables")
        assert not any(slot.stored for slot in table_binding(view, "s").slots)
        plan = plan_select(parse_sql("SELECT a, b FROM t"), typed_db, ParamBox(0))
        assert isinstance(plan, Project) and isinstance(plan.input, SeqScan)
        assert all(slot.stored for slot in plan.input.binding.slots)
        assert not any(slot.stored for slot in plan.binding.slots)

    def test_stored_is_not_part_of_slot_equality(self):
        assert Slot("t", "a", INTEGER, True) == Slot("t", "a", INTEGER)
        assert hash(Slot("t", "a", INTEGER, True)) == hash(Slot("t", "a", INTEGER))


class TestKeyKernel:
    @given(st.lists(any_values))
    @settings(max_examples=150, deadline=None)
    def test_scalar_keys(self, column):
        assert batch_group_keys(column, False) == [group_key(v) for v in column]

    @given(batches())
    @settings(max_examples=150, deadline=None)
    def test_composite_keys(self, rows):
        assert batch_group_keys(rows, True) == [
            tuple(group_key(v) for v in row) for row in rows
        ]

    def test_plain_batches_are_returned_as_is(self):
        column = [1, None, "a", 2.0, True]
        assert batch_group_keys(column, False) is column
        rows = [(1, "a"), (None, 2.0)]
        assert batch_group_keys(rows, True) is rows

    def test_xadt_values_key_by_text_across_codecs(self):
        plain = XadtValue.from_xml("<a>x</a>", PLAIN)
        coded = XadtValue.from_xml("<a>x</a>", DICT)
        keys = batch_group_keys([plain, coded, "<a>x</a>"], False)
        assert keys[0] == keys[1] != keys[2]


# -- HashJoin against a per-row reference -----------------------------------


class _Rows(Operator):
    def __init__(self, rows, arity, batch_size):
        self.binding = Binding([Slot("t", f"c{i}", INTEGER) for i in range(arity)])
        self._rows = rows
        self.batch_size = batch_size

    def _execute(self):
        for start in range(0, len(self._rows), self.batch_size):
            yield self._rows[start:start + self.batch_size]

    def explain(self, depth=0):
        return [self._line(depth, "Rows")]


def reference_hash_join(left, right, left_keys, right_keys):
    """The parent's per-row join: build on the right, probe in left order."""
    table = {}
    for row in right:
        key = tuple(group_key(row[i]) for i in right_keys)
        if any(part is None for part in key):
            continue
        table.setdefault(key, []).append(row)
    out = []
    for row in left:
        key = tuple(group_key(row[i]) for i in left_keys)
        out.extend(row + match for match in table.get(key, ()))
    return out


def rows_under_work_mem(join, work_mem_bytes, io=None):
    """``join``'s rows, run as a statement with this join working memory
    (a tiny one takes the spill path) charging ``io``."""
    token = activate(None, io or IoCounters(), work_mem_bytes=work_mem_bytes)
    try:
        return list(join.rows())
    finally:
        deactivate(token)


join_values = st.one_of(
    st.none(),
    st.integers(0, 3),
    st.sampled_from([1.0, True, 2.0, "1", "a"]),
    xadt_values,
)
join_rows = st.lists(st.tuples(join_values, join_values, st.integers(0, 9)), max_size=12)


class TestHashJoinAgainstReference:
    @given(
        left=join_rows,
        right=join_rows,
        keys=st.sampled_from([([0], [0]), ([0, 1], [0, 1]), ([1], [0])]),
        batch_size=st.sampled_from([1, 2, 1024]),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_and_order(self, left, right, keys, batch_size):
        join = HashJoin(
            _Rows(left, 3, batch_size),
            _Rows(right, 3, batch_size),
            keys[0],
            keys[1],
        )
        assert rows_under_work_mem(join, 64) == reference_hash_join(
            left, right, keys[0], keys[1]
        )

    def test_numeric_key_equivalence_and_null_keys(self):
        left = [(1, "l1"), (None, "l2"), (1.0, "l3"), (True, "l4"), (2, "l5")]
        right = [(True, "r1"), (None, "r2"), (1, "r3")]
        join = HashJoin(_Rows(left, 2, 2), _Rows(right, 2, 2), [0], [0])
        assert list(join.rows()) == [
            (key, name) + match
            for key, name in left
            if key is not None and key == 1
            for match in (right[0], right[2])
        ]

    def test_spill_charges_build_and_probe_bytes(self):
        left = [(i, "x" * 10) for i in range(50)]
        right = [(i, "y" * 30) for i in range(40)]
        io = IoCounters()
        rows_under_work_mem(
            HashJoin(_Rows(left, 2, 7), _Rows(right, 2, 7), [0], [0]), 256, io
        )
        build = sum(map(estimate_row_bytes, right))
        probe = sum(map(estimate_row_bytes, left))
        pages = pages_of_bytes(build) + pages_of_bytes(probe)
        assert io.snapshot() == (0, pages, pages)
        assert io.notes == [f"hash join spilled {pages} pages (build {build} B)"]

    def test_empty_inputs(self):
        rows = [(1, 2, 3)]
        for left, right in (([], rows), (rows, []), ([], [])):
            join = HashJoin(_Rows(left, 3, 2), _Rows(right, 3, 2), [0], [0])
            assert list(join.rows()) == []


# -- type trust: inferred slot types are guesses ------------------------------


@pytest.fixture()
def typed_db():
    db = Database("kernels")
    register_xadt_functions(db)
    # no declared result type: infer_type guesses VARCHAR for an int
    db.registry.register_scalar("twice", lambda value: value * 2)
    db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR, x XADT)")
    for a, b, xml in [
        (1, "p", "<e><k>u</k></e>"),
        (2, "p", "<e><k>u</k></e>"),
        (3, "q", "<e><k>v</k></e>"),
        (4, "q", "<e><k>u</k><k>v</k></e>"),
    ]:
        codec = DICT if a % 2 else PLAIN
        db.insert("t", (a, b, XadtValue.from_xml(xml, codec)))
    db.runstats()
    return db


class TestInferredTypesAreNotTrusted:
    """Slots above a Project/aggregate may be typed VARCHAR yet hold ints
    or XADT fragments; a kernel that specialised on the slot type would
    raise (``len(int)``) or split equal fragments stored under different
    codecs into separate groups."""

    def test_distinct_over_arithmetic(self, typed_db):
        rows = typed_db.execute("SELECT DISTINCT a + 1 FROM t").rows
        assert rows == [(2,), (3,), (4,), (5,)]

    def test_distinct_over_untyped_function(self, typed_db):
        typed_db.governor.configure(memory_budget_bytes=1 << 30)
        rows = typed_db.execute("SELECT DISTINCT twice(a), twice(b) FROM t").rows
        assert rows == [(2, "pp"), (4, "pp"), (6, "qq"), (8, "qq")]

    def test_group_by_xadt_expression(self, typed_db):
        rows = typed_db.execute(
            "SELECT getElm(x, 'k', 'k'), COUNT(*) FROM t GROUP BY getElm(x, 'k', 'k')"
        ).rows
        assert [(key.to_xml(), count) for key, count in rows] == [
            ("<k>u</k>", 2),
            ("<k>v</k>", 1),
            ("<k>u</k><k>v</k>", 1),
        ]

    def test_count_distinct_xadt_expression(self, typed_db):
        rows = typed_db.execute(
            "SELECT b, COUNT(DISTINCT getElm(x, 'k', 'k')) FROM t GROUP BY b"
        ).rows
        assert rows == [("p", 1), ("q", 2)]

    def test_governed_distinct_over_unknown_typed_slots(self, typed_db):
        # the width kernel runs under a memory budget: ints and fragments
        # in VARCHAR-typed slots must cost what estimate_row_bytes says
        typed_db.governor.configure(memory_budget_bytes=1 << 30)
        rows = typed_db.execute(
            "SELECT DISTINCT a * 2, getElm(x, 'k', 'k') FROM t"
        ).rows
        assert [row[0] for row in rows] == [2, 4, 6, 8]

    def test_infer_type_of_integer_arithmetic(self, typed_db):
        binding = Binding(
            [Slot("t", "a", INTEGER), Slot("t", "b", VARCHAR), Slot("t", "x", XADT)]
        )

        def inferred(sql_expr):
            statement = parse_sql(f"SELECT {sql_expr} FROM t")
            return infer_type(statement.items[0].expr, binding, typed_db.registry)

        assert isinstance(inferred("a + 1"), IntegerType)
        assert isinstance(inferred("-a * (a - 2)"), IntegerType)
        assert inferred("a + b") is VARCHAR
        assert inferred("-b") is VARCHAR


# -- LIKE without a regex ------------------------------------------------------

_PATTERN_ALPHABET = "ab%_.*\n(["
like_patterns = st.one_of(
    st.text(alphabet=_PATTERN_ALPHABET, max_size=6),
    st.builds(
        lambda lead, core, trail: lead + core + trail,
        st.sampled_from(["", "%", "%%"]),
        st.text(alphabet="ab.*\n([", max_size=4),
        st.sampled_from(["", "%", "%%"]),
    ),
)
like_operands = st.one_of(
    st.none(),
    st.integers(-3, 30),
    st.text(alphabet="ab.*\n([%_", max_size=8),
    st.builds(_Text, st.text(alphabet="ab", max_size=4)),
    xadt_values,
)


class TestLikeMatcher:
    @given(pattern=like_patterns, value=like_operands)
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_the_regex_matcher(self, pattern, value):
        expected = like(value, pattern)  # the regex reference
        assert like_matcher(pattern)(value) is expected
        assert like_matcher(pattern, negated=True)(value) is (
            value is not None and not expected
        )

    @pytest.mark.parametrize(
        "pattern", ["", "%", "%%", "a", "a%", "%a", "%a%", "a.c", "%a\nb%"]
    )
    def test_plain_shapes_use_no_regex(self, pattern):
        from repro.engine import values

        values._like_regex.cache_clear()
        matcher = like_matcher(pattern)
        matcher("a\nb")
        assert values._like_regex.cache_info().misses == 0
