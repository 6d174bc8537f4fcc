"""Hash operators' per-key state, held to dict-of-lists / per-row models.

``HashJoin`` builds its table through ``physical.hash_buckets``: every
bucket is a tuple of the key's rows in input order, so a bucket over
plain-valued rows is something the cyclic collector untracks.
``HashAggregate`` keeps one group number per key and flat per-aggregate
lists; it must agree with a naive per-row aggregation — results (floats
bit for bit), errors, and the ``charge_memory`` amount of every batch.
"""

import gc
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.expr import Binding, Slot, SlotRef
from repro.engine.expr_compile import compile_column
from repro.engine.io import IoCounters, estimate_row_bytes
from repro.engine.plan.physical import (
    AggSpec,
    HashAggregate,
    Operator,
    hash_buckets,
)
from repro.engine.snapshot import activate, deactivate
from repro.engine.types import INTEGER
from repro.engine.udf import FunctionRegistry
from repro.engine.values import batch_group_keys, group_key
from repro.errors import ExecutionError
from repro.xadt import DICT, INDEXED, PLAIN, XadtValue

_PLAIN_TYPES = (int, float, str, bool, type(None))

xadt_values = st.builds(
    lambda text, codec: XadtValue.from_xml(text, codec),
    st.sampled_from(["<a>x</a>", "<a>y</a>", "<a>x</a><a>y</a>", ""]),
    st.sampled_from([PLAIN, DICT, INDEXED]),
)
#: few distinct keys, so buckets and groups collect duplicates
key_values = st.one_of(
    st.none(), st.integers(0, 3), st.sampled_from([1.0, True, "a", "b"]),
    xadt_values,
)


def chunks(rows, size):
    return [rows[start:start + size] for start in range(0, len(rows), size)]


# -- HashJoin's build table ---------------------------------------------------


def keyed_batches(rows, columns, size):
    """``(keys, batch)`` pairs as ``HashJoin`` feeds its build."""
    composite = len(columns) > 1
    key_of = itemgetter(*columns)
    for batch in chunks(rows, size):
        yield batch_group_keys(list(map(key_of, batch)), composite), batch


def model_buckets(rows, columns):
    """Dict of lists, one ``group_key`` per row, NULL keys left out."""
    model = {}
    for row in rows:
        parts = tuple(group_key(row[i]) for i in columns)
        if None in parts:
            continue
        key = parts if len(columns) > 1 else parts[0]
        model.setdefault(key, []).append(row)
    return model


def is_plain(bucket):
    return all(type(value) in _PLAIN_TYPES for row in bucket for value in row)


class TestHashBuckets:
    @given(
        rows=st.lists(
            st.tuples(key_values, key_values, st.integers(0, 9)), max_size=40
        ),
        columns=st.sampled_from([[0], [1], [0, 1]]),
        size=st.sampled_from([1, 2, 1024]),
    )
    @settings(max_examples=300, deadline=None)
    def test_buckets_are_the_models_rows_as_tuples(self, rows, columns, size):
        table = hash_buckets(keyed_batches(rows, columns, size), len(columns) > 1)
        model = model_buckets(rows, columns)
        assert list(table) == list(model)
        for key, bucket in table.items():
            assert type(bucket) is tuple
            assert len(bucket) == len(model[key])
            assert all(row is expected for row, expected in zip(bucket, model[key]))

    def test_one_row_keys_stay_one_tuples(self):
        rows = [(1, "a"), (2, "b"), (1, "c"), (None, "d"), (1, "e")]
        table = hash_buckets(keyed_batches(rows, [0], 2), False)
        assert table == {1: ((1, "a"), (1, "c"), (1, "e")), 2: ((2, "b"),)}

    def test_two_collections_untrack_plain_buckets(self):
        xadt = XadtValue.from_xml("<a>x</a>", DICT)
        # rows built here, as a scan's projection builds them, so the
        # buckets hold their only references
        rows = [(key % 7, f"r{key}", key / 2) for key in range(60)]
        rows += [(key, xadt, None) for key in (3, 9)]
        table = hash_buckets(keyed_batches(rows, [0], 4), False)
        del rows
        plain = [bucket for bucket in table.values() if is_plain(bucket)]
        assert len(plain) == 6 and len(table) == 8
        # a bucket is traversed before the rows it holds: the first
        # collection untracks the rows, the second the bucket
        gc.collect()
        gc.collect()
        assert not any(map(gc.is_tracked, plain))
        # a row holding a tracked value keeps itself and its bucket tracked
        assert gc.is_tracked(table[3]) and gc.is_tracked(table[9])


# -- HashAggregate against a per-row model ------------------------------------


class _Rows(Operator):
    def __init__(self, rows, arity, batch_size):
        self.binding = Binding([Slot("t", f"c{i}", INTEGER) for i in range(arity)])
        self._rows = rows
        self.batch_size = batch_size

    def _execute(self):
        yield from chunks(self._rows, self.batch_size)

    def explain(self, depth=0):
        return [self._line(depth, "Rows")]


class _MemoryLog:
    """A statement budget that records every ``charge_memory`` amount."""

    deadline = None

    def __init__(self):
        self.amounts = []

    def charge_memory(self, amount):
        self.amounts.append(amount)


def column(index):
    return compile_column(SlotRef(index), Binding([]), FunctionRegistry())


def reference_aggregate(rows, size, grouped, specs):
    """Per row: ``(result rows, charge per batch that opened a group)``.

    Row ``(g, v)``: grouped by ``g`` when ``grouped``; each spec
    ``(kind, distinct)`` aggregates ``v`` (``("count*", False)`` counts
    rows).  Raises ``ExecutionError`` where SQL aggregation must.
    """
    overhead = 56 * max(len(specs), 1)
    groups = {}
    charges = []
    for batch in chunks(rows, size):
        opened = 0
        for group_value, value in batch:
            raw_key = (group_value,) if grouped else ()
            key = tuple(map(group_key, raw_key))
            if key not in groups:
                states = [{"n": 0, "total": 0, "best": None, "seen": set()}
                          for _ in specs]
                groups[key] = (raw_key, states)
                opened += estimate_row_bytes(raw_key) + overhead
            for (kind, distinct), state in zip(specs, groups[key][1]):
                if kind == "count*":
                    state["n"] += 1
                    continue
                if value is None:
                    continue
                if distinct:
                    if group_key(value) in state["seen"]:
                        continue
                    state["seen"].add(group_key(value))
                if kind in ("sum", "avg"):
                    if not isinstance(value, (int, float)):
                        raise ExecutionError("non-numeric")
                    state["total"] += value
                elif kind in ("min", "max"):
                    best = state["best"]
                    try:
                        if best is None or (
                            value < best if kind == "min" else value > best
                        ):
                            state["best"] = value
                    except TypeError:
                        raise ExecutionError("unordered") from None
                state["n"] += 1
        if opened:
            charges.append(opened)
    if not groups and not grouped:
        groups[()] = ((), [{"n": 0, "total": 0, "best": None} for _ in specs])

    def result(kind, state):
        if kind in ("count", "count*"):
            return state["n"]
        if kind == "sum":
            return state["total"] if state["n"] else None
        if kind == "avg":
            return state["total"] / state["n"] if state["n"] else None
        return state["best"]

    out = [
        raw_key + tuple(result(kind, state) for (kind, _), state in zip(specs, states))
        for raw_key, states in groups.values()
    ]
    return out, charges


def same(left, right):
    """Equal, of one type, and a float down to its bits (``repr``)."""
    if type(left) is not type(right):
        return False
    if type(left) is float:
        return repr(left) == repr(right)
    return left is right or left == right


def assert_same_rows(got, expected):
    assert len(got) == len(expected)
    for row, want in zip(got, expected):
        assert len(row) == len(want) and all(map(same, row, want)), (row, want)


numbers = st.one_of(
    st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from([0.0, -0.0, 0.1, 1e16]),
)
agg_values = st.one_of(st.none(), numbers, st.sampled_from(["a", "b"]), xadt_values)
agg_specs = st.lists(
    st.tuples(
        st.sampled_from(["count*", "count", "sum", "avg", "min", "max"]),
        st.booleans(),
    ).map(lambda spec: (spec[0], spec[1] and spec[0] != "count*")),
    min_size=1,
    max_size=4,
)


def run_aggregate(rows, size, grouped, specs):
    aggregate = HashAggregate(
        _Rows(rows, 2, size),
        [column(0)] if grouped else [],
        [Slot("", "g", INTEGER)] if grouped else [],
        [
            AggSpec("count" if kind == "count*" else kind,
                    None if kind == "count*" else column(1), distinct)
            for kind, distinct in specs
        ],
        [Slot("", f"a{i}", INTEGER) for i in range(len(specs))],
    )
    log = _MemoryLog()
    token = activate(None, IoCounters(), log)
    try:
        return list(aggregate.rows()), log.amounts
    finally:
        deactivate(token)


class TestHashAggregateAgainstReference:
    @given(
        rows=st.lists(st.tuples(key_values, agg_values), max_size=30),
        size=st.sampled_from([1, 2, 1024]),
        grouped=st.booleans(),
        specs=agg_specs,
    )
    @settings(max_examples=400, deadline=None)
    def test_results_errors_and_charges(self, rows, size, grouped, specs):
        try:
            expected, charges = reference_aggregate(rows, size, grouped, specs)
        except ExecutionError:
            with pytest.raises(ExecutionError):
                run_aggregate(rows, size, grouped, specs)
            return
        got, amounts = run_aggregate(rows, size, grouped, specs)
        assert_same_rows(got, expected)
        assert amounts == charges

    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 2), st.one_of(st.none(), numbers)),
            max_size=30,
        ),
        size=st.sampled_from([1, 2, 1024]),
        grouped=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_numeric_aggregates_never_raise(self, rows, size, grouped):
        # the hypothesis search above mostly lands on mixed columns that
        # raise; here every aggregate must produce rows
        specs = [("sum", False), ("avg", False), ("min", False), ("max", True),
                 ("sum", True), ("count", True), ("count*", False)]
        got, amounts = run_aggregate(rows, size, grouped, specs)
        expected, charges = reference_aggregate(rows, size, grouped, specs)
        assert_same_rows(got, expected)
        assert amounts == charges

    def test_float_sums_add_left_to_right_from_int_zero(self):
        rows = [(0, 1e16), (0, 1.0), (0, -1e16), (0, -0.0)]
        got, _ = run_aggregate(rows, 2, False, [("sum", False), ("avg", False)])
        # ((0 + 1e16) + 1.0) - 1e16 == 0.0, and 0.0 + -0.0 == 0.0
        assert repr(got[0][0]) == "0.0"
        assert repr(got[0][1]) == "0.0"

    def test_empty_grand_total_is_one_row(self):
        specs = [("count*", False), ("count", True), ("sum", False),
                 ("avg", False), ("min", False), ("max", False)]
        assert run_aggregate([], 2, False, specs) == (
            [(0, 0, None, None, None, None)], []
        )
        assert run_aggregate([], 2, True, specs) == ([], [])

    def test_unorderable_min_raises(self):
        with pytest.raises(ExecutionError, match="MIN over unordered"):
            run_aggregate([(0, 1), (0, "a")], 1024, True, [("min", False)])

    def test_count_distinct_keys_xadt_values_by_text(self):
        rows = [
            (0, XadtValue.from_xml("<a>x</a>", codec))
            for codec in (PLAIN, DICT, INDEXED)
        ] + [(0, "<a>x</a>")]
        got, _ = run_aggregate(rows, 2, True, [("count", True), ("count", False)])
        assert got == [(0, 2, 4)]
