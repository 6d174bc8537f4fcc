"""Each XADT method's column body against its per-call route.

The UDF boundary hands ``getElm`` / ``findKeyInElm`` / ``getElmIndex`` /
``elmText`` / ``elmEquals`` and ``unnest`` a batch's whole column in one
call (``invoke_scalar_batch`` / ``invoke_table_batch``); one
``invoke_scalar`` / ``invoke_table`` per value is the reference.  The
two must give the same answers in the same order, charge the same work,
count the same calls, fail at the same row with the same error — and a
replaced ``fn`` or ``invoke`` must bypass the column body.

A lateral copies its outer row into every row it produces, so a column
can hold runs of one object; a body computes each run's answer once
(the run-shaped columns below pin that, and that nothing else moves).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.faults import FAULTS, FaultPlan
from repro.engine.io import IoCounters
from repro.engine.plan.physical import Operator
from repro.engine.snapshot import activate, deactivate
from repro.errors import CrashPoint
from repro.xadt import (
    DICT,
    INDEXED,
    PLAIN,
    XadtValue,
    register_xadt_functions,
    unnest_values,
)
from repro.xadt import fastscan
from repro.xadt.decode_cache import DECODE_CACHE
from repro.xadt.metadata import SpanDirectory
from repro.xadt.storage import reset_degradation
from tests.xadt.test_codec_parity import fragments, keys, maybe_tag, tags, texts

BATCH_SIZES = [0, 1, 2, 7, 1024]
CODECS = [PLAIN, DICT, INDEXED]

#: (function name, constant arguments after the XADT column)
calls = st.one_of(
    st.tuples(st.just("getElm"), st.tuples(maybe_tag)),
    st.tuples(
        st.just("getElm"),
        st.tuples(maybe_tag, maybe_tag, keys, st.sampled_from((-1, 0, 1, 2))),
    ),
    st.tuples(st.just("findKeyInElm"), st.tuples(tags, keys)),
    st.tuples(st.just("findKeyInElm"), st.tuples(st.just(""), keys.filter(bool))),
    st.tuples(
        st.just("getElmIndex"),
        st.tuples(maybe_tag, tags, st.integers(1, 3), st.integers(1, 4)),
    ),
    st.tuples(st.just("elmText"), st.just(())),
    st.tuples(st.just("elmEquals"), st.tuples(tags, st.one_of(texts, st.just("kx")))),
    st.tuples(st.just("unnest"), st.one_of(st.just(()), st.tuples(maybe_tag))),
)


@st.composite
def columns(draw):
    """A column of NULLs, fragment texts and XADT values in every codec
    (or only one of those kinds), drawn from a few fragments."""
    size = draw(st.sampled_from(BATCH_SIZES))
    pool = draw(st.lists(fragments(), min_size=1, max_size=3))
    kinds = draw(st.sampled_from(["xadt", "null", "str", "mixed"]))
    rng = random.Random(draw(st.integers(0, 2**16)))
    values = [XadtValue.from_xml(text, codec) for text in pool for codec in CODECS]
    choices = {
        "xadt": values,
        "null": [None],
        "str": pool,
        "mixed": values + pool + [None],
    }[kinds]
    return [rng.choice(choices) for _ in range(size)]


@pytest.fixture(scope="module")
def db():
    """One database for the generated cases (the cases reset its counts)."""
    db = Database("columns")
    register_xadt_functions(db)
    return db


@pytest.fixture(autouse=True)
def clean_state():
    DECODE_CACHE.clear()
    yield
    FAULTS.clear()
    DECODE_CACHE.clear()
    reset_degradation()


def function_of(db, name):
    registry = db.registry
    return registry.table_function(name) if name == "unnest" else registry.scalar(name)


def plain(result):
    """A result as plain data: an XADT value by codec and payload."""
    if isinstance(result, XadtValue):
        return ("xadt", result.codec, result.payload)
    if isinstance(result, (list, tuple)):
        return type(result)(plain(item) for item in result)
    return result


def per_call(db, name, column, constants, results):
    """The reference: one ``invoke_scalar`` / ``invoke_table`` per value."""
    registry = db.registry
    function = function_of(db, name)
    invoke = registry.invoke_table if name == "unnest" else registry.invoke_scalar
    for value in column:
        results.append(invoke(function, [value, *constants]))


def batched(db, name, column, constants, results):
    """The column route: one batch crossing for the whole column."""
    registry = db.registry
    function = function_of(db, name)
    invoke = (
        registry.invoke_table_batch if name == "unnest"
        else registry.invoke_scalar_batch
    )
    columnar = (True,) + (False,) * len(constants)
    results.extend(invoke(function, len(column), [column, *constants], columnar))


def outcome(db, route, name, column, constants, routed=False):
    """What one route did: its answers or its error, the counted work
    and the calls the registry counted (:func:`prefix` tells how far a
    failed route got).  ``routed`` recodes every XADT value of the column
    to ``indexed``, so each answers from its directory."""
    if routed:
        column = [
            value.recode(INDEXED) if isinstance(value, XadtValue) else value
            for value in column
        ]
    db.registry.stats.reset()
    DECODE_CACHE.clear()
    io = IoCounters()
    results = []
    error = None
    token = activate(None, io)
    try:
        route(db, name, column, constants, results)
    except (Exception, CrashPoint) as exc:  # noqa: B902 - compared below
        error = (type(exc).__name__, str(exc))
    finally:
        deactivate(token)
    stats = db.registry.stats
    return (
        None if error else plain(results), error, dict(io.work),
        dict(stats.scalar_calls), dict(stats.table_calls),
    )


# ---------------------------------------------------------------------------
# same answers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("routed", [False, True], ids=["scan", "routed"])
@settings(max_examples=150, deadline=None)
@given(column=columns(), call=calls)
def test_the_column_route_answers_like_the_per_call_route(db, routed, column, call):
    name, constants = call
    expected = outcome(db, per_call, name, column, constants, routed)
    assert expected[1] is None
    assert outcome(db, batched, name, column, constants, routed) == expected


def test_an_empty_column_makes_no_call(db):
    for name, constants in [("findKeyInElm", ("", "")), ("unnest", ("a",))]:
        assert outcome(db, batched, name, [], constants)[:2] == ([], None)
        assert db.registry.stats.total_udf_calls() == 0


@pytest.mark.parametrize("name, constants", [
    ("findKeyInElm", ("", "")),
    ("getElmIndex", ("", "", 1, 1)),
    ("getElmIndex", ("", "a", "one", 1)),
    ("elmEquals", ("", "x")),
    ("elmEquals", ("a", 5)),
])
def test_arguments_are_checked_before_any_value_is_touched(db, name, constants):
    # a fault on the first decode would fire if a value were touched
    FAULTS.install(FaultPlan().crash_at("xadt.decode", hit=1))
    column = [XadtValue.from_xml("<a>x</a>", DICT)] * 3
    expected = outcome(db, per_call, name, column, constants)
    assert expected[1][0] in ("XadtMethodError", "UdfError")
    assert expected[2]["xadt_bytes_scanned"] == 0
    assert expected[3] == {name: 1}  # the call that raised had started
    assert outcome(db, batched, name, column, constants) == expected


# ---------------------------------------------------------------------------
# same failures
# ---------------------------------------------------------------------------

FAILING_CALLS = [
    ("getElm", ("a",)),
    ("getElm", ("a", "b", "", 1)),
    ("findKeyInElm", ("a", "k")),
    ("getElmIndex", ("a", "b", 1, 2)),
    ("elmText", ()),
    ("elmEquals", ("a", "k")),
    ("unnest", ("a",)),
]


def prefix(db, route, name, column, constants):
    """How many calls completed before the route failed, straight from
    the boundary's own results list (the per-call loop's, or the one
    ``invoke_batch`` appends to)."""
    function = function_of(db, name)
    results = []
    try:
        if route is batched:
            columnar = (True,) + (False,) * len(constants)
            function.invoke_batch(len(column), [column, *constants], columnar, results)
        else:
            for value in column:
                produced = function.invoke([value, *constants])
                results.append(list(produced) if name == "unnest" else produced)
    except (Exception, CrashPoint):  # noqa: B902 - the prefix is the point
        pass
    return len(results)


@pytest.mark.parametrize("name, constants", FAILING_CALLS)
@pytest.mark.parametrize("hit", [1, 2, 4, 7, 8])
def test_a_decode_crash_fires_at_the_same_row(db, name, constants, hit):
    column = [
        XadtValue.from_xml(f"<a><b>k{i}</b><b>x</b></a>", DICT) for i in range(7)
    ]
    seen = []
    for route in (per_call, batched):
        plan = FAULTS.install(FaultPlan().crash_at("xadt.decode", hit=hit))
        result = outcome(db, route, name, column, constants)
        DECODE_CACHE.clear()
        FAULTS.install(FaultPlan().crash_at("xadt.decode", hit=hit))
        seen.append((result, prefix(db, route, name, column, constants)))
        assert plan.hits("xadt.decode") == min(hit, 7)
    assert seen[0] == seen[1]
    (_results, error, *_counts), completed = seen[0]
    assert completed == min(hit - 1, 7)
    assert (error is None) == (hit > 7)


MALFORMED = {
    "an unterminated element": XadtValue("<a><b>k</b>", PLAIN),
    "a stray end tag": XadtValue("<a>k</a></b>", PLAIN),
    "a string that does not parse": "<a>k",
}


@pytest.mark.parametrize("name, constants", FAILING_CALLS)
@pytest.mark.parametrize("bad", list(MALFORMED), ids=list(MALFORMED))
@pytest.mark.parametrize("row", [0, 3, 6])
def test_a_malformed_fragment_fails_the_same_way(db, name, constants, bad, row):
    column = [XadtValue.from_xml("<a><b>k</b></a>", codec) for codec in CODECS * 3][:7]
    column[row] = MALFORMED[bad]
    expected = outcome(db, per_call, name, column, constants)
    assert outcome(db, batched, name, column, constants) == expected
    assert prefix(db, batched, name, column, constants) == prefix(
        db, per_call, name, column, constants
    )


# ---------------------------------------------------------------------------
# run-shaped columns: one object in consecutive rows
# ---------------------------------------------------------------------------

RUN_TEXTS = [
    f"<a><b>k{i}</b><b>x</b></a><a><c><b>k{i}y</b></c></a><b>k{i}</b>"
    for i in range(3)
]

RUN_CALLS = [
    ("getElm", ("a",)),
    ("getElm", ("a", "b", "k1", -1)),
    ("getElm", ("a", "b", "", 1)),
    ("findKeyInElm", ("b", "k1")),
    ("getElmIndex", ("a", "b", 1, 2)),
    ("elmText", ()),
    ("elmEquals", ("b", "k1")),
    ("unnest", ()),
    ("unnest", ("b",)),
]


def run_shaped(codec, seed):
    """Runs of one object, 1 to 40 rows each, drawn from a small pool so
    an object comes back after a break; a run ends in a NULL, in an equal
    but distinct twin of its object, or in the next run's object."""
    rng = random.Random(seed)
    pool = [XadtValue.from_xml(text, codec) for text in RUN_TEXTS]
    column = []
    for _ in range(6):
        value = rng.choice(pool)
        column += [value] * rng.randint(1, 40)
        end = rng.choice(["null", "twin", "next"])
        if end == "null":
            column.append(None)
        elif end == "twin":
            column.append(XadtValue.from_xml(value.to_xml(), codec))
    return column


def runs_of(column):
    """Rows that start a run: the first, and each that is not the object
    before it (a NULL is a fresh empty fragment every row)."""
    return sum(
        1 for i, value in enumerate(column)
        if i == 0 or value is None or value is not column[i - 1]
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("name, constants", RUN_CALLS)
def test_a_run_shaped_column_answers_like_the_per_call_route(
    db, name, constants, codec, seed
):
    column = run_shaped(codec, seed)
    assert runs_of(column) < len(column)
    expected = outcome(db, per_call, name, column, constants)
    assert expected[1] is None
    assert outcome(db, batched, name, column, constants) == expected


@pytest.mark.parametrize("name, constants", RUN_CALLS)
@pytest.mark.parametrize("hit", [1, 2, 5, 17, 40, 90])
def test_a_decode_crash_in_a_run_fires_at_the_same_row(db, name, constants, hit):
    column = run_shaped(DICT, seed=hit)
    seen = []
    for route in (per_call, batched):
        plan = FAULTS.install(FaultPlan().crash_at("xadt.decode", hit=hit))
        result = outcome(db, route, name, column, constants)
        hits = plan.hits("xadt.decode")
        DECODE_CACHE.clear()
        FAULTS.install(FaultPlan().crash_at("xadt.decode", hit=hit))
        seen.append((result, hits, prefix(db, route, name, column, constants)))
    assert seen[0] == seen[1]


def charged(db, name, column, constants):
    """The work one batch crossing charges, with the decode cache as it
    is (warm or cold)."""
    io = IoCounters()
    token = activate(None, io)
    try:
        batched(db, name, column, constants, [])
    finally:
        deactivate(token)
    return dict(io.work)


@pytest.mark.parametrize("name, constants", [
    ("findKeyInElm", ("b", "k1")),
    ("getElm", ("a",)),
])
def test_every_dict_value_passes_the_decode_site_warm_or_cold(db, name, constants):
    # the memoized findKeyInElm verdict does not skip the site: the
    # value's text is fetched (and charged) like every other method's
    column = [XadtValue.from_xml(f"<a><b>k{i}</b></a>", DICT) for i in range(5)]
    scanned = sum(len(value.to_xml()) for value in column)
    decoded = sum(len(value.payload) for value in column)
    DECODE_CACHE.clear()
    plan = FAULTS.install(FaultPlan())
    cold = charged(db, name, column, constants)
    assert plan.hits("xadt.decode") == len(column)
    warm = charged(db, name, column, constants)
    assert plan.hits("xadt.decode") == 2 * len(column)
    for work in (cold, warm):
        assert work["xadt_bytes_scanned"] == scanned
        assert work["xadt_bytes_decoded"] == decoded


#: (call, the kernels whose calls are counted: a scan's and a directory's)
SPIED = [
    (("getElm", ("a",)),
     [(fastscan, "get_elm_plain"), (SpanDirectory, "get_elm")]),
    (("getElmIndex", ("a", "b", 1, 2)),
     [(fastscan, "get_elm_index_plain"), (SpanDirectory, "get_elm_index")]),
    (("elmText", ()), [(fastscan, "text_of")]),
    (("elmEquals", ("b", "k1")),
     [(fastscan, "find_spans"), (SpanDirectory, "outermost_of")]),
    (("unnest", ("b",)),
     [(fastscan, "unnest_plain"), (SpanDirectory, "unnest")]),
]


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("call, kernels", SPIED, ids=[c[0][0] for c in SPIED])
def test_a_kernel_runs_once_per_run_not_once_per_row(
    db, monkeypatch, call, kernels, codec
):
    name, constants = call
    column = run_shaped(codec, seed=7)
    counted = []
    for owner, attribute in kernels:
        kernel = getattr(owner, attribute)

        def spy(*args, kernel=kernel):
            counted.append(args)
            return kernel(*args)

        monkeypatch.setattr(owner, attribute, spy)
    outcome(db, batched, name, column, constants)
    assert len(counted) == runs_of(column)
    counted.clear()
    outcome(db, per_call, name, column, constants)
    assert len(counted) == len(column)


# ---------------------------------------------------------------------------
# the seams
# ---------------------------------------------------------------------------


class TestSeams:
    """A column body runs only while ``fn`` is the body it was registered
    for and ``invoke`` is the class's own."""

    COLUMN = [XadtValue.from_xml("<a><b>k</b></a>"), None, "<a>x</a>"]

    @pytest.fixture(params=["getElm", "unnest"])
    def spied(self, request, empty_db):
        """(db, function name, constants, list of column-body calls)."""
        function = function_of(empty_db, request.param)
        body = function.column
        seen = []

        def spy(results, column, *constants):
            seen.append(len(column))
            return body(results, column, *constants)

        function.column = spy
        return empty_db, request.param, ("a",), seen

    def test_the_registered_body_gets_the_column(self, spied):
        db, name, constants, seen = spied
        outcome(db, batched, name, self.COLUMN, constants)
        assert seen == [3]

    def test_a_replaced_fn_bypasses_the_column_body(self, spied):
        db, name, constants, seen = spied
        function = function_of(db, name)
        original = function.fn
        called = []
        function.fn = lambda *args: called.append(args) or original(*args)
        answers = outcome(db, batched, name, self.COLUMN, constants)
        assert seen == [] and len(called) == 3
        function.fn = original
        assert answers == outcome(db, per_call, name, self.COLUMN, constants)

    def test_a_replaced_invoke_is_crossed_per_call(self, spied):
        db, name, constants, seen = spied
        function = function_of(db, name)
        crossed = []
        invoke = type(function).invoke.__get__(function)
        function.invoke = lambda args: crossed.append(args) or invoke(args)
        answers = outcome(db, batched, name, self.COLUMN, constants)
        assert seen == [] and len(crossed) == 3
        del function.invoke
        assert answers == outcome(db, per_call, name, self.COLUMN, constants)

    def test_a_varying_constant_maps_the_per_call_body(self, spied):
        db, name, _constants, seen = spied
        function = function_of(db, name)
        invoke = (
            db.registry.invoke_table_batch if name == "unnest"
            else db.registry.invoke_scalar_batch
        )
        tags = ["a", "b", "a"]
        answers = invoke(function, 3, [self.COLUMN, tags], (True, True))
        assert seen == []
        assert plain(answers) == plain([
            function.fn(value, tag) if name != "unnest"
            else list(function.fn(value, tag))
            for value, tag in zip(self.COLUMN, tags)
        ])


# ---------------------------------------------------------------------------
# the lateral, end to end
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch_size", [1, 2, 7, 1024])
def test_a_lateral_takes_literal_and_parameter_tags_as_constants(
    empty_db, monkeypatch, batch_size
):
    monkeypatch.setattr(Operator, "batch_size", batch_size)
    db = empty_db
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, frag XADT)")
    stored = {}
    for i in range(12):
        text = "".join(f"<s><a>{i}.{j}</a><b>{j}</b></s>" for j in range(i % 4))
        stored[i] = XadtValue.from_xml(text, CODECS[i % 3])
        db.insert("t", (i, stored[i]))
    expected = sorted(
        (i, piece.to_xml())
        for i, value in stored.items()
        for piece in unnest_values(value, "a")
    )
    literal = db.execute(
        "SELECT id, u.out FROM t, TABLE(unnest(frag, 'a')) u ORDER BY id"
    )
    prepared = db.prepare(
        "SELECT id, u.out FROM t, TABLE(unnest(frag, ?)) u ORDER BY id"
    ).execute("a")
    for result in (literal, prepared):
        assert sorted((i, out.to_xml()) for i, out in result.rows) == expected
    assert db.registry.stats.table_calls["unnest"] == 2 * len(stored)
