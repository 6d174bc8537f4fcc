"""The batch UDF boundary must be the per-call boundary, a column at a time.

``compile_expr`` of ``tests/engine/reference_expr.py`` (one row, one
``FunctionRegistry.invoke_scalar`` per call) is the reference; the batch
functions of :mod:`repro.engine.expr_compile` hoist every call into an
``invoke_scalar_batch`` column — over the rows that reach it, under a
short-circuiting operand — and run a top-level AND as a cascade.  Everything here pins the two routes to each other: same values
in the same order, the same multiset of calls with the same arguments,
the same errors, the same counters — and pins that every operator of a
plan takes the batch route.
"""

import time
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.expr import (
    And,
    Arithmetic,
    Binding,
    ColumnRef,
    Comparison,
    FuncCall,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    ParamBox,
    Parameter,
    Slot,
    SlotRef,
)
from repro.engine.expr_compile import (
    compile_column,
    compile_filter,
    compile_projection,
)
from repro.engine.config import DEFAULT_BATCH_SIZE
from repro.engine.database import Database
from repro.engine.governor import GovernorLimits, StatementBudget
from repro.engine.io import work_counters
from repro.engine.snapshot import activate, deactivate
from repro.engine.sql.parser import parse_expression
from repro.engine.types import INTEGER, VARCHAR, XADT
from repro.engine.udf import FunctionKind, FunctionRegistry, ScalarFunction
from repro.errors import StatementTimeout, UdfError
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.xadt import DICT, INDEXED, PLAIN, XadtValue
from tests.engine.reference_expr import compile_expr
from tests.engine.test_expr_compile import sites_database

BATCH_SIZES = [0, 1, 2, 7, 1024]

BINDING = Binding([
    Slot("t", "a", INTEGER),
    Slot("t", "b", INTEGER),
    Slot("t", "s", VARCHAR),
    Slot("t", "x", XADT),
])
_COLUMNS = {kind: ColumnRef("t", name) for kind, name in
            (("int", "a"), ("int2", "b"), ("str", "s"), ("frag", "x"))}

_FRAGMENTS = ["<a>x</a>", "<a>x</a><a>y</a>", "<b k='1'><a>x</a></b>", ""]
xadt_values = st.builds(
    lambda text, codec: XadtValue.from_xml(text, codec),
    st.sampled_from(_FRAGMENTS),
    st.sampled_from([PLAIN, DICT, INDEXED]),
)
rows = st.tuples(
    st.one_of(st.none(), st.integers(-3, 3)),
    st.one_of(st.none(), st.integers(0, 2)),
    st.one_of(st.none(), st.sampled_from(["", "ab", "abc", "b%"])),
    st.one_of(st.none(), xadt_values),
)


@st.composite
def batches(draw):
    size = draw(st.sampled_from(BATCH_SIZES))
    if not size:
        return []
    distinct = draw(st.lists(rows, min_size=1, max_size=6))
    return (distinct * (size // len(distinct) + 1))[:size]


def _weight(value: object) -> int:
    if value is None:
        return 0
    if isinstance(value, XadtValue):
        return len(value.to_xml())
    if isinstance(value, str):
        return len(value)
    return int(value)


class Recorder:
    """A registry whose functions log ``(name, arguments)`` and compute
    total, deterministic results of a known kind from their arguments."""

    KINDS = {
        "num": FunctionKind.NOT_FENCED,
        "num_builtin": FunctionKind.BUILTIN,
        "num_fenced": FunctionKind.FENCED,
        "txt": FunctionKind.NOT_FENCED,
        "frag": FunctionKind.NOT_FENCED,
    }

    def __init__(self) -> None:
        self.registry = FunctionRegistry()
        self.log: list[tuple] = []
        for name, kind in self.KINDS.items():
            self.registry.register_scalar(name, self._body(name), kind)

    def _body(self, name: str):
        def body(*args):
            self.log.append((name, args))
            total = sum(map(_weight, args))
            if total % 5 == 4:
                return None
            if name == "txt":
                return "ab"[: total % 3]
            if name == "frag":
                return XadtValue.from_xml(_FRAGMENTS[total % len(_FRAGMENTS)])
            return total % 4

        return body

    def drain(self) -> tuple[Counter, dict]:
        """The calls logged and counted since the last drain."""
        calls = Counter(self.log)
        counted = dict(self.registry.stats.scalar_calls)
        self.log.clear()
        self.registry.stats.reset()
        return calls, counted


# -- random expression trees, typed so that evaluation is total ---------------

_arguments = st.one_of(
    st.sampled_from(list(_COLUMNS.values())),
    st.builds(Literal, st.sampled_from([None, 0, 2, "ab", "%"])),
    st.builds(Parameter, st.integers(0, 1)),
)


def _calls(names, inner):
    return st.builds(
        FuncCall,
        st.sampled_from(names),
        st.lists(st.one_of(_arguments, inner), max_size=3).map(tuple),
    )


def _typed(depth: int):
    """Strategies for (number, text, fragment, boolean) expressions."""
    if depth == 0:
        number = st.one_of(
            st.just(_COLUMNS["int"]), st.just(_COLUMNS["int2"]),
            st.builds(Literal, st.integers(0, 2)),
        )
        text = st.one_of(st.just(_COLUMNS["str"]), st.just(Literal("ab")))
        fragment = st.just(_COLUMNS["frag"])
        boolean = st.builds(IsNull, st.just(_COLUMNS["int"]), st.booleans())
        return number, text, fragment, boolean
    number, text, fragment, boolean = _typed(depth - 1)
    anything = st.one_of(number, text, fragment)
    number = st.one_of(
        number,
        _calls(["num", "num_builtin", "num_fenced"], anything),
        st.builds(Arithmetic, st.sampled_from("+-*"), number, number),
    )
    text = st.one_of(text, _calls(["txt"], anything))
    fragment = st.one_of(fragment, _calls(["frag"], anything))
    boolean = st.one_of(
        boolean,
        st.builds(Comparison, st.sampled_from(["=", "<>", "<", ">="]), number, number),
        st.builds(Like, text, st.sampled_from(["a%", "%b", "%"]), st.booleans()),
        st.builds(
            IsNull,
            st.one_of(number, text, fragment).filter(
                lambda operand: not isinstance(operand, Literal)
            ),
            st.booleans(),
        ),
        st.builds(Not, boolean),
        st.builds(And, st.lists(boolean, min_size=2, max_size=3).map(tuple)),
        st.builds(Or, st.lists(boolean, min_size=2, max_size=3).map(tuple)),
    )
    return number, text, fragment, boolean


_NUMBER, _TEXT, _FRAGMENT, _BOOLEAN = _typed(3)
expressions = st.one_of(_NUMBER, _TEXT, _FRAGMENT, _BOOLEAN)


def _params() -> ParamBox:
    box = ParamBox(2)
    box.bind((2, "ab"))
    return box


def _reference(expr, registry, rows) -> list:
    """``expr`` over ``rows`` one row and one call at a time."""
    evaluate = compile_expr(expr, BINDING, registry, _params())
    return [evaluate(row) for row in rows]


class TestCompanionsAgainstRowOrder:
    """``compile_column`` (``batch_eval``), ``compile_filter``
    (``batch_filter``) and ``compile_projection`` against row order."""

    @given(expr=expressions, batch=batches())
    @settings(max_examples=300, deadline=None)
    def test_batch_eval(self, expr, batch):
        recorder = Recorder()
        fn = compile_column(expr, BINDING, recorder.registry, _params())
        expected = _reference(expr, recorder.registry, batch)
        reference = recorder.drain()
        assert fn(batch) == expected
        assert recorder.drain() == reference

    @given(expr=_BOOLEAN, batch=batches())
    @settings(max_examples=300, deadline=None)
    def test_batch_filter(self, expr, batch):
        recorder = Recorder()
        fn = compile_filter(expr, BINDING, recorder.registry, _params())
        kept = _reference(expr, recorder.registry, batch)
        reference = recorder.drain()
        assert fn(batch) == [row for row, keep in zip(batch, kept) if keep]
        assert recorder.drain() == reference

    @given(
        exprs=st.lists(expressions, min_size=1, max_size=3), batch=batches()
    )
    @settings(max_examples=150, deadline=None)
    def test_projection(self, exprs, batch):
        recorder = Recorder()
        fn = compile_projection(exprs, BINDING, recorder.registry, _params())
        evaluators = [
            compile_expr(expr, BINDING, recorder.registry, _params())
            for expr in exprs
        ]
        expected = [
            tuple(evaluate(row) for evaluate in evaluators) for row in batch
        ]
        reference = recorder.drain()
        assert fn(batch) == expected
        assert recorder.drain() == reference

    @given(expr=_BOOLEAN, batch=batches())
    @settings(max_examples=100, deadline=None)
    def test_a_companion_handed_a_generator(self, expr, batch):
        registry = Recorder().registry
        expected = _reference(expr, registry, batch)
        kept = [row for row, keep in zip(batch, expected) if keep]
        column = compile_column(expr, BINDING, registry, _params())
        assert column(row for row in batch) == expected
        keep = compile_filter(expr, BINDING, registry, _params())
        assert keep(row for row in batch) == kept

    def test_results_are_the_bodies_own_objects(self):
        # a result crosses back by identity
        made = []
        registry = FunctionRegistry()
        registry.register_scalar(
            "make", lambda v: made.append(XadtValue.from_xml("<a>x</a>")) or made[-1]
        )
        fn = compile_column(FuncCall("make", (SlotRef(0),)), Binding([]), registry)
        out = fn([(1,), (2,)])
        assert all(got is body for got, body in zip(out, made))


# -- the generated source ----------------------------------------------------------


def _compile(text: str, registry=None, params=None, compiler=compile_column):
    return compiler(
        parse_expression(text), BINDING, registry or Recorder().registry, params
    )


class TestColumnForm:
    """The generated source, on ``fn.source``."""

    def test_unconditional_calls_are_hoisted_and_nested_ones_feed_columns(self):
        source = _compile("num(txt(s), 'k') + 1").source
        assert source.count("_invoke_scalar_batch(") == 2
        assert "_invoke_scalar(" not in source
        # the inner call's column is the outer call's argument, as it is
        assert "[_c0, " in source and "(True, False)" in source

    def test_calls_under_non_first_operands_are_batched(self):
        source = _compile("num(a) = 1 AND (b = 1 OR num(b) = 2)").source
        assert source.count("_invoke_scalar_batch(") == 2
        assert "_invoke_scalar(" not in source
        # the second call is made on the rows its reach mask selects
        assert "_r1 = [bool(" in source and "_scatter(_r1, " in source

    def test_a_call_under_not_of_an_or_in_a_projection(self):
        expr = parse_expression("NOT (a = 1 OR num(b) = 2)")
        batch = [(1, 2, "s", None), (2, 2, "s", None), (None, 0, None, None),
                 (3, None, "ab", None), (1, 1, "", None)]
        recorder = Recorder()
        fn = compile_projection([expr, Literal(7)], BINDING, recorder.registry)
        expected = [(value, 7) for value in _reference(expr, recorder.registry, batch)]
        reference = recorder.drain()
        assert fn(batch) == expected
        calls = recorder.drain()
        assert calls == reference
        # only the rows where ``a = 1`` is not true reach the call
        assert calls[1] == {"num": 3}

    def test_filter_cascades_over_the_conjuncts(self):
        source = _compile(
            "a = 1 AND b = 0 AND num(x) = 1 AND txt(s) LIKE 'a%'",
            compiler=compile_filter,
        ).source
        lines = [line.strip() for line in source.splitlines()[1:]]
        # call-free neighbours share one comprehension, ahead of the calls
        assert lines[0].startswith("_batch = [row for row in _batch if ")
        assert lines[0].count("row[") >= 2 and "_invoke" not in lines[0]
        assert [line[:4] for line in lines[1:]] == [
            "_n =", "_c0 ", "_bat", "_n =", "_c1 ", "_bat", "retu",
        ]

    def test_an_expression_that_is_a_call_returns_its_column(self):
        source = _compile("num(a, 1)").source
        assert source.rstrip().endswith("return _c0")

    def test_a_call_free_expression_is_one_comprehension(self):
        source = _compile("a = 1 AND s LIKE 'a%'").source
        assert source.splitlines()[1].strip().startswith("return [")
        assert "_invoke" not in source and len(source.splitlines()) == 2

    def test_zero_argument_and_all_constant_calls(self):
        registry = FunctionRegistry()
        seen = []
        registry.register_scalar("nothing", lambda: seen.append(()) or 7)
        registry.register_scalar("fixed", lambda a, b: seen.append((a, b)) or a)
        box = ParamBox(1)
        box.bind(("p",))
        closure = compile_column(
            Arithmetic(
                "+", FuncCall("nothing", ()),
                FuncCall("length", (FuncCall("fixed", (Literal("k"), Parameter(0))),)),
            ),
            BINDING, registry, box,
        )
        assert closure([(0,)] * 3) == [8, 8, 8]
        assert sorted(seen) == [()] * 3 + [("k", "p")] * 3
        assert registry.stats.scalar_calls == {"nothing": 3, "fixed": 3, "length": 3}

    def test_an_empty_batch_counts_nothing(self):
        recorder = Recorder()
        keep = _compile("num(a) = 1", recorder.registry, compiler=compile_filter)
        assert keep([]) == [] and _compile("num(a) = 1", recorder.registry)([]) == []
        # not even a zero entry: ``stats`` equality is asserted elsewhere
        assert recorder.registry.stats.scalar_calls == {}


# -- failures, deadlines, replaced boundaries -----------------------------------


def _failing(registry, fail_at: int, error=ValueError("boom")):
    """Register ``flaky``: raises on its ``fail_at``-th call (1-based)."""
    state = {"calls": 0}

    def flaky(value):
        state["calls"] += 1
        if state["calls"] == fail_at:
            raise error
        return value

    registry.register_scalar("flaky", flaky, min_args=1, max_args=1)
    return state


class TestFailures:
    @pytest.mark.parametrize("fail_at", [1, 4, 10])
    @pytest.mark.parametrize("form", ["batch_eval", "batch_filter"])
    def test_kth_call_failing_names_the_function_on_both_routes(self, fail_at, form):
        batch = [(i, i, "s", None) for i in range(10)]
        expr = parse_expression("flaky(a) >= 0")
        compiler = {"batch_eval": compile_column, "batch_filter": compile_filter}
        observed = []
        counter = METRICS.counter("udf.calls.not_fenced")
        for route in ("reference", compiler[form]):
            registry = FunctionRegistry()
            state = _failing(registry, fail_at)
            before = counter.value
            with pytest.raises(UdfError, match="'flaky' failed: ValueError: boom"):
                if route == "reference":
                    _reference(expr, registry, batch)
                else:
                    route(expr, BINDING, registry)(batch)
            observed.append((
                state["calls"], dict(registry.stats.scalar_calls),
                counter.value - before,
            ))
        assert observed[0] == observed[1] == (fail_at, {"flaky": fail_at}, fail_at)

    def test_library_errors_pass_through_unwrapped(self):
        registry = FunctionRegistry()
        _failing(registry, 2, error=StatementTimeout("inner"))
        closure = _compile("flaky(a)", registry)
        with pytest.raises(StatementTimeout, match="inner"):
            closure([(1,), (2,), (3,)])
        assert registry.stats.scalar_calls == {"flaky": 2}

    def test_histogram_holds_the_calls_that_completed(self):
        registry = FunctionRegistry()
        _failing(registry, 3)
        histogram = METRICS.histogram("udf.seconds.not_fenced")
        before = histogram.count
        with pytest.raises(UdfError):
            _compile("flaky(a)", registry)([(i,) for i in range(5)])
        assert histogram.count - before == 2

    def test_first_call_site_surfaces_before_the_first_row(self):
        # column-major: with two call sites that can both fail, the batch
        # route raises the first *site's* error, row order the first row's;
        # both are UdfError
        registry = FunctionRegistry()

        def picky(value, bad):
            if value == bad:
                raise ValueError(f"bad {bad}")
            return value

        registry.register_scalar("picky", picky)
        expr = parse_expression("picky(a, 2) + picky(a, 1)")
        batch = [(1,), (2,)]
        with pytest.raises(UdfError, match="bad 1"):
            _reference(expr, registry, batch)
        with pytest.raises(UdfError, match="bad 2"):
            compile_column(expr, BINDING, registry)(batch)


@contextmanager
def governed(**limits):
    """Run the body as a statement under ``GovernorLimits(**limits)``."""
    token = activate(None, None, StatementBudget(GovernorLimits(**limits)))
    try:
        yield
    finally:
        deactivate(token)


class TestDeadlinesAndReplacedBoundaries:
    def test_a_deadline_is_checked_before_every_call(self):
        registry = FunctionRegistry()
        registry.register_scalar("nap", lambda v: time.sleep(0.004) or v)
        closure = _compile("nap(a)", registry)
        with governed(statement_timeout_seconds=0.03):
            with pytest.raises(StatementTimeout):
                closure([(i,) for i in range(200)])
        assert 1 <= registry.stats.scalar_calls["nap"] < 200

    def test_a_column_body_aborts_mid_column_on_a_deadline(self):
        db = Database("napping")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.bulk_insert("t", [(i,) for i in range(200)])
        completed = []

        def nap_column(results, column):
            try:
                for value in column:
                    time.sleep(0.004)
                    completed.append(value)
                    results.append(value)
            finally:  # charges what it read, as the XADT bodies do
                work_counters().work["xadt_bytes_scanned"] += len(completed)

        db.registry.register_scalar(
            "nap", lambda v: pytest.fail("the per-call body ran"),
            min_args=1, max_args=1, column=nap_column,
        )
        assert DEFAULT_BATCH_SIZE >= 200  # one crossing for the whole column
        db.governor.configure(statement_timeout_seconds=0.05)
        db.io.reset()
        with pytest.raises(StatementTimeout):
            db.execute("SELECT nap(id) FROM t")
        started = db.registry.stats.scalar_calls["nap"]
        assert 1 <= len(completed) < 200
        assert started == len(completed) + 1
        assert db.io.work["xadt_bytes_scanned"] == len(completed)
        assert db.io.work["udf_calls_not_fenced"] == started

    def test_a_budget_without_a_deadline_takes_the_batch_route(self, monkeypatch):
        registry = FunctionRegistry()
        registry.register_scalar("same", lambda v: v)
        monkeypatch.setattr(
            registry, "invoke_scalar", lambda *a: pytest.fail("per-call route")
        )
        closure = _compile("same(a)", registry)
        with governed(max_result_rows=10):
            assert closure([(1,), (2,)]) == [1, 2]

    def test_a_replaced_invoke_is_crossed_per_call_by_both_routes(self):
        registry = FunctionRegistry()
        registry.register_scalar("same", lambda v: v)
        function = registry.scalar("same")
        crossings = []
        original = function.invoke
        function.invoke = lambda args: crossings.append(tuple(args)) or original(args)
        expr = parse_expression("same(a) + 1")
        closure = compile_column(expr, BINDING, registry)
        batch = [(1,), (2,), (3,)]
        assert _reference(expr, registry, batch) == closure(batch) == [2, 3, 4]
        assert crossings == [(1,), (2,), (3,)] * 2
        del function.invoke  # back to the class's: one crossing per batch
        assert closure(batch) == [2, 3, 4]
        assert len(crossings) == 6
        assert registry.stats.scalar_calls == {"same": 9}

    def test_a_subclass_invoke_is_crossed_per_call(self):
        class Loud(ScalarFunction):
            crossed = 0

            def invoke(self, args):
                Loud.crossed += 1
                return super().invoke(args)

        registry = FunctionRegistry()
        registry._scalars["loud"] = Loud("loud", lambda v: v)
        assert _compile("loud(a)", registry)([(1,), (2,)]) == [1, 2]
        assert Loud.crossed == 2

    def test_a_replaced_fn_is_what_both_routes_run(self):
        registry = FunctionRegistry()
        registry.register_scalar("same", lambda v: v)
        expr = parse_expression("same(a)")
        closure = compile_column(expr, BINDING, registry)
        batch = [(1,), (2,)]
        assert closure(batch) == [1, 2]
        registry.scalar("same").fn = lambda v: -v
        assert _reference(expr, registry, batch) == closure(batch) == [-1, -2]

    def test_metrics_off_still_counts_calls(self, monkeypatch):
        recorder = Recorder()
        closure = _compile("num(a)", recorder.registry)
        counter = METRICS.counter("udf.calls.not_fenced")
        before = counter.value
        monkeypatch.setattr(METRICS, "enabled", False)
        closure([(1,), (2,)])
        assert recorder.registry.stats.scalar_calls == {"num": 2}
        assert counter.value == before


# -- operators -------------------------------------------------------------------


class TestOperatorsCrossAColumnAtATime:
    """The operators that used to run an expression row by row — an
    index scan's residual and ``?`` key, an index join's residual, a
    sort key, a lateral's constant argument — take the batch route: no
    ``invoke_scalar`` crossing, with or without a deadline, and the
    calls and rows of the per-call reference."""

    @pytest.fixture()
    def db(self):
        return sites_database()

    def _run(self, db, monkeypatch, sql, params):
        crossings = []
        per_call = db.registry.invoke_scalar
        monkeypatch.setattr(
            db.registry, "invoke_scalar",
            lambda *args: crossings.append(args) or per_call(*args),
        )
        db.registry.stats.reset()
        rows = db.execute(sql, params).rows
        stats = self._stats(db)
        monkeypatch.undo()
        db.registry.stats.reset()  # the reference counts from zero
        return rows, stats, crossings

    @staticmethod
    def _stats(db):
        return (
            dict(db.registry.stats.scalar_calls),
            dict(db.registry.stats.table_calls),
        )

    def _reference(self, db, binding, text="twice(b)"):
        return compile_expr(parse_expression(text), binding, db.registry)

    T = Binding([Slot("t", name, INTEGER) for name in ("a", "c", "b", "pad")])

    def _t_rows(self, db, c):
        return [row for row in db.heap("t").rows if row[1] == c]

    def test_index_scan_residual_and_key(self, db, monkeypatch):
        sql = "SELECT a FROM t WHERE c = ? AND twice(b) > 10"
        assert "IndexScan t as t using t_c (key = ?) residual[" in db.explain(sql)
        rows, stats, crossings = self._run(db, monkeypatch, sql, (7,))
        keep = self._reference(db, self.T, "twice(b) > 10")
        expected = [(row[0],) for row in self._t_rows(db, 7) if keep(row)]
        assert crossings == []
        assert rows == expected and stats == self._stats(db)
        assert stats == ({"twice": 5}, {})

    def test_index_join_residual(self, db, monkeypatch):
        sql = (
            "SELECT u.name, t.b FROM u, t "
            "WHERE t.c = u.id AND u.id = 7 AND twice(t.b) <> 4"
        )
        assert "(outer key u.id) residual[twice(t.b) <> 4]" in db.explain(sql)
        rows, stats, crossings = self._run(db, monkeypatch, sql, ())
        keep = self._reference(db, self.T, "twice(b) <> 4")
        expected = [("n2", row[2]) for row in self._t_rows(db, 7) if keep(row)]
        assert crossings == []
        assert rows == expected and stats == self._stats(db)

    def test_order_by_key(self, db, monkeypatch):
        sql = "SELECT a, b FROM t WHERE c = 3 ORDER BY twice(b) DESC, a"
        rows, stats, crossings = self._run(db, monkeypatch, sql, ())
        key = self._reference(db, self.T)
        decorated = [(key(row), row[0], row[2]) for row in self._t_rows(db, 3)]
        expected = [(a, b) for _, a, b in sorted(decorated, key=lambda d: (-d[0], d[1]))]
        assert crossings == []
        assert rows == expected and stats == self._stats(db)

    def test_lateral_with_a_parameter_argument(self, db, monkeypatch):
        sql = "SELECT u.id, s.n FROM u, TABLE(spread(twice(u.id), ?)) s"
        rows, stats, crossings = self._run(db, monkeypatch, sql, (3,))
        twice = self._reference(db, Binding([Slot("u", "id", INTEGER)]), "twice(id)")
        spread = db.registry.table_function("spread")
        expected = [
            (row[0],) + produced
            for row in db.heap("u").rows
            for produced in db.registry.invoke_table(spread, [twice(row[:1]), 3])
        ]
        assert crossings == []
        assert rows == expected and stats == self._stats(db)
        assert stats == ({"twice": 50}, {"spread": 50})

    def test_a_deadline_crosses_per_column(self, db, monkeypatch):
        db.governor.configure(statement_timeout_seconds=60.0)
        sql = "SELECT a FROM t WHERE c = ? AND twice(b) > 10"
        _, stats, crossings = self._run(db, monkeypatch, sql, (7,))
        assert crossings == [] and stats == ({"twice": 5}, {})


# -- the histogram -----------------------------------------------------------------


class TestObserveMany:
    @given(
        observations=st.lists(
            st.tuples(
                st.floats(0, 0.2, allow_nan=False), st.integers(1, 50)
            ),
            max_size=8,
        )
    )
    def test_equals_n_single_observations(self, observations):
        registry = MetricsRegistry()
        many = registry.histogram("many", (0.001, 0.01, 0.1))
        single = registry.histogram("single", (0.001, 0.01, 0.1))
        for value, n in observations:
            many.observe_many(value, n)
            for _ in range(n):
                single.observe(value)
        assert many.counts == single.counts and many.count == single.count
        assert many.sum == pytest.approx(single.sum, rel=1e-9)
        assert many.quantile(0.5) == single.quantile(0.5)

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry()
        registry.enabled = False
        histogram = registry.histogram("h")
        histogram.observe_many(0.5, 3)
        assert histogram.count == 0 and histogram.sum == 0.0

    def test_a_batch_lands_in_its_mean_bucket(self):
        recorder = Recorder()
        histogram = METRICS.histogram("udf.seconds.not_fenced")
        before, total = histogram.count, histogram.sum
        _compile("num(a)", recorder.registry)([(i,) for i in range(40)])
        assert histogram.count - before == 40
        assert histogram.sum > total
