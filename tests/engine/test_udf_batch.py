"""The batch UDF boundary must be the per-call boundary, a column at a time.

``fn(row)`` (one ``FunctionRegistry.invoke_scalar`` per call) is the
reference; the batch companions of :mod:`repro.engine.expr_compile`
hoist unconditional calls into ``invoke_scalar_batch`` columns and run a
top-level AND as a cascade.  Everything here pins the two routes to each
other: same values in the same order, the same multiset of calls with
the same arguments, the same errors, the same counters.
"""

import time
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import expr_compile
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
from repro.engine.expr_compile import compile_projection, compile_row_expr
from repro.engine.governor import GovernorLimits, StatementBudget
from repro.engine.io import IoCounters
from repro.engine.plan.optimizer import plan_select
from repro.engine.plan.physical import HashJoin
from repro.engine.snapshot import activate, deactivate
from repro.engine.sql.parser import parse_expression, parse_sql
from repro.engine.types import INTEGER, VARCHAR, XADT
from repro.engine.udf import FunctionKind, FunctionRegistry, ScalarFunction
from repro.errors import StatementTimeout, UdfError
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.workloads import SIGMOD_QUERIES
from repro.xadt import DICT, INDEXED, PLAIN, XadtValue
from tests.engine.test_batch_kernels import _Rows, reference_hash_join

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


class TestCompanionsAgainstRowOrder:
    @given(expr=expressions, batch=batches())
    @settings(max_examples=300, deadline=None)
    def test_batch_eval(self, expr, batch):
        recorder = Recorder()
        fn = compile_row_expr(expr, BINDING, recorder.registry, _params())
        expected = [fn(row) for row in batch]
        reference = recorder.drain()
        assert fn.batch_eval(batch) == expected
        assert recorder.drain() == reference

    @given(expr=_BOOLEAN, batch=batches())
    @settings(max_examples=300, deadline=None)
    def test_batch_filter(self, expr, batch):
        recorder = Recorder()
        fn = compile_row_expr(expr, BINDING, recorder.registry, _params())
        expected = [row for row in batch if fn(row)]
        reference = recorder.drain()
        assert fn.batch_filter(batch) == expected
        assert recorder.drain() == reference

    @given(
        exprs=st.lists(expressions, min_size=1, max_size=3), batch=batches()
    )
    @settings(max_examples=150, deadline=None)
    def test_projection(self, exprs, batch):
        recorder = Recorder()
        fn = compile_projection(exprs, BINDING, recorder.registry, _params())
        expected = [fn(row) for row in batch]
        reference = recorder.drain()
        assert fn.batch_eval(batch) == expected
        assert recorder.drain() == reference

    @given(expr=_BOOLEAN, batch=batches())
    @settings(max_examples=100, deadline=None)
    def test_a_companion_handed_a_generator(self, expr, batch):
        recorder = Recorder()
        fn = compile_row_expr(expr, BINDING, recorder.registry, _params())
        assert fn.batch_filter(row for row in batch) == [
            row for row in batch if fn(row)
        ]
        assert fn.batch_eval(row for row in batch) == [fn(row) for row in batch]

    def test_results_are_the_bodies_own_objects(self):
        # a result crosses back by identity
        made = []
        registry = FunctionRegistry()
        registry.register_scalar(
            "make", lambda v: made.append(XadtValue.from_xml("<a>x</a>")) or made[-1]
        )
        fn = compile_row_expr(FuncCall("make", (SlotRef(0),)), Binding([]), registry)
        out = fn.batch_eval([(1,), (2,)])
        assert all(got is body for got, body in zip(out, made))


# -- the generated column form -------------------------------------------------


def _compile(text: str, registry=None, params=None):
    return compile_row_expr(
        parse_expression(text), BINDING, registry or Recorder().registry, params
    )


def _column_source(closure, form: str, batch=()) -> str:
    """The source of ``closure``'s column-form companion (built on its
    first call)."""
    sources = []
    real = expr_compile._compile_companion

    def spy(lines, env):
        companion = real(lines, env)
        sources.append(companion.source)
        return companion

    expr_compile._compile_companion = spy
    try:
        getattr(closure, form)(list(batch))
    finally:
        expr_compile._compile_companion = real
    (source,) = sources
    return source


class TestColumnForm:
    def test_unconditional_calls_are_hoisted_and_nested_ones_feed_columns(self):
        source = _column_source(_compile("num(txt(s), 'k') + 1"), "batch_eval")
        assert source.count("_invoke_scalar_batch(") == 2
        assert "_invoke_scalar(" not in source
        # the inner call's column is the outer call's argument, as it is
        assert "[_c0, " in source and "(True, False)" in source

    def test_calls_under_non_first_operands_stay_inline(self):
        source = _column_source(
            _compile("num(a) = 1 AND (b = 1 OR num(b) = 2)"), "batch_eval"
        )
        assert source.count("_invoke_scalar_batch(") == 1
        assert source.count("_invoke_scalar(") == 1

    def test_filter_cascades_over_the_conjuncts(self):
        source = _column_source(
            _compile("a = 1 AND b = 0 AND num(x) = 1 AND txt(s) LIKE 'a%'"),
            "batch_filter",
        )
        lines = [line.strip() for line in source.splitlines()[1:]]
        # call-free neighbours share one comprehension, ahead of the calls
        assert lines[0].startswith("_batch = [row for row in _batch if ")
        assert lines[0].count("row[") >= 2 and "_invoke" not in lines[0]
        assert [line[:4] for line in lines[1:]] == [
            "_n =", "_c0 ", "_bat", "_n =", "_c1 ", "_bat", "retu",
        ]

    def test_an_expression_that_is_a_call_returns_its_column(self):
        source = _column_source(_compile("num(a, 1)"), "batch_eval")
        assert source.rstrip().endswith("return _c0")

    def test_nothing_to_hoist_compiles_the_plain_comprehension(self, monkeypatch):
        compiled = []
        real = expr_compile._compile_fragment
        monkeypatch.setattr(
            expr_compile, "_compile_fragment",
            lambda source, env: compiled.append(source) or real(source, env),
        )
        monkeypatch.setattr(
            expr_compile, "_compile_companion",
            lambda lines, env: pytest.fail("no call can be hoisted here"),
        )
        closure = _compile("a = 1 OR num(b) = 1")
        assert closure.batch_eval([(2, 2, None, None)]) == [False]
        assert closure.batch_filter([(2, 2, None, None)]) == []
        assert compiled[1:] == [
            f"lambda _batch: [{closure.source} for row in _batch]",
            f"lambda _batch: [row for row in _batch if {closure.source}]",
        ]

    def test_column_source_is_generated_on_first_use_only(self, monkeypatch):
        lowered = []
        real = expr_compile._Lowering.column_form
        monkeypatch.setattr(
            expr_compile._Lowering, "column_form",
            lambda self: lowered.append(1) or real(self),
        )
        closure = _compile("num(a) = 1")
        assert closure((1, None, None, None)) in (True, False)
        assert not lowered  # planning and the row route pay nothing
        closure.batch_filter([])
        closure.batch_filter([])
        assert lowered == [1]

    def test_call_free_closures_never_lower_twice(self, monkeypatch):
        monkeypatch.setattr(
            expr_compile._Lowering, "column_form",
            lambda self: pytest.fail("no call: the lowered fragment is reused"),
        )
        closure = _compile("a = 1 AND s LIKE 'a%'")
        assert closure.batch_filter([(1, 0, "ab", None)]) == [(1, 0, "ab", None)]
        assert closure.batch_eval([(1, 0, "b", None)]) == [False]

    def test_zero_argument_and_all_constant_calls(self):
        registry = FunctionRegistry()
        seen = []
        registry.register_scalar("nothing", lambda: seen.append(()) or 7)
        registry.register_scalar("fixed", lambda a, b: seen.append((a, b)) or a)
        box = ParamBox(1)
        box.bind(("p",))
        closure = compile_row_expr(
            Arithmetic(
                "+", FuncCall("nothing", ()),
                FuncCall("length", (FuncCall("fixed", (Literal("k"), Parameter(0))),)),
            ),
            BINDING, registry, box,
        )
        assert closure.batch_eval([(0,)] * 3) == [8, 8, 8]
        assert sorted(seen) == [()] * 3 + [("k", "p")] * 3
        assert registry.stats.scalar_calls == {"nothing": 3, "fixed": 3, "length": 3}

    def test_an_empty_batch_counts_nothing(self):
        recorder = Recorder()
        closure = _compile("num(a) = 1", recorder.registry)
        assert closure.batch_filter([]) == [] and closure.batch_eval([]) == []
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
        observed = []
        counter = METRICS.counter("udf.calls.not_fenced")
        for route in ("rows", form):
            registry = FunctionRegistry()
            state = _failing(registry, fail_at)
            closure = _compile("flaky(a) >= 0", registry)
            before = counter.value
            with pytest.raises(UdfError, match="'flaky' failed: ValueError: boom"):
                if route == "rows":
                    [closure(row) for row in batch]
                else:
                    getattr(closure, form)(batch)
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
            closure.batch_eval([(1,), (2,), (3,)])
        assert registry.stats.scalar_calls == {"flaky": 2}

    def test_histogram_holds_the_calls_that_completed(self):
        registry = FunctionRegistry()
        _failing(registry, 3)
        histogram = METRICS.histogram("udf.seconds.not_fenced")
        before = histogram.count
        with pytest.raises(UdfError):
            _compile("flaky(a)", registry).batch_eval([(i,) for i in range(5)])
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
        closure = _compile("picky(a, 2) + picky(a, 1)", registry)
        batch = [(1,), (2,)]
        with pytest.raises(UdfError, match="bad 1"):
            [closure(row) for row in batch]
        with pytest.raises(UdfError, match="bad 2"):
            closure.batch_eval(batch)


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
                closure.batch_eval([(i,) for i in range(200)])
        assert 1 <= registry.stats.scalar_calls["nap"] < 200

    def test_a_budget_without_a_deadline_takes_the_batch_route(self, monkeypatch):
        registry = FunctionRegistry()
        registry.register_scalar("same", lambda v: v)
        monkeypatch.setattr(
            registry, "invoke_scalar", lambda *a: pytest.fail("per-call route")
        )
        closure = _compile("same(a)", registry)
        with governed(max_result_rows=10):
            assert closure.batch_eval([(1,), (2,)]) == [1, 2]

    def test_a_replaced_invoke_is_crossed_per_call_by_both_routes(self):
        registry = FunctionRegistry()
        registry.register_scalar("same", lambda v: v)
        function = registry.scalar("same")
        crossings = []
        original = function.invoke
        function.invoke = lambda args: crossings.append(tuple(args)) or original(args)
        closure = _compile("same(a) + 1", registry)
        batch = [(1,), (2,), (3,)]
        assert [closure(row) for row in batch] == closure.batch_eval(batch) == [2, 3, 4]
        assert crossings == [(1,), (2,), (3,)] * 2
        del function.invoke  # back to the class's: one crossing per batch
        assert closure.batch_eval(batch) == [2, 3, 4]
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
        assert _compile("loud(a)", registry).batch_eval([(1,), (2,)]) == [1, 2]
        assert Loud.crossed == 2

    def test_a_replaced_fn_is_what_both_routes_run(self):
        registry = FunctionRegistry()
        registry.register_scalar("same", lambda v: v)
        closure = _compile("same(a)", registry)
        batch = [(1,), (2,)]
        assert closure.batch_eval(batch) == [1, 2]  # companion built and bound
        registry.scalar("same").fn = lambda v: -v
        assert [closure(row) for row in batch] == closure.batch_eval(batch) == [-1, -2]

    def test_metrics_off_still_counts_calls(self, monkeypatch):
        recorder = Recorder()
        closure = _compile("num(a)", recorder.registry)
        counter = METRICS.counter("udf.calls.not_fenced")
        before = counter.value
        monkeypatch.setattr(METRICS, "enabled", False)
        closure.batch_eval([(1,), (2,)])
        assert recorder.registry.stats.scalar_calls == {"num": 2}
        assert counter.value == before


# -- operators -------------------------------------------------------------------


class TestHashJoinResidualWithACall:
    @given(
        left=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9)), max_size=12),
        right=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9)), max_size=12),
        batch_size=st.sampled_from([1, 2, 7, 1024]),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_order_and_calls(self, left, right, batch_size):
        recorder = Recorder()
        residual = compile_row_expr(
            And((
                Comparison("<=", SlotRef(1), SlotRef(3)),
                Comparison(">=", FuncCall("num", (SlotRef(1), SlotRef(3))), Literal(1)),
            )),
            Binding([]),
            recorder.registry,
        )
        expected = reference_hash_join(left, right, [0], [0], residual)
        reference = recorder.drain()
        join = HashJoin(
            _Rows(left, 2, batch_size), _Rows(right, 2, batch_size), [0], [0],
            residual=residual, io=IoCounters(work_mem_bytes=64),
        )
        assert list(join.rows()) == expected
        assert recorder.drain() == reference


class TestHybridPlansCompileTheParentsCompanions:
    def test_no_column_form_and_the_plain_templates(self, sigmod_pair, monkeypatch):
        """A Hybrid QG plan holds no scalar call: each companion is the
        one comprehension the parent compiled, around the closure's own
        row fragment, and no second lowering ever happens."""
        db = sigmod_pair[0].db
        compiled = []
        real = expr_compile._compile_fragment
        monkeypatch.setattr(
            expr_compile, "_compile_fragment",
            lambda source, env: compiled.append(source) or real(source, env),
        )
        monkeypatch.setattr(
            expr_compile._Lowering, "column_form",
            lambda self: pytest.fail("a Hybrid plan has no call to hoist"),
        )
        fragments = set()
        for query in SIGMOD_QUERIES:
            box = ParamBox(0)
            plan = plan_select(parse_sql(query.sql_for("hybrid")), db, box)
            box.bind(())
            fragments |= {
                source[len("lambda row: "):]
                for source in compiled if source.startswith("lambda row: ")
            }
            assert sum(len(batch) for batch in plan.batches())
        companions = [s for s in compiled if not s.startswith("lambda row: ")]
        assert companions
        for source in companions:
            assert "_invoke_scalar" not in source
            assert any(
                source in (
                    f"lambda _batch: [row for row in _batch if {fragment}]",
                    f"lambda _batch: [{fragment} for row in _batch]",
                )
                for fragment in fragments
            ), source


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
        _compile("num(a)", recorder.registry).batch_eval([(i,) for i in range(40)])
        assert histogram.count - before == 40
        assert histogram.sum > total
