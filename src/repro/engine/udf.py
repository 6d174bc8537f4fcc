"""Scalar and table function registry, with UDF invocation accounting.

The paper's Section 4.4 (Figure 14) shows that an external UDF costs
roughly 40 % more than an equivalent built-in, and that the XADT methods
— which are UDFs — pay that price on every call.  That price is a
period cost of DB2's 2002 calling convention, so it is *charged*, never
performed: every :class:`FunctionKind` hands arguments and results
across by identity (every storable value is immutable, so aliasing is
safe), and the kind selects only what a call is charged to —

* ``BUILTIN``: ``udf_calls_builtin``, the engine's own function call;
* ``NOT FENCED``: ``udf_calls_not_fenced``, a call across the UDF
  boundary inside the engine's address space, priced so that QT1 models
  40 % over its built-in twin;
* ``FENCED``: ``udf_calls_fenced``, an address-space round trip, the
  "significant performance penalty" the paper cites for FENCED mode

— each a statement work counter priced in ``repro.engine.io.WORK_SECONDS``,
beside the ``udf.calls.*`` / ``udf.seconds.*`` instruments of that kind.

Every invocation is counted, so tests and benchmarks can assert how many
UDF calls a query plan made (the paper attributes the small-data-set
slowdown of XORator to "four to eight calls of UDFs" per query).

The boundary has two forms with one meaning.  ``invoke`` /
``FunctionRegistry.invoke_scalar`` / ``invoke_table`` cross it for one
call.  ``invoke_batch`` / ``invoke_scalar_batch`` /
``invoke_table_batch`` cross it once for the ``n`` calls one call site
makes over a batch of rows: the same calls in the same row order, but
one count, one budget lookup, one clock pair and one histogram update
per batch.  Every call a plan makes takes the batch form, a statement's
deadline checked inside it before each call; only a function object
whose ``invoke`` was replaced is crossed per call.  A function
registered with a *column body* (the XADT methods and ``unnest``) is
handed the batch's whole column in that one crossing, when only its
first argument varies by row; otherwise the batch maps the per-call
body over the calls.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from itertools import repeat, starmap
from typing import Callable, Iterable, Iterator, Sequence

from repro.engine.io import work_counters
from repro.engine.snapshot import active_budget
from repro.engine.types import SqlType, is_xadt_value
from repro.errors import ReproError, UdfError
from repro.obs.metrics import METRICS


class FunctionKind(enum.Enum):
    BUILTIN = "builtin"
    NOT_FENCED = "not fenced"
    FENCED = "fenced"


#: fine sub-millisecond boundaries — single UDF calls are microseconds
_UDF_LATENCY_BUCKETS = (
    0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.1,
)

#: per-fencing-mode invocation counters and latency histograms
_CALL_COUNTERS = {
    kind: METRICS.counter(f"udf.calls.{kind.value.replace(' ', '_')}")
    for kind in FunctionKind
}
_CALL_HISTOGRAMS = {
    kind: METRICS.histogram(
        f"udf.seconds.{kind.value.replace(' ', '_')}", _UDF_LATENCY_BUCKETS
    )
    for kind in FunctionKind
}


def _per_call(
    n: int, args: Sequence[object], columnar: Sequence[bool]
) -> Iterable[tuple]:
    """The argument tuple of each of ``n`` calls: ``args[i]`` is a list
    of ``n`` values where ``columnar[i]``, else one value, repeated."""
    if not args:
        return repeat((), n)
    return zip(*[
        arg if column else repeat(arg, n)
        for arg, column in zip(args, columnar)
    ])


def _ticking(values: Iterable, tick: Callable[[], None]) -> Iterator:
    """``values``, with ``tick()`` — a statement's deadline check — run
    before each one is handed over."""
    for value in values:
        tick()
        yield value


@dataclass
class _Function:
    """What scalar and table functions share: identity, fencing mode,
    accepted argument counts and the per-mode metrics instruments."""

    name: str
    fn: Callable[..., object]
    kind: FunctionKind = FunctionKind.NOT_FENCED
    #: minimum/maximum accepted argument counts (None = unbounded max)
    min_args: int = 0
    max_args: int | None = None
    #: the body in column form: ``column(results, values, *constants)``
    #: appends one call's result per value, in order, as the calls
    #: complete — what ``map(fn, values, repeat(constant), ...)`` would
    #: give; ``values`` may be a one-pass iterator (it is under a
    #: deadline).  Used while ``fn`` is the body it was registered with.
    column: Callable[..., None] | None = None

    def __post_init__(self) -> None:
        if self.min_args < 0 or (
            self.max_args is not None and self.max_args < self.min_args
        ):
            raise UdfError(
                f"function {self.name!r} registered with an impossible "
                f"argument range: min_args={self.min_args}, "
                f"max_args={self.max_args}"
            )
        #: ``udf.calls.*`` / ``udf.seconds.*`` of this function's mode
        self.calls = _CALL_COUNTERS[self.kind]
        self.seconds = _CALL_HISTOGRAMS[self.kind]
        #: the statement work counter its calls are charged to
        self.work_counter = "udf_calls_" + self.kind.value.replace(" ", "_")
        #: the body ``column`` is the column form of
        self._registered = self.fn

    def check_arity(self, count: int) -> None:
        """Raise unless a call with ``count`` arguments is acceptable
        (checked once per call site, when it is compiled)."""
        if count < self.min_args or (
            self.max_args is not None and count > self.max_args
        ):
            raise UdfError(
                f"function {self.name!r} called with {count} arguments"
            )

    def failure(self, exc: Exception) -> UdfError:
        return UdfError(
            f"function {self.name!r} failed: {type(exc).__name__}: {exc}"
        )

    def invoke_batch(
        self,
        n: int,
        args: Sequence[object],
        columnar: Sequence[bool],
        results: list,
        tick: Callable[[], None] | None = None,
    ) -> None:
        """Cross the call boundary once for ``n`` calls: ``invoke`` in
        column form.

        ``args[i]`` is a list of ``n`` values — one per call — where
        ``columnar[i]``, else the one value every call receives.  When
        only the first argument is a column and ``fn`` is still the body
        ``column`` was registered for, ``column`` gets the whole column;
        otherwise ``fn`` is read once and mapped over the calls.  Either
        way ``tick``, when given, runs before each call's value is handed
        over, and results are appended to ``results`` in row order as
        the calls return, so after a failure ``len(results)`` is the
        number of calls that completed.
        """
        try:
            if (
                self.column is not None
                and self.fn is self._registered
                and columnar
                and columnar[0]
                and not any(columnar[1:])
            ):
                values = args[0] if tick is None else _ticking(args[0], tick)
                self.column(results, values, *args[1:])
                return
            calls = _per_call(n, args, columnar)
            if tick is not None:
                calls = _ticking(calls, tick)
            results.extend(starmap(self._per_call_body(), calls))
        except ReproError:
            raise  # library errors carry their own context
        except Exception as exc:
            raise self.failure(exc) from exc

    def _per_call_body(self) -> Callable[..., object]:
        """What one call of the mapped batch runs: ``fn`` itself."""
        return self.fn


@dataclass
class ScalarFunction(_Function):
    """A registered scalar function."""

    #: declared result type, when known (used for output schemas)
    result_type: SqlType | None = None

    def invoke(self, args: Sequence[object]) -> object:
        """Cross the call boundary: run the body on the caller's values
        and hand back the body's own result."""
        try:
            return self.fn(*args)
        except ReproError:
            raise  # library errors carry their own context
        except Exception as exc:
            raise self.failure(exc) from exc


@dataclass
class TableFunction(_Function):
    """A registered table function (invocable in FROM via TABLE(...))."""

    #: output column (name, type) pairs
    output_columns: list[tuple[str, SqlType]] = field(default_factory=list)

    def _per_call_body(self) -> Callable[..., list[tuple]]:
        """``fn`` with each call's rows drained into a list."""
        fn = self.fn
        return lambda *args: list(fn(*args))

    def invoke(self, args: Sequence[object]) -> Iterator[tuple]:
        """Cross the call boundary; rows are produced lazily, and a
        failure while producing them is wrapped like one raised here."""
        try:
            rows = self.fn(*args)
        except ReproError:
            raise
        except Exception as exc:
            raise self.failure(exc) from exc
        return self._guarded(rows)

    def _guarded(self, rows: Iterable[tuple]) -> Iterator[tuple]:
        try:
            yield from rows
        except ReproError:
            raise
        except Exception as exc:
            raise self.failure(exc) from exc


#: the batch routes stand for these methods only; a function object
#: whose ``invoke`` is anything else is crossed per call, through that
_SCALAR_INVOKE = ScalarFunction.invoke
_TABLE_INVOKE = TableFunction.invoke


@dataclass
class InvocationStats:
    """Counts of function invocations, keyed by function name."""

    scalar_calls: dict[str, int] = field(default_factory=dict)
    table_calls: dict[str, int] = field(default_factory=dict)

    def reset(self) -> None:
        self.scalar_calls.clear()
        self.table_calls.clear()

    def total_udf_calls(self) -> int:
        return sum(self.scalar_calls.values()) + sum(self.table_calls.values())


class FunctionRegistry:
    """Name -> function registry shared by one Database instance.

    A call site is resolved once, when its expression or lateral scan is
    compiled (:meth:`bind_scalar` / :meth:`bind_table`: unknown names and
    bad argument counts raise there); its calls over a batch then cross
    through :meth:`invoke_scalar_batch` / :meth:`invoke_table_batch`,
    counted, deadline-checked per call and timed once per batch, and so
    do :meth:`call_scalar` / :meth:`call_table`.  ``fn`` and ``invoke``
    are read from the function object on every crossing, so either can
    be replaced on a live registry: a replaced ``fn`` is what runs (and
    bypasses a column body), and a replaced ``invoke`` is crossed once
    per call, through :meth:`invoke_scalar` / :meth:`invoke_table`.
    """

    def __init__(self) -> None:
        self._scalars: dict[str, ScalarFunction] = {}
        self._tables: dict[str, TableFunction] = {}
        self.stats = InvocationStats()
        self._register_builtins()

    # -- registration --------------------------------------------------------

    def register_scalar(
        self,
        name: str,
        fn: Callable[..., object],
        kind: FunctionKind = FunctionKind.NOT_FENCED,
        min_args: int = 0,
        max_args: int | None = None,
        result_type: SqlType | None = None,
        column: Callable[..., None] | None = None,
    ) -> None:
        key = name.lower()
        if key in self._scalars:
            raise UdfError(f"scalar function {name!r} already registered")
        self._scalars[key] = ScalarFunction(
            name, fn, kind, min_args, max_args, column, result_type
        )

    def register_table(
        self,
        name: str,
        fn: Callable[..., Iterable[tuple]],
        output_columns: list[tuple[str, SqlType]],
        kind: FunctionKind = FunctionKind.NOT_FENCED,
        min_args: int = 0,
        max_args: int | None = None,
        column: Callable[..., None] | None = None,
    ) -> None:
        key = name.lower()
        if key in self._tables:
            raise UdfError(f"table function {name!r} already registered")
        self._tables[key] = TableFunction(
            name, fn, kind, min_args, max_args, column, list(output_columns)
        )

    # -- lookup ----------------------------------------------------------------

    def has_scalar(self, name: str) -> bool:
        return name.lower() in self._scalars

    def scalar(self, name: str) -> ScalarFunction:
        try:
            return self._scalars[name.lower()]
        except KeyError:
            raise UdfError(f"unknown scalar function {name!r}") from None

    def has_table_function(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_function(self, name: str) -> TableFunction:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise UdfError(f"unknown table function {name!r}") from None

    def bind_scalar(self, name: str, arg_count: int) -> ScalarFunction:
        """Resolve one scalar call site (unknown name / bad arity raise)."""
        function = self.scalar(name)
        function.check_arity(arg_count)
        return function

    def bind_table(self, name: str, arg_count: int) -> TableFunction:
        """Resolve one table-function call site."""
        function = self.table_function(name)
        function.check_arity(arg_count)
        return function

    # -- invocation ------------------------------------------------------------

    def invoke_scalar(self, function: ScalarFunction, args: Sequence[object]) -> object:
        calls = self.stats.scalar_calls
        calls[function.name] = calls.get(function.name, 0) + 1
        work_counters().work[function.work_counter] += 1
        # UDFs dominate a governed statement's time between batch
        # boundaries (a sleeping or looping function body), so the
        # timeout is also checked per invocation
        budget = active_budget()
        if budget is not None:
            budget.tick()
        if not METRICS.enabled:
            return function.invoke(args)
        function.calls.inc()
        started = time.perf_counter()
        result = function.invoke(args)
        function.seconds.observe(time.perf_counter() - started)
        return result

    def invoke_scalar_batch(
        self,
        function: ScalarFunction,
        n: int,
        args: Sequence[object],
        columnar: Sequence[bool],
    ) -> list:
        """The ``n`` calls one call site makes over a batch, as a column.

        Equals ``[invoke_scalar(function, row_args) for row_args in
        ...]`` (``args[i]`` is a list of ``n`` values where
        ``columnar[i]``, else the value every call receives) with the
        instruments updated once: the count by ``n``, ``udf.calls.*`` by
        ``n`` and ``udf.seconds.*`` by ``n`` observations of the batch's
        mean per-call latency.  A statement's deadline is checked before
        each call.  After a failure mid-batch the counters hold the calls
        *started*, the histogram the calls completed.

        A function object whose ``invoke`` was replaced is crossed per
        call, through :meth:`invoke_scalar`.
        """
        return self._invoke_batch(
            function, n, args, columnar,
            _SCALAR_INVOKE, self.stats.scalar_calls, self.invoke_scalar,
        )

    def invoke_table_batch(
        self,
        function: TableFunction,
        n: int,
        args: Sequence[object],
        columnar: Sequence[bool],
    ) -> list[list[tuple]]:
        """The ``n`` calls one lateral makes over a batch: one list of
        rows per call, in row order.

        :meth:`invoke_scalar_batch` for a table function: equals
        ``[invoke_table(function, row_args) for row_args in ...]`` with
        ``stats.table_calls``, ``udf_calls_*`` and ``udf.calls.*`` moved
        by ``n`` at once, the deadline checked before each call and the
        same per-call detour for a replaced ``invoke``.
        """
        return self._invoke_batch(
            function, n, args, columnar,
            _TABLE_INVOKE, self.stats.table_calls, self.invoke_table,
        )

    def _invoke_batch(
        self,
        function: ScalarFunction | TableFunction,
        n: int,
        args: Sequence[object],
        columnar: Sequence[bool],
        batched_invoke: Callable[..., object],
        calls: dict[str, int],
        per_call: Callable[..., object],
    ) -> list:
        """One crossing for ``n`` calls: ``batched_invoke`` is the
        ``invoke`` the batch stands for, ``calls`` the stats count to
        move, ``per_call`` the route of a replaced ``invoke``."""
        if not n:
            return []
        if getattr(function.invoke, "__func__", None) is not batched_invoke:
            return [
                per_call(function, row_args)
                for row_args in _per_call(n, args, columnar)
            ]
        budget = active_budget()
        tick = None if budget is None or budget.deadline is None else budget.tick
        results: list = []
        timed = METRICS.enabled
        if timed:
            started = time.perf_counter()
        try:
            function.invoke_batch(n, args, columnar, results, tick)
        finally:
            completed = len(results)
            made = min(completed + 1, n)  # the call that raised had started
            calls[function.name] = calls.get(function.name, 0) + made
            work_counters().work[function.work_counter] += made
            if timed:
                function.calls.inc(made)
                if completed:
                    function.seconds.observe_many(
                        (time.perf_counter() - started) / completed, completed
                    )
        return results

    def invoke_table(
        self, function: TableFunction, args: Sequence[object]
    ) -> list[tuple]:
        """One call, every row of it: bodies are usually generators, and
        draining them here is what puts the work inside the timed
        region of ``udf.seconds.*`` (the caller wants all rows anyway)."""
        calls = self.stats.table_calls
        calls[function.name] = calls.get(function.name, 0) + 1
        work_counters().work[function.work_counter] += 1
        budget = active_budget()
        if budget is not None:
            budget.tick()
        if not METRICS.enabled:
            return list(function.invoke(args))
        function.calls.inc()
        started = time.perf_counter()
        result = list(function.invoke(args))
        function.seconds.observe(time.perf_counter() - started)
        return result

    def call_scalar(self, name: str, args: Sequence[object]) -> object:
        """Resolve by name and make one call, outside any plan: the
        batch crossing of one call with constant arguments, as every
        compiled call site crosses."""
        function = self.bind_scalar(name, len(args))
        return self.invoke_scalar_batch(function, 1, args, [False] * len(args))[0]

    def call_table(self, name: str, args: Sequence[object]) -> list[tuple]:
        function = self.bind_table(name, len(args))
        return self.invoke_table_batch(function, 1, args, [False] * len(args))[0]

    # -- built-ins ---------------------------------------------------------------

    def _register_builtins(self) -> None:
        from repro.engine.types import INTEGER, VARCHAR

        def _length(value: object) -> int | None:
            if value is None:
                return None
            if is_xadt_value(value):
                return value.byte_size()  # type: ignore[attr-defined]
            return len(str(value))

        def _substr(value: object, start: int, length: int | None = None) -> str | None:
            # SQL semantics: 1-based start; omitted length = to the end.
            if value is None:
                return None
            text = str(value)
            begin = max(int(start) - 1, 0)
            if length is None:
                return text[begin:]
            return text[begin:begin + int(length)]

        def _upper(value: object) -> str | None:
            return None if value is None else str(value).upper()

        def _lower(value: object) -> str | None:
            return None if value is None else str(value).lower()

        def _concat(*parts: object) -> str | None:
            if any(part is None for part in parts):
                return None
            return "".join(str(part) for part in parts)

        register = self.register_scalar
        register("length", _length, FunctionKind.BUILTIN, 1, 1, INTEGER)
        register("substr", _substr, FunctionKind.BUILTIN, 2, 3, VARCHAR)
        register("upper", _upper, FunctionKind.BUILTIN, 1, 1, VARCHAR)
        register("lower", _lower, FunctionKind.BUILTIN, 1, 1, VARCHAR)
        register("concat", _concat, FunctionKind.BUILTIN, 1, None, VARCHAR)


#: aggregate function names, recognized by the planner rather than the registry
AGGREGATE_NAMES = {"count", "sum", "avg", "min", "max"}
