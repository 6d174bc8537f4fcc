"""Source-level expression compilation: the one compiler a plan holds.

Every predicate, projection, group key, aggregate argument, sort key and
lateral argument of a plan is lowered here, once per (cached) plan at
plan time, into the Python source of one
*batch function*:

* :func:`compile_filter` — ``fn(batch)`` returns the rows it keeps;
* :func:`compile_column` — ``fn(batch)`` returns one value per row;
* :func:`compile_projection` — ``fn(batch)`` returns one tuple per row.

A batch is a list of row tuples (any iterable of them will do).  A
function's generated source is on ``fn.source``.  There is no per-row
form: every operator runs its expressions a batch at a time, so per-row
cost is the work itself inside one list comprehension, never a call.

**One ``compile()`` per source, per process.**  A source names the values
it reads — number and string literals, LIKE matchers, bound functions,
the plan's ``_params`` box — and binds them into the plan's own
environment, so the text depends only on the expression's shape.
Its code object comes from a bounded process-wide cache
(:data:`CODE_CACHE_SIZE` sources); each plan still runs it once, with
``exec``, into its own environment.  Plans that differ only in a
literal or a bound value share ``fn.__code__`` and nothing else, and a
plan-cache miss on a statement shape seen before compiles nothing.

Semantics are bit-identical to one-row-at-a-time evaluation (the
reference closure evaluator the tests diff against,
``tests/engine/reference_expr.py``): NULL comparisons are not true,
LIKE on NULL is false, ``NOT LIKE`` requires a non-NULL operand,
arithmetic propagates NULL and divides ints with ``//``.  Typed fast
paths — a comparison of an INTEGER/VARCHAR column against a literal of
the same kind compiles to a bare ``==``/``<`` with explicit NULL guards
— apply only where the storage layer guarantees the operand types.

**Crossing the UDF boundary.**  Scalar calls are bound to their function
object once, here, and every call crosses a column at a time:

* *hoisting* — every call is lifted out of the comprehension into a
  statement ``_cK = _invoke_scalar_batch(function, _n, [args...],
  columnar)`` computing its whole column; literal and ``?`` arguments
  stay scalars, a nested hoisted call feeds its column straight in, any
  other argument is evaluated into a column first.
* *reach selections* — a call under a non-first ``AND`` / ``OR``
  operand is made only on the rows short-circuit evaluation reaches:
  their mask ``_rK`` (the reach condition, over columns already hoisted)
  selects its arguments, and ``_scatter`` puts its results back into a
  full-length ``_cK`` whose other slots the comprehension's own ``and``
  / ``or`` never read.
* *conjunct cascade* — a filter over a top-level ``AND`` runs conjunct
  by conjunct over the rows the earlier conjuncts kept, which are
  exactly the rows short-circuit evaluation reaches, so the calls of
  ``code = 'SCENE' AND findKeyInElm(...) = 1`` need no mask.

Call counts, arguments and results equal row order's
(``tests/engine/test_udf_batch.py``), so UDF invocation counts (Figure
14) are unchanged.  Evaluation is column-major, so when two call sites
of one expression can both fail, the first *call site's* error surfaces
rather than the first row's — the same ``ReproError`` class either way
— and calls of earlier sites have been made for the whole batch by then;
a reach condition that fails does so before the calls it guards.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import compress
from types import CodeType
from typing import Callable, Sequence

from repro.engine import values as value_ops
from repro.engine.expr import (
    And,
    Arithmetic,
    Binding,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    Or,
    ParamBox,
    Parameter,
    SlotRef,
    Star,
    conjuncts_of,
)
from repro.engine.types import IntegerType, VarcharType
from repro.engine.udf import FunctionRegistry, ScalarFunction
from repro.errors import ExecutionError, PlanError

#: a compiled expression: a batch (list of row tuples) in, a list out
BatchFn = Callable[[list], list]

#: generated sources whose code object the process keeps (least recently
#: used first out): room for the sites of a full default plan cache.  A
#: source names every value it reads (bound into the plan's own ``env``)
#: and inlines only bool/None literals, so plans that differ in a number
#: or string literal, a function or a bound parameter share a code object
CODE_CACHE_SIZE = 512

#: the per-row name ``_vK`` of hoisted call ``K``'s value in generated
#: source (its column is ``_cK``); no other generated name has this shape
_HOISTED = re.compile(r"\b_v(\d+)\b")


# -- arithmetic helpers (bound into generated source) ------------------------
#
# NULL propagates, int/int division floors, failures raise
# ExecutionError.


def _arith_add(lv: object, rv: object) -> object:
    if lv is None or rv is None:
        return None
    try:
        return lv + rv  # type: ignore[operator]
    except TypeError as exc:
        raise ExecutionError(f"arithmetic failed: {lv!r} + {rv!r}") from exc


def _arith_sub(lv: object, rv: object) -> object:
    if lv is None or rv is None:
        return None
    try:
        return lv - rv  # type: ignore[operator]
    except TypeError as exc:
        raise ExecutionError(f"arithmetic failed: {lv!r} - {rv!r}") from exc


def _arith_mul(lv: object, rv: object) -> object:
    if lv is None or rv is None:
        return None
    try:
        return lv * rv  # type: ignore[operator]
    except TypeError as exc:
        raise ExecutionError(f"arithmetic failed: {lv!r} * {rv!r}") from exc


def _arith_div(lv: object, rv: object) -> object:
    if lv is None or rv is None:
        return None
    try:
        if isinstance(lv, int) and isinstance(rv, int):
            return lv // rv
        return lv / rv  # type: ignore[operator]
    except (TypeError, ZeroDivisionError) as exc:
        raise ExecutionError(f"arithmetic failed: {lv!r} / {rv!r}") from exc


_ARITH_FNS = {
    "+": _arith_add,
    "-": _arith_sub,
    "*": _arith_mul,
    "/": _arith_div,
}


def _negate(value: object) -> object:
    if value is None:
        return None
    if not isinstance(value, (int, float)):
        raise ExecutionError(f"cannot negate {value!r}")
    return -value  # type: ignore[operator]


def _scatter(reached: list, results: list) -> list:
    """The full-length column of a call made on the ``reached`` rows
    only: its results there, ``None`` (never read) elsewhere."""
    values = iter(results)
    return [next(values) if hit else None for hit in reached]


class _Lowering:
    """One compilation unit: accumulates the function's environment and
    the statements computing its hoisted calls' columns."""

    __slots__ = (
        "binding", "registry", "params", "env", "_counter", "hoisted",
        "_calls", "_reach",
    )

    def __init__(
        self,
        binding: Binding,
        registry: FunctionRegistry,
        params: ParamBox | None,
    ) -> None:
        self.binding = binding
        self.registry = registry
        self.params = params
        self.env: dict[str, object] = {
            "__builtins__": {},
            "bool": bool,
            "len": len,
            "list": list,
            "zip": zip,
            "_compress": compress,
            "_scatter": _scatter,
            "_invoke_scalar_batch": registry.invoke_scalar_batch,
        }
        self._counter = 0
        #: the statements that compute the hoisted calls' columns
        #: ``_c0``, ``_c1``, ... (and their reach masks ``_rK``)
        self.hoisted: list[str] = []
        self._calls = 0
        #: the per-row condition under which short-circuit evaluation
        #: reaches the node being lowered; None where it always does
        self._reach: str | None = None

    def bind(self, value: object, prefix: str = "_g") -> str:
        name = f"{prefix}{self._counter}"
        self._counter += 1
        self.env[name] = value
        return name

    # -- node lowering -----------------------------------------------------

    def lower(self, expr: Expr) -> str:
        if isinstance(expr, Literal):
            return self._literal(expr.value)
        if isinstance(expr, Parameter):
            if self.params is None:
                raise PlanError(
                    "parameter marker '?' outside a prepared statement"
                )
            self.env["_params"] = self.params
            return f"_params.values[{expr.index}]"
        if isinstance(expr, ColumnRef):
            return f"row[{self.binding.resolve(expr)}]"
        if isinstance(expr, SlotRef):  # post-aggregation slot placeholder
            return f"row[{expr.index}]"
        if isinstance(expr, Star):
            raise PlanError("'*' is only valid inside COUNT(*)")
        if isinstance(expr, FuncCall):
            if expr.is_aggregate():
                raise PlanError(
                    f"aggregate {expr.name}() in a non-aggregate context"
                )
            function = self.registry.bind_scalar(expr.name, len(expr.args))
            return self._hoist(function, expr.args)
        if isinstance(expr, Comparison):
            return self._comparison(expr)
        if isinstance(expr, Like):
            matcher = value_ops.like_matcher(expr.pattern, expr.negated)
            name = self.bind(matcher, "_like")
            return f"{name}({self.lower(expr.operand)})"
        if isinstance(expr, IsNull):
            check = "is not None" if expr.negated else "is None"
            return f"({self.lower(expr.operand)} {check})"
        if isinstance(expr, And):
            inner = " and ".join(self._short_circuit(expr.items, ""))
            return f"bool({inner})"
        if isinstance(expr, Or):
            inner = " or ".join(self._short_circuit(expr.items, "not "))
            return f"bool({inner})"
        if isinstance(expr, Not):
            return f"(not ({self.lower(expr.operand)}))"
        if isinstance(expr, Arithmetic):
            if expr.op not in _ARITH_FNS:
                raise ExecutionError(
                    f"unknown arithmetic operator {expr.op!r}"
                )
            name = self.bind(_ARITH_FNS[expr.op], "_arith")
            return f"{name}({self.lower(expr.left)}, {self.lower(expr.right)})"
        if isinstance(expr, Negate):
            self.env.setdefault("_negate", _negate)
            return f"_negate({self.lower(expr.operand)})"
        raise PlanError(f"cannot compile expression node {type(expr).__name__}")

    def _short_circuit(self, items: tuple[Expr, ...], negation: str) -> list[str]:
        """The operands of an AND (``negation`` is ``""``) or an OR
        (``"not "``), each lowered under its reach: short-circuit
        evaluation reaches operand *k* where it reaches the whole and
        operands 1..k-1 were all truthy (AND) or all falsy (OR)."""
        outer = self._reach
        fragments = []
        for item in items:
            fragment = f"({self.lower(item)})"
            fragments.append(fragment)
            step = negation + fragment
            self._reach = step if self._reach is None else f"{self._reach} and {step}"
        self._reach = outer
        return fragments

    def _hoist(self, function: ScalarFunction, args: tuple[Expr, ...]) -> str:
        """Lift one call out of the row comprehension.

        Emits the statement that computes the call's column ``_cK`` and
        returns ``_vK``, the name its value goes by inside a
        comprehension over :meth:`over_rows`.  Literal and ``?``
        arguments stay scalars, a nested hoisted call feeds its column
        straight in, anything else is evaluated into a column.  Under a
        reach condition the call is made on the reached rows only: their
        mask ``_rK`` selects the arguments, and the results are
        scattered back to a full-length ``_cK`` whose other slots the
        short-circuiting comprehension never reads.
        """
        fragments = [self.lower(arg) for arg in args]
        number = self._calls
        self._calls += 1
        mask = None
        if self._reach is not None:
            mask = f"_r{number}"
            self.hoisted.append(
                f"{mask} = [bool({self._reach}) {self.over_rows(self._reach)}]"
            )
        lowered = []
        columnar = []
        for arg, fragment in zip(args, fragments):
            constant = isinstance(arg, (Literal, Parameter))
            columnar.append(not constant)
            if constant:
                lowered.append(fragment)
            elif mask is None and _HOISTED.fullmatch(fragment):
                lowered.append("_c" + fragment[2:])
            else:
                lowered.append(f"[{fragment} {self.over_rows(fragment, mask)}]")
        call = (
            f"_invoke_scalar_batch({self.bind(function, '_f')}, "
            f"{'_n' if mask is None else mask + '.count(True)'}, "
            f"[{', '.join(lowered)}], {tuple(columnar)!r})"
        )
        if mask is not None:
            call = f"_scatter({mask}, {call})"
        self.hoisted.append(f"_c{number} = {call}")
        return f"_v{number}"

    def over_rows(self, fragment: str, mask: str | None = None) -> str:
        """The ``for ... in ...`` clause that walks ``_batch`` together
        with the hoisted columns ``fragment`` reads — only the rows
        ``mask`` selects, when given."""
        used = sorted({int(k) for k in _HOISTED.findall(fragment)})
        targets = "row" + "".join(f", _v{k}" for k in used)
        rows = "_batch"
        if used:
            rows = f"zip(_batch, {', '.join(f'_c{k}' for k in used)})"
        if mask is not None:
            rows = f"_compress({rows}, {mask})"
        return f"for {targets} in {rows}"

    def _literal(self, value: object) -> str:
        # numbers and strings are bound, not spelled, so that plans
        # differing only in a constant generate one source
        if value is None or value is True or value is False:
            return repr(value)
        return self.bind(value)

    # -- comparisons ---------------------------------------------------------

    def _comparison(self, expr: Comparison) -> str:
        fast = self._typed_comparison(expr)
        if fast is not None:
            return fast
        fn = value_ops.COMPARE_FNS.get(expr.op)
        if fn is None:
            raise ExecutionError(f"unknown comparison operator {expr.op!r}")
        name = self.bind(fn, "_cmp")
        return f"{name}({self.lower(expr.left)}, {self.lower(expr.right)})"

    def _side_kind(self, expr: Expr) -> tuple[str, bool] | None:
        """(kind, maybe_null) for operands with storage-guaranteed types."""
        if isinstance(expr, ColumnRef):
            sql_type = self.binding.slot_of(expr).sql_type
            if isinstance(sql_type, IntegerType):
                return "int", True
            if isinstance(sql_type, VarcharType):
                return "str", True
            return None
        if isinstance(expr, Literal):
            value = expr.value
            if value is None:
                return "null", False
            if isinstance(value, int) and not isinstance(value, bool):
                return "int", False
            if isinstance(value, str):
                return "str", False
        return None

    def _typed_comparison(self, expr: Comparison) -> str | None:
        op = expr.op
        if op not in ("=", "<>", "<", "<=", ">", ">="):
            return None
        left_kind = self._side_kind(expr.left)
        right_kind = self._side_kind(expr.right)
        if left_kind is None or right_kind is None:
            return None
        if "null" in (left_kind[0], right_kind[0]):
            return "False"  # NULL comparisons are never true
        if left_kind[0] != right_kind[0]:
            return None  # int/str mixes keep the implicit-cast helper
        left = self.lower(expr.left)
        right = self.lower(expr.right)
        guards = []
        if op == "=":
            # ``L == R`` alone is wrong only when both sides are NULL
            if left_kind[1] and right_kind[1]:
                guards.append(f"{left} is not None")
        else:
            if left_kind[1]:
                guards.append(f"{left} is not None")
            if right_kind[1]:
                guards.append(f"{right} is not None")
        python_op = "!=" if op == "<>" else ("==" if op == "=" else op)
        body = f"{left} {python_op} {right}"
        if guards:
            return "(" + " and ".join(guards) + f" and {body})"
        return f"({body})"


@lru_cache(maxsize=CODE_CACHE_SIZE)
def _code(source: str) -> CodeType:
    """The code object of ``source``; ``compile()`` runs on a cache miss."""
    return compile(source, "<expr-compile>", "exec")


def _compile(lines: list[str], env: dict[str, object]) -> BatchFn:
    """The batch function whose body is ``lines``, defined in ``env``."""
    source = "def _batch_fn(_batch):\n" + "".join(
        f"    {line}\n" for line in lines
    )
    scope: dict[str, object] = {}
    exec(_code(source), env, scope)  # noqa: S102
    fn = scope["_batch_fn"]
    fn.source = source
    return fn


def compile_filter(
    expr: Expr,
    binding: Binding,
    registry: FunctionRegistry,
    params: ParamBox | None = None,
) -> BatchFn:
    """``fn(batch)`` → the rows of ``batch`` for which ``expr`` is true.

    The top-level AND runs as a cascade: conjunct by conjunct, each over
    the rows the earlier ones kept — exactly the rows short-circuit
    evaluation reaches — so a conjunct's unconditional calls are made
    column-wise with exact counts.  Neighbouring conjuncts that hoist
    nothing share one comprehension.
    """
    lowering = _Lowering(binding, registry, params)
    lines: list[str] = []
    pending: list[str] = []  # conditions awaiting one shared comprehension

    def flush() -> None:
        if pending:
            condition = " and ".join(pending)
            lines.append(f"_batch = [row for row in _batch if {condition}]")
            pending.clear()

    for conjunct in conjuncts_of(expr):
        before = len(lowering.hoisted)
        condition = f"({lowering.lower(conjunct)})"
        statements = lowering.hoisted[before:]
        if not statements:
            pending.append(condition)
            continue
        flush()
        if not lines:  # a first stage may be handed any iterable
            lines.append("_batch = list(_batch)")
        lines.append("_n = len(_batch)")
        lines.extend(statements)
        lines.append(
            f"_batch = [row {lowering.over_rows(condition)} if {condition}]"
        )
    flush()
    lines.append("return _batch")
    return _compile(lines, lowering.env)


def _compile_values(lowering: _Lowering, body: str) -> BatchFn:
    """The batch function computing ``body`` (already lowered) per row:
    the hoisted columns first, then one comprehension over them."""
    lines = []
    if lowering.hoisted:  # the batch is walked once per column
        lines = ["_batch = list(_batch)", "_n = len(_batch)", *lowering.hoisted]
    if _HOISTED.fullmatch(body):  # the expression *is* a call: its column
        lines.append(f"return _c{body[2:]}")
    else:
        lines.append(f"return [{body} {lowering.over_rows(body)}]")
    return _compile(lines, lowering.env)


def compile_column(
    expr: Expr,
    binding: Binding,
    registry: FunctionRegistry,
    params: ParamBox | None = None,
) -> BatchFn:
    """``fn(batch)`` → the value of ``expr`` for each row of ``batch``."""
    lowering = _Lowering(binding, registry, params)
    return _compile_values(lowering, lowering.lower(expr))


def compile_projection(
    exprs: Sequence[Expr],
    binding: Binding,
    registry: FunctionRegistry,
    params: ParamBox | None = None,
) -> BatchFn:
    """``fn(batch)`` → the SELECT-list tuple of each row of ``batch``."""
    lowering = _Lowering(binding, registry, params)
    fragments = [lowering.lower(expr) for expr in exprs]
    body = ", ".join(fragments) + ("," if len(fragments) == 1 else "")
    return _compile_values(lowering, f"({body})")


__all__ = ["BatchFn", "compile_column", "compile_filter", "compile_projection"]
