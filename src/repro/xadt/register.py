"""Registration of the XADT's SQL surface into a Database.

Installs, following the paper's DB2 implementation:

* the three XADT methods as NOT FENCED scalar UDFs
  (``getElm``, ``findKeyInElm``, ``getElmIndex``),
* ``elmText`` / ``elmEquals`` (convenience methods, see
  :mod:`repro.xadt.methods`),
* ``xadt(text)`` — a built-in constructor used by tests and examples,
* the ``unnest`` table UDF,
* the Figure-14 micro-benchmark UDF twins of the built-ins
  (``udf_length``/``udf_substr`` in NOT FENCED mode and
  ``fenced_length``/``fenced_substr`` in FENCED mode — the ablation
  for the paper's remark that the FENCED option "causes a significant
  performance penalty").

The fencing mode is what a call is charged as (``udf_calls_*`` in
``repro.engine.io.WORK_SECONDS``); values cross by reference in every
mode.  The methods and ``unnest`` are registered with their column
bodies, so a batch crossing hands them a whole column.
"""

from __future__ import annotations

from repro.engine.database import Database
from repro.engine.types import INTEGER, VARCHAR, XADT
from repro.engine.udf import FunctionKind
from repro.xadt.fragment import XadtValue
from repro.xadt.methods import (
    elm_equals,
    elm_equals_column,
    elm_text,
    elm_text_column,
    find_key_in_elm,
    find_key_in_elm_column,
    get_elm,
    get_elm_column,
    get_elm_index,
    get_elm_index_column,
)
from repro.xadt.unnest import unnest, unnest_column


def register_xadt_functions(db: Database) -> None:
    """Install the XADT methods and helpers into ``db`` (NOT FENCED is
    the registry's default kind)."""
    registry = db.registry

    registry.register_scalar(
        "getElm", get_elm, min_args=2, max_args=5, result_type=XADT,
        column=get_elm_column,
    )
    registry.register_scalar(
        "findKeyInElm", find_key_in_elm,
        min_args=3, max_args=3, result_type=INTEGER,
        column=find_key_in_elm_column,
    )
    registry.register_scalar(
        "getElmIndex", get_elm_index,
        min_args=5, max_args=5, result_type=XADT,
        column=get_elm_index_column,
    )
    registry.register_scalar(
        "elmText", elm_text, min_args=1, max_args=1, result_type=VARCHAR,
        column=elm_text_column,
    )
    registry.register_scalar(
        "elmEquals", elm_equals,
        min_args=3, max_args=3, result_type=INTEGER,
        column=elm_equals_column,
    )
    registry.register_scalar(
        "xadt",
        lambda text: XadtValue.from_xml("" if text is None else str(text)),
        FunctionKind.BUILTIN,
        min_args=1,
        max_args=1,
        result_type=XADT,
    )
    registry.register_table(
        "unnest", unnest, [("out", XADT)], min_args=1, max_args=2,
        column=unnest_column,
    )

    _register_figure14_udfs(db)


def _register_figure14_udfs(db: Database) -> None:
    """The QT1/QT2 micro-benchmark functions (paper Figure 14): the
    built-ins' own bodies under the two UDF kinds, so the three variants
    of a micro query differ in nothing but what a call is charged as."""
    registry = db.registry
    length, substr = registry.scalar("length").fn, registry.scalar("substr").fn
    for prefix, kind in (
        ("udf", FunctionKind.NOT_FENCED),
        ("fenced", FunctionKind.FENCED),
    ):
        registry.register_scalar(f"{prefix}_length", length, kind, 1, 1, INTEGER)
        registry.register_scalar(f"{prefix}_substr", substr, kind, 2, 3, VARCHAR)
