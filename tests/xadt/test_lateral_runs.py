"""An outer value over a lateral: each XADT column body computes once
per run of one object, and nothing it observes or charges moves.

``FROM pp, TABLE(unnest(pp_slist, 'aTuple')) at`` copies each ``pp``
row into every row of its fan-out, so ``getElm(pp_slist, …)`` in the
SELECT list sees one object many rows in a row.  The statement runs
twice: as compiled, and with every function's ``invoke`` replaced, which
crosses the boundary one call at a time — the reference.  Rows, the
bytes charged and the decode cache's traffic must agree.
"""

import pytest

from repro.engine.plan.physical import Operator
from repro.xadt import DICT, fastscan
from repro.xadt.decode_cache import DECODE_CACHE

SQL = (
    "SELECT elmText(getElm(pp_slist, 'title', '', '')) "
    "FROM pp, TABLE(unnest(pp_slist, 'aTuple')) at"
)
FUNCTIONS = ("getElm", "elmText", "unnest")


@pytest.fixture()
def xorator(sigmod_pair):
    loaded = sigmod_pair[1]
    assert loaded.codecs["pp.pp_slist"] == DICT
    return loaded.db


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Calls of the getElm scan kernel, counted."""
    calls = []
    kernel = fastscan.get_elm_plain

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(fastscan, "get_elm_plain", spy)
    return calls


def run(db, per_call=False):
    """The statement's rows, charged bytes, decode-cache traffic and UDF
    counts, from a cold decode cache."""
    registry = db.registry
    functions = [
        registry.table_function(name) if name == "unnest" else registry.scalar(name)
        for name in FUNCTIONS
    ]
    if per_call:  # a replaced ``invoke`` is crossed one call at a time
        for function in functions:
            invoke = type(function).invoke.__get__(function)
            function.invoke = lambda args, invoke=invoke: invoke(args)
    DECODE_CACHE.clear()
    DECODE_CACHE.stats.reset()
    db.reset_function_stats()
    db.io.reset()
    try:
        rows = db.execute(SQL).rows
    finally:
        for function in functions:
            vars(function).pop("invoke", None)
    work = db.io.work
    stats = DECODE_CACHE.stats
    return (
        rows,
        (work["xadt_bytes_scanned"], work["xadt_bytes_decoded"]),
        (stats.hits, stats.misses),
        dict(registry.stats.scalar_calls),
        dict(registry.stats.table_calls),
    )


@pytest.mark.parametrize("batch_size", [7, 1024])
def test_an_outer_value_over_a_lateral_matches_the_per_call_route(
    xorator, kernel_calls, monkeypatch, batch_size
):
    monkeypatch.setattr(Operator, "batch_size", batch_size)
    expected = run(xorator, per_call=True)
    rows = len(expected[0])
    assert len(kernel_calls) == rows
    kernel_calls.clear()
    assert run(xorator) == expected
    # one scan per run of one pp row's pp_slist (a batch boundary starts
    # a run too), not one per row
    documents = xorator.execute("SELECT COUNT(*) FROM pp").scalar()
    assert len(kernel_calls) <= documents + rows // batch_size + 1 < rows
