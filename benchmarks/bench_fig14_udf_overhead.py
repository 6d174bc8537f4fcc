"""Figure 14: the cost of invoking UDFs vs equivalent built-ins.

QT1 (length) and QT2 (substring) over the Hybrid speaker table, three
ways: built-in, NOT FENCED UDF, FENCED UDF (address-space round trip).
The paper measures the NOT FENCED UDF at roughly 40 % more expensive
and cites a "significant performance penalty" for FENCED mode.  Those
are period costs, charged per call on the model (``udf_calls_*``) and
never performed by the host: the report test reads the model; the three
``benchmark(db.execute, ...)`` cases are pytest-benchmark reporting of
host wall only, where the variants differ by nothing but the body.
"""

import pytest
from conftest import print_report

from repro.bench.experiments import run_fig14
from repro.bench.report import render_fig14
from repro.workloads import MICRO_QUERIES


@pytest.mark.parametrize("micro", MICRO_QUERIES, ids=lambda m: m.key)
def test_builtin(micro, shakespeare_pair_x1, benchmark):
    db = shakespeare_pair_x1.hybrid.db
    benchmark(db.execute, micro.builtin_sql)


@pytest.mark.parametrize("micro", MICRO_QUERIES, ids=lambda m: m.key)
def test_not_fenced_udf(micro, shakespeare_pair_x1, benchmark):
    db = shakespeare_pair_x1.hybrid.db
    benchmark(db.execute, micro.udf_sql)


@pytest.mark.parametrize("micro", MICRO_QUERIES, ids=lambda m: m.key)
def test_fenced_udf(micro, shakespeare_pair_x1, benchmark):
    db = shakespeare_pair_x1.hybrid.db
    benchmark(db.execute, micro.fenced_sql)


def test_figure14_report(benchmark):
    results = run_fig14()
    print_report(
        "Figure 14 — overhead in invoking UDFs "
        "(paper: UDF ~40% more expensive than built-in)",
        render_fig14(results),
    )
    assert results == run_fig14()  # no clock in it
    for result in results:
        assert result.udf_overhead == pytest.approx(0.40), result.key
        assert result.fenced_overhead > result.udf_overhead, result.key
        assert (
            result.builtin_seconds < result.udf_seconds < result.fenced_seconds
        ), result.key
    benchmark(lambda: None)
