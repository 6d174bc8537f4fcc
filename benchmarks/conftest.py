"""Shared fixtures for the benchmark suite.

Every benchmark pairs a ``pytest-benchmark`` measurement (wall-clock CPU
of the operation) with a printed paper-style table of the *modeled cold*
results (counted work and pages on the simulated 2002 machine; see
``repro.engine.io``).  Corpus sizes multiply by the ``REPRO_SCALE``
environment variable.

Run with::

    pytest benchmarks/ --benchmark-only

The printed sections (``-s`` or captured in the summary) regenerate each
table/figure of the paper; EXPERIMENTS.md records one such run.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import env_scale
from repro.bench.harness import build_pair


def _scaled(base: int) -> int:
    return base * env_scale()


@pytest.fixture(scope="session")
def shakespeare_pair_x1():
    return build_pair("shakespeare", _scaled(1))


@pytest.fixture(scope="session")
def sigmod_pair_x1():
    return build_pair("sigmod", _scaled(1))


def print_report(title: str, body: str) -> None:
    """Emit a paper-style table into the captured benchmark output."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


def assert_figure_shape(sweep, paper_says_xorator_wins, known_deviations) -> None:
    """Hold every cell of a ratio sweep to the paper's shape.

    ``paper_says_xorator_wins(key, scale)`` is the figure as published;
    ``known_deviations`` maps a query to ``(scales, why)`` where the
    model disagrees.  Both directions fail: an unlisted cell that
    deviates, and a listed one that no longer does.
    """
    for key in sweep.ratios:
        deviating = known_deviations.get(key, ((), ""))[0]
        for scale in sweep.scales:
            agrees = (sweep.ratio(key, scale) > 1.0) == paper_says_xorator_wins(
                key, scale
            )
            assert agrees == (scale not in deviating), (
                f"{key} at DSx{scale}: ratio {sweep.ratio(key, scale):.2f}, "
                f"{'listed as' if scale in deviating else 'not listed as'} "
                "a known deviation"
            )
