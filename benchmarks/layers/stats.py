"""Statistics helpers of the layered benchmark (self-tested in test_stats.py).

Everything here is pure: no clocks, no engine state.  ``digest`` is the
one function that reaches into ``repro`` (for the differential oracle's
canonical form), and it imports it lazily so the rest stays importable
without the package on ``sys.path``.
"""

from __future__ import annotations

import hashlib
from statistics import median, quantiles

#: the percentiles a tail metric may be reported at, lowest first
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values, p: float) -> float:
    """The ``p``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_percentile(count: int, beyond: int = 10) -> float:
    """The highest ladder percentile with >= ``beyond`` samples past it.

    A p95 over 60 samples is decided by three of them; the rule keeps a
    reported tail from resting on fewer than ``beyond`` observations.
    Falls back to the median when even p75 is unsupported.
    """
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        if round(count * (100.0 - p) / 100.0, 9) >= beyond:
            best = p
    return best


def best_set(per_set: list[float], better: str = "lower") -> tuple[float, float]:
    """``(best, noise)`` over back-to-back sets of one metric.

    The box's slow episodes last seconds and only ever make a set
    worse, so the best set is the estimate of the undisturbed machine;
    ``noise = (worst - best) / best`` says how far the other sets were
    from it.
    """
    if not per_set:
        raise ValueError("best_set of no sets")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    best = min(per_set) if better == "lower" else max(per_set)
    worst = max(per_set) if better == "lower" else min(per_set)
    noise = abs(worst - best) / abs(best) if best else 0.0
    return best, noise


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self seconds per span id: duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping
    siblings are merged first, so time two children share is subtracted
    once.  Each span is a dict with ``id``, ``parent`` (id or None),
    ``start`` and ``end``.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append((start, end))
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        out[span["id"]] = max(span["end"] - span["start"] - covered, 0.0)
    return out


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    """Total self seconds per span name."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
    return totals


def digest(rows) -> str:
    """Order-insensitive digest of a result set.

    Rows go through the differential oracle's ``canonical_rows`` first:
    XADT cells become their XML text (``XadtValue`` defines no ordering,
    so sorting raw rows raises ``TypeError``) and floats are rounded, so
    a native result, its SQLite twin and its copy off the wire (lists of
    JSON values) all digest alike.
    """
    from repro.difftest.runner import canonical_rows

    canonical = canonical_rows(rows)
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()[:16]


def spread(values: list[float]) -> float:
    """Interquartile range over the median, the acceptance statistic."""
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0
