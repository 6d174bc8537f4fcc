"""Bounded LRU cache of compiled query plans.

The pure-Python engine pays a lex -> parse -> optimize -> compile tax on
every ``Database.execute()`` call; DB2 V7.2 amortized the equivalent
cost through its package cache.  This module provides that amortization:
plans are cached under their *normalized* SQL text and re-executed with
fresh iterator state (physical operators build their per-run state
inside ``rows()``), so a hit skips the whole front end.

Invalidation is version-based: every plan-relevant change — DDL,
``runstats()``, an execution-config swap — advances the catalog's single
monotonic version (see :mod:`repro.engine.catalog`), and a cached entry
records the version it was compiled under.  Entries are keyed by
``(normalized_sql, catalog_version)``, so a session pinned to an older
catalog snapshot and a session on the current one each hit their own
plan; when the writer publishes a catalog change it calls
:meth:`PlanCache.purge_stale`, which removes every entry compiled under
a superseded version and counts them as invalidations — stale plans are
never silently reused.  This replaces the old schema/stats/config epoch
trio, whose separate reads could race a concurrent config change.

All cache operations take an internal lock: the cache is shared by every
session of a :class:`~repro.engine.database.Database` and is hit from
every thread that runs one (the server's pool, reader threads in tests).

Normalization collapses whitespace and strips ``--`` comments *outside*
string literals and quoted identifiers, so formatting differences share
one plan while ``'a b'`` and ``'a  b'`` stay distinct statements.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.obs.metrics import METRICS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.expr import ParamBox
    from repro.engine.plan.physical import Operator
    from repro.engine.sql.ast import SelectStmt

DEFAULT_CAPACITY = 64

#: process-wide mirrors of the per-cache counters (all Database instances)
_HITS = METRICS.counter("plan_cache.hits")
_MISSES = METRICS.counter("plan_cache.misses")
_EVICTIONS = METRICS.counter("plan_cache.evictions")
_INVALIDATIONS = METRICS.counter("plan_cache.invalidations")


def normalize_sql(sql: str) -> str:
    """The cache key for ``sql``: whitespace/comment-insensitive text.

    Quote-aware: the bodies of single-quoted strings and double-quoted
    identifiers are preserved byte for byte (collapsing their whitespace
    would alias distinct statements to one cache entry).
    """
    parts: list[str] = []
    pending_space = False
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch in " \t\r\n":
            pending_space = True
            i += 1
            continue
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            pending_space = True
            continue
        if pending_space and parts:
            parts.append(" ")
        pending_space = False
        if ch == "'":
            j = i + 1
            while j < n:
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        j += 2
                        continue
                    break
                j += 1
            end = min(j + 1, n)
            parts.append(sql[i:end])
            i = end
            continue
        if ch == '"':
            j = sql.find('"', i + 1)
            end = n if j == -1 else j + 1
            parts.append(sql[i:end])
            i = end
            continue
        parts.append(ch)
        i += 1
    text = "".join(parts)
    while text.endswith(";") or text.endswith(" "):
        text = text[:-1]
    return text


@dataclass
class CachedPlan:
    """One cached SELECT: the operator tree plus its bind-value box."""

    plan: "Operator"
    params: "ParamBox"
    statement: "SelectStmt"
    #: catalog version the plan was compiled under — plans bake in access
    #: paths, compiled closures, and pruned scan layouts, so any DDL /
    #: runstats / config change makes the plan stale
    version: int = 0


@dataclass
class PlanCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0      #: capacity-driven removals
    invalidations: int = 0  #: version-driven removals (DDL / runstats / config)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0


class PlanCache:
    """LRU map from ``(normalized SQL, catalog version)`` to :class:`CachedPlan`.

    ``capacity`` 0 disables caching entirely (every lookup misses and
    ``store`` is a no-op) — the benchmark harness uses that to measure
    the uncached baseline.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 0:
            raise ConfigError("plan cache capacity cannot be negative")
        self.capacity = capacity
        self.stats = PlanCacheStats()
        self._entries: "OrderedDict[tuple[str, int], CachedPlan]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, key: str, version: int) -> CachedPlan | None:
        """The entry compiled under ``version``, or None (counted as a miss)."""
        with self._lock:
            entry = self._entries.get((key, version))
            if entry is None:
                self.stats.misses += 1
                _MISSES.inc()
                return None
            self._entries.move_to_end((key, version))
            self.stats.hits += 1
            _HITS.inc()
            return entry

    def store(self, key: str, entry: CachedPlan) -> None:
        with self._lock:
            if self.capacity == 0:
                return
            cache_key = (key, entry.version)
            self._entries[cache_key] = entry
            self._entries.move_to_end(cache_key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                _EVICTIONS.inc()

    def purge_stale(self, current_version: int) -> int:
        """Drop entries compiled under a superseded catalog version.

        Called by the writer after publishing a plan-relevant change;
        each removal counts as an invalidation.  Returns the number of
        entries dropped.
        """
        with self._lock:
            stale = [
                cache_key
                for cache_key in self._entries
                if cache_key[1] < current_version
            ]
            for cache_key in stale:
                del self._entries[cache_key]
            if stale:
                self.stats.invalidations += len(stale)
                _INVALIDATIONS.inc(len(stale))
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def report(self) -> dict[str, object]:
        with self._lock:
            out = self.stats.as_dict()
            out["entries"] = len(self._entries)
            out["capacity"] = self.capacity
            return out


__all__ = [
    "CachedPlan",
    "DEFAULT_CAPACITY",
    "PlanCache",
    "PlanCacheStats",
    "normalize_sql",
]
