"""Count what the cyclic garbage collector does during paper-query passes.

Builds one dataset's corpus and both mappings (Hybrid and XORator)
through ``benchmarks/layers/common.py``, at the scale its read workload
benchmarks and the benchmark's default seed, runs one warm-up pass per
mapping, then runs the paper statements (QS1-QS6 or QG1-QG6) in
process, the two mappings alternating in blocks of five passes like the
benchmark's measurement loop.  The collector is left as users get it; a
``gc.callbacks`` hook only watches.  Per mapping it prints

* collections per pass of each generation (young / middle / full),
* collector time per pass (ms, the time between a collection's start
  and stop callbacks),
* the types alive in the two younger generations when a middle
  collection starts, and the types of those objects it promoted into
  the old generation, per pass.  Promoted objects are what
  ``long_lived_pending`` counts, and a full collection runs once they
  outnumber a quarter of the objects that survived the last one.  Lists
  are broken down by length (``list[1]``, ``list[2-8]``, ``list[9+]``),
  since one list per hash key is the pattern this tool was written to
  find.

The census pass set runs after the timed one, so taking the census does
not inflate the collector time reported.  Collection counts depend on
the Python version (its thresholds and heuristics); compare commits on
one interpreter.  The builders are the benchmark's own, so the passes
measured here run over what the benchmark runs over.

Usage::

    PYTHONPATH=src python scripts/gc_pressure.py
        [--dataset sigmod|shakespeare] [--passes 100] [--census-passes 20]
        [--top 8]
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                       / "benchmarks" / "layers"))

import common  # noqa: E402
from common import MAPPINGS  # noqa: E402
from read_workloads import ShakespeareWire, SigmodInproc  # noqa: E402

#: passes of one mapping before the other takes its turn (as benchmarked)
BLOCK = 5
#: dataset -> the scale its read workload benchmarks
SCALES = {"sigmod": SigmodInproc.scale, "shakespeare": ShakespeareWire.scale}


class CollectorWatch:
    """Collections per generation and their pauses, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.pause_seconds = [0.0, 0.0, 0.0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.collections[info["generation"]] += 1
            self._started = time.perf_counter()
        else:
            paused = time.perf_counter() - self._started
            self.pause_seconds[info["generation"]] += paused


class Census:
    """Types alive in generations 0 and 1 when a middle collection
    starts, and the types of those objects that are in generation 2 when
    it stops (the ones it promoted).  Objects are matched by ``id``; no
    reference is held, so the census frees nothing late."""

    def __init__(self) -> None:
        self.alive: Counter[str] = Counter()
        self.promoted: Counter[str] = Counter()
        self._young: dict[int, str] = {}

    def __call__(self, phase: str, info: dict) -> None:
        if info["generation"] != 1:
            return
        if phase == "start":
            self._young = {
                id(obj): _type_name(obj)
                for generation in (0, 1) for obj in gc.get_objects(generation)
            }
            self.alive.update(self._young.values())
        else:
            young = self._young
            self.promoted.update(
                young[key] for key in map(id, gc.get_objects(2)) if key in young
            )
            self._young = {}


def _type_name(obj: object) -> str:
    if type(obj) is list:
        size = len(obj)
        return "list[1]" if size == 1 else "list[2-8]" if size <= 8 else "list[9+]"
    return type(obj).__qualname__


def build(dataset: str):
    """Both mappings' sessions and paper statements, as benchmarked."""
    corpus = common.make_corpus(dataset, SCALES[dataset], common.DEFAULT_SEED)
    loaded = common.build_databases(corpus)
    sessions = {name: loaded[name].db.connect() for name in MAPPINGS}
    statements = {
        name: [sql for _, sql in common.paper_statements(corpus, name)]
        for name in MAPPINGS
    }
    return sessions, statements


def run_passes(sessions, statements, passes: int, hooks: dict) -> None:
    """``passes`` per mapping, alternating in blocks; ``hooks[name]`` is
    on ``gc.callbacks`` only while that mapping's pass runs."""
    done = 0
    while done < passes:
        block = min(BLOCK, passes - done)
        for name in MAPPINGS:
            session, sqls, hook = sessions[name], statements[name], hooks[name]
            for _ in range(block):
                gc.callbacks.append(hook)
                try:
                    for sql in sqls:
                        session.execute(sql)
                finally:
                    gc.callbacks.remove(hook)
        done += block


def measure(dataset: str, passes: int, census_passes: int) -> dict:
    sessions, statements = build(dataset)
    for name in MAPPINGS:  # warm the plan cache, as the benchmark does
        for sql in statements[name]:
            sessions[name].execute(sql)
    watches = {name: CollectorWatch() for name in MAPPINGS}
    run_passes(sessions, statements, passes, watches)
    censuses = {name: Census() for name in MAPPINGS}
    if census_passes:
        run_passes(sessions, statements, census_passes, censuses)
    out = {}
    for name in MAPPINGS:
        watch = watches[name]
        full = watch.collections[2]
        out[name] = {
            "collections_per_pass": [n / passes for n in watch.collections],
            "collector_ms_per_pass": sum(watch.pause_seconds) * 1e3 / passes,
            "ms_per_full": watch.pause_seconds[2] * 1e3 / full if full else None,
            "alive_at_gen1_per_pass": per_pass(censuses[name].alive, census_passes),
            "promoted_to_gen2_per_pass": per_pass(
                censuses[name].promoted, census_passes
            ),
        }
    for session in sessions.values():
        session.close()
    return out


def per_pass(types: Counter, passes: int) -> dict[str, float]:
    if not passes:
        return {}
    return {kind: count / passes for kind, count in types.most_common()}


def report(result: dict, top: int) -> str:
    lines = [
        f"python {sys.version.split()[0]}, thresholds {gc.get_threshold()}",
        f"{'mapping':<9} {'young':>7} {'middle':>7} {'full':>7} "
        f"{'gc ms':>7}   (per pass)   ms per full collection",
    ]
    for name, facts in result.items():
        young, middle, full = facts["collections_per_pass"]
        full_ms = facts["ms_per_full"]
        lines.append(
            f"{name:<9} {young:>7.2f} {middle:>7.2f} {full:>7.3f} "
            f"{facts['collector_ms_per_pass']:>7.2f}   "
            + ("-" if full_ms is None else f"{full_ms:.2f}")
        )
    for name, facts in result.items():
        for field, title in (
            ("alive_at_gen1_per_pass", "alive in gen 0+1 at middle collections"),
            ("promoted_to_gen2_per_pass", "promoted to gen 2 by them"),
        ):
            lines.append(f"{name}: {title}, per pass")
            lines.extend(
                f"  {kind:<26} {count:>10.1f}"
                for kind, count in list(facts[field].items())[:top]
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", choices=sorted(SCALES), default="sigmod")
    parser.add_argument("--passes", type=int, default=100,
                        help="timed passes per mapping")
    parser.add_argument("--census-passes", type=int, default=20,
                        help="passes per mapping of the type census (0: none)")
    parser.add_argument("--top", type=int, default=8,
                        help="types listed per mapping")
    args = parser.parse_args(argv)
    if args.passes < 1 or args.census_passes < 0:
        parser.error("--passes must be >= 1 and --census-passes >= 0")
    result = measure(args.dataset, args.passes, args.census_passes)
    print(report(result, args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
