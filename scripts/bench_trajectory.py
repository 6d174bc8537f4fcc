"""Regenerate the committed benchmark trajectory artifacts.

``BENCH_fig11.json`` (Shakespeare) and ``BENCH_fig13.json`` (SIGMOD)
are ``repro.bench.report.sweep_to_json`` of
``repro.bench.experiments.run_fig11`` / ``run_fig13`` — the same sweep
and the same serializer ``benchmarks/bench_fig1*.py`` assert on.  Per
query and scale: the *modeled cold* seconds of both schemas (counted
work and pages x the constants of ``repro.engine.io``, the paper's
reported metric) with their counters, the Hybrid / XORator ratio (> 1
means XORator wins), and beside them the host's wall seconds.  One
execution per cell: the model is a function of (data, plan).

``BENCH_qs6.json`` records the QS6 order-access sweep: per Figure 11
scale, the per-call cost of the QS6-style XADT accesses (``getElmIndex``
ordinal, ``findKeyInElm`` keyword, ``getElm`` keyword slice) over the
XORator prologue fragments, tag scan vs the structural index, with the
speedup ratio (see ``benchmarks/bench_qs6_order_access.py`` for the
gated version and the ``lines_per_speech=14`` rationale).

``BENCH_partitioned.json`` records the partition-parallel sweep
(``run_partitioned_sweep`` / ``partitioned_to_json``): the Fig11 XORator
queries over the ``speech`` table hash-partitioned 4 ways, executed
serially and through the multiprocessing Exchange at 1/2/4 workers,
with modeled cold seconds and the speedup per worker count
(``benchmarks/bench_partitioned_speedup.py`` gates the same sweep;
DESIGN.md §12 has the scaled-out machine model).

``BENCH_difftest.json`` records the differential-oracle sweep: per
seed, the query-shape mix the generator drew and the
executed/unsupported/divergence counts from running every query on
both the native engine and the sqlite backend (DESIGN.md §13).  A
committed divergence count other than zero fails CI's
``difftest-smoke`` job.

``BENCH_server.json`` records the network front-end sweep
(DESIGN.md §14): closed-loop client scaling (50/100/200 concurrent
clients, wall/throughput/p50/p99) against a served database, plus the
clean-overload cell — a 1-thread server under ~2x offered load, where
every rejection must be the typed ``Overloaded`` (the gated version is
``benchmarks/bench_server_load.py``).

Usage::

    PYTHONPATH=src python scripts/bench_trajectory.py [--quick]
        [--scales 1,2,4,8] [--out-dir .]
        [--only fig11,partitioned,difftest]
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from dataclasses import replace
from pathlib import Path

from repro.bench.experiments import (
    run_fig11,
    run_fig13,
    run_partitioned_sweep,
)
from repro.bench.harness import BASE_SHAKESPEARE, build_database, build_pair
from repro.bench.report import partitioned_to_json, sweep_to_json
from repro.datagen.shakespeare import generate_corpus
from repro.dtd import samples
from repro.engine.config import ExecutionConfig
from repro.mapping import map_xorator
from repro.workloads import shakespeare_queries
from repro.xadt import methods
from repro.xadt.decode_cache import DECODE_CACHE
from repro.xadt.register import enable_structural_indexes
from repro.xadt.structural_index import XINDEX, routing

FIGURES = {"fig11": run_fig11, "fig13": run_fig13}


#: the QS6-style access kinds the structural index serves
QS6_ACCESS = (
    ("ordinal", lambda f: methods.get_elm_index(f, "", "LINE", 2, 2)),
    ("keyword", lambda f: methods.find_key_in_elm(f, "LINE", "love")),
    ("getelm", lambda f: methods.get_elm(f, "", "LINE", "love")),
)


def _median_access_pass(fn, fragments, routed: bool, rounds: int) -> float:
    times = []
    for _ in range(rounds):
        with routing(routed):
            started = time.perf_counter()
            for fragment in fragments:
                fn(fragment)
            times.append(time.perf_counter() - started)
    return statistics.median(times) / len(fragments)


def qs6_sweep(scales: list[int], rounds: int) -> dict:
    """Indexed-vs-scan per-call cost of QS6's order accesses per scale."""
    results: dict[str, dict] = {}
    for scale in scales:
        config = replace(BASE_SHAKESPEARE.scaled(scale), lines_per_speech=14)
        loaded = build_database(
            "xorator",
            map_xorator(samples.shakespeare_simplified()),
            generate_corpus(config),
            shakespeare_queries.workload_sql("xorator"),
            sample_for_codecs=4,
        )
        db = loaded.db
        enable_structural_indexes(db)
        fragments = [
            row[0]
            for row in db.execute(
                "SELECT speech_line FROM speech "
                "WHERE speech_parentCODE = 'PROLOGUE'"
            ).rows
        ]
        cell: dict[str, object] = {
            "fragments": len(fragments),
            "median_fragment_bytes": statistics.median(
                fragment.byte_size() for fragment in fragments
            ),
        }
        DECODE_CACHE.enabled = False
        try:
            for name, fn in QS6_ACCESS:
                scan_s = _median_access_pass(fn, fragments, False, rounds)
                index_s = _median_access_pass(fn, fragments, True, rounds)
                cell[name] = {
                    "scan_seconds_per_call": round(scan_s, 9),
                    "xindex_seconds_per_call": round(index_s, 9),
                    "speedup": round(scan_s / index_s, 2) if index_s else None,
                }
        finally:
            DECODE_CACHE.enabled = True
            DECODE_CACHE.clear()
        XINDEX.clear()
        results[str(scale)] = cell
        print(f"qs6: scale x{scale} done ({len(fragments)} fragments)")
    return {
        "figure": "qs6_order_access",
        "dataset": "shakespeare (lines_per_speech=14, paper-sized prologues)",
        "scales": scales,
        "rounds": rounds,
        "metric": "median per-call seconds, tag scan vs structural index "
                  "(decode cache off)",
        "engine_config": ExecutionConfig().as_dict(),
        "access": results,
    }


#: seeds the committed difftest artifact records
DIFFTEST_SEEDS = (0, 1, 2, 3)
DIFFTEST_COUNT = 60


def difftest_sweep(seeds, count: int) -> dict:
    """Differential native-vs-sqlite runs over both Shakespeare schemas."""
    from repro.difftest import run_difftest

    pair = build_pair("shakespeare", scale=1)
    runs = []
    for loaded in (pair.hybrid, pair.xorator):
        for seed in seeds:
            report = run_difftest(
                loaded.db, loaded.schema, count=count, seed=seed
            )
            runs.append(
                {
                    "schema": loaded.algorithm,
                    "seed": seed,
                    "requested": report.requested,
                    "executed": report.executed,
                    "unsupported": report.unsupported,
                    "divergences": len(report.divergences),
                    "shapes": dict(sorted(report.shapes.items())),
                }
            )
    return {
        "artifact": "difftest",
        "dataset": "shakespeare",
        "backend": "sqlite",
        "queries_per_seed": count,
        "seeds": list(seeds),
        "metric": "queries executed on both backends with canonicalized "
                  "multiset comparison; divergences must stay 0",
        "total_divergences": sum(run["divergences"] for run in runs),
        "runs": runs,
    }


#: closed-loop client counts for the server scaling sweep
SERVER_CLIENT_COUNTS = (50, 100, 200)
SERVER_REQUESTS = 5
SERVER_ROWS = 200


def server_sweep(quick: bool) -> dict:
    """Client scaling + clean-overload cells for the network front-end."""
    import asyncio

    from repro.engine.database import Database
    from repro.engine.faults import FAULTS, FaultPlan
    from repro.errors import Overloaded, TransientError
    from repro.server import AsyncReproClient, start_server_thread
    from repro.xadt import register_xadt_functions

    counts = (20, 50) if quick else SERVER_CLIENT_COUNTS
    requests = 3 if quick else SERVER_REQUESTS

    db = Database("served-bench")
    register_xadt_functions(db)
    db.execute("CREATE TABLE docs (id INT, body VARCHAR(40))")
    db.execute_many(
        "INSERT INTO docs VALUES (?, ?)",
        [(i, f"document-{i:05d}") for i in range(SERVER_ROWS)],
    )

    def quantile(values: list[float], q: float) -> float:
        ordered = sorted(values)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    async def closed_loop(n: int, host: str, port: int,
                          latencies: list[float]) -> None:
        client = AsyncReproClient(host, port, client_name=f"bench{n}")
        try:
            await client.connect()
            for i in range(requests):
                started = time.perf_counter()
                for attempt in range(8):
                    try:
                        await client.execute(
                            "SELECT body FROM docs WHERE id = ?",
                            ((n + i) % SERVER_ROWS,),
                        )
                        break
                    except TransientError as exc:
                        hint = getattr(exc, "retry_after", None) or 0.01
                        await asyncio.sleep(min(hint, 0.2))
                        if client._writer is None:
                            await client.connect()
                latencies.append(time.perf_counter() - started)
        finally:
            await client.close()

    scaling: dict[str, dict] = {}
    for clients in counts:
        handle = start_server_thread(
            db,
            max_inflight=8,
            queue_watermark=max(64, clients),
            max_sessions=16,
            per_client_cap=2,
        )
        latencies: list[float] = []

        async def drive(clients=clients, handle=handle,
                        latencies=latencies):
            await asyncio.gather(*[
                closed_loop(n, handle.host, handle.port, latencies)
                for n in range(clients)
            ])

        started = time.perf_counter()
        asyncio.run(drive())
        wall = time.perf_counter() - started
        handle.stop()
        total = clients * requests
        scaling[str(clients)] = {
            "requests": total,
            "completed": len(latencies),
            "wall_seconds": round(wall, 6),
            "queries_per_second": round(total / wall, 2) if wall else None,
            "p50_ms": round(quantile(latencies, 0.50) * 1000, 3),
            "p99_ms": round(quantile(latencies, 0.99) * 1000, 3),
        }
        print(f"server: {clients} client(s) done")

    # the overload cell: 1 executor thread, watermark 0, deterministically
    # slow queries — every rejection must be the typed Overloaded
    handle = start_server_thread(
        db, max_inflight=1, queue_watermark=0, max_sessions=2
    )
    FAULTS.install(FaultPlan().delay_at("io.charge", 0.005))
    outcomes = {"ok": 0, "shed": 0, "other": 0}
    overload_clients = max(8, counts[-1] // 10)

    async def offered(n: int) -> None:
        client = AsyncReproClient(handle.host, handle.port,
                                  client_name=f"over{n}")
        try:
            await client.connect()
            for _ in range(requests):
                try:
                    await client.execute("SELECT COUNT(*) FROM docs")
                    outcomes["ok"] += 1
                except Overloaded:
                    outcomes["shed"] += 1
                except Exception:  # noqa: BLE001 - counted, must stay 0
                    outcomes["other"] += 1
        finally:
            await client.close()

    async def drive_overload():
        await asyncio.gather(*[offered(n) for n in range(overload_clients)])

    asyncio.run(drive_overload())
    FAULTS.clear()
    handle.stop()
    db.close()
    print(f"server: overload cell done ({overload_clients} clients)")

    return {
        "artifact": "server_load",
        "dataset": f"{SERVER_ROWS}-row docs table, point queries",
        "client_counts": list(counts),
        "requests_per_client": requests,
        "server_config": {
            "max_inflight": 8,
            "max_sessions": 16,
            "per_client_cap": 2,
        },
        "metric": "closed-loop wall/throughput/latency per concurrency "
                  "level; overload cell on a 1-thread server must shed "
                  "with typed Overloaded only (DESIGN.md §14)",
        "scaling": scaling,
        "overload": {
            "clients": overload_clients,
            "max_inflight": 1,
            "queue_watermark": 0,
            **outcomes,
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller QS6 / difftest / server sweeps (the model's "
             "figures are one pass per cell either way)",
    )
    parser.add_argument(
        "--scales", default="1,2,4,8",
        help="comma-separated corpus scale multipliers (default 1,2,4,8 "
             "— the paper's)",
    )
    parser.add_argument(
        "--rounds", type=int, default=5,
        help="timed passes per QS6 access kind; the median is reported",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=Path(__file__).resolve().parent.parent,
        help="directory for the BENCH_*.json artifacts (default: repo root)",
    )
    parser.add_argument(
        "--only", default="",
        help="comma-separated subset of artifacts to regenerate "
             "(fig11, fig13, qs6, partitioned, difftest, server; "
             "default all)",
    )
    args = parser.parse_args()
    scales = [int(s) for s in args.scales.split(",") if s.strip()]
    rounds = 3 if args.quick else args.rounds
    only = {name.strip() for name in args.only.split(",") if name.strip()}

    def wanted(name: str) -> bool:
        return not only or name in only

    for figure, run_figure in FIGURES.items():
        if not wanted(figure):
            continue
        path = args.out_dir / f"BENCH_{figure}.json"
        path.write_text(sweep_to_json(run_figure(tuple(scales))) + "\n")
        print(f"wrote {path}")

    if wanted("qs6"):
        artifact = qs6_sweep([1] if args.quick else scales, rounds)
        path = args.out_dir / "BENCH_qs6.json"
        path.write_text(json.dumps(artifact, indent=2) + "\n")
        print(f"wrote {path}")

    if wanted("difftest"):
        seeds = DIFFTEST_SEEDS[:2] if args.quick else DIFFTEST_SEEDS
        count = 30 if args.quick else DIFFTEST_COUNT
        artifact = difftest_sweep(seeds, count)
        path = args.out_dir / "BENCH_difftest.json"
        path.write_text(json.dumps(artifact, indent=2) + "\n")
        print(f"wrote {path}")

    if wanted("server"):
        artifact = server_sweep(args.quick)
        path = args.out_dir / "BENCH_server.json"
        path.write_text(json.dumps(artifact, indent=2) + "\n")
        print(f"wrote {path}")

    if wanted("partitioned"):
        path = args.out_dir / "BENCH_partitioned.json"
        path.write_text(partitioned_to_json(run_partitioned_sweep()) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
