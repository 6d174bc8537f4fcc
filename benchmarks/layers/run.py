#!/usr/bin/env python3
"""The repo's benchmark: four workloads, end to end and layer by layer.

    python3 benchmarks/layers/run.py --seed 11           # everything
    python3 benchmarks/layers/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/layers/run.py --list
    python3 benchmarks/layers/run.py --compare A.json B.json

With ``--workload`` one workload runs in this process and the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without it every workload runs in
its own subprocess, untraced then traced, and ``results/latest.json`` +
``results/latest-trace.json`` are written.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

#: set-ups per untraced run (``setup_s`` is their median)
SETUPS = 3
#: back-to-back sets per run; the best one is reported
SETS = 3
#: the tail percentile of ``*_pass_ms_p90`` (pooled over the sets)
TAIL = 90.0
#: traced passes per mapping, at least
TRACED_PASSES = 10
#: leading traced passes per mapping whose spans are written out
DUMPED_PASSES = 2


def benchmark_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def import_program() -> None:
    """Put the checkout's ``src`` (the program under test) on the path."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure: {source}/repro is missing")
    sys.path.insert(0, str(source))


def workload_classes() -> dict:
    from load_workload import LoadDurable
    from read_workloads import PathAdhoc, ShakespeareWire, SigmodInproc

    classes = (ShakespeareWire, SigmodInproc, PathAdhoc, LoadDurable)
    return {cls.name: cls for cls in classes}


def machine_facts() -> dict:
    from repro.engine.plan_cache import DEFAULT_CAPACITY
    from repro.engine.wal import DEFAULT_GROUP_WINDOW
    from repro.xadt.decode_cache import DECODE_CACHE

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "plan_cache_entries": DEFAULT_CAPACITY,
        "xadt_decode_cache_bytes": DECODE_CACHE.budget_bytes,
        "wal_sync_mode": "group",
        "wal_group_window_seconds": DEFAULT_GROUP_WINDOW,
        "load": "closed loop, one process",
    }


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def run_untraced(workload_cls, seed: int, seconds: float) -> dict:
    import common

    setups, raw_setups = [], []
    attempted = failed = 0
    spin_before = common.calibrate()
    for index in range(SETUPS):
        workload = workload_cls()
        started = time.perf_counter()
        workload.setup(seed)
        raw_setups.append(time.perf_counter() - started)
        # scaled to the nominal machine, like every other timing
        spin_after = common.calibrate()
        setups.append(raw_setups[-1] * common.NOMINAL_SPIN_SECONDS
                      / ((spin_before + spin_after) / 2))
        spin_before = spin_after
        attempted += workload.setup_attempted
        failed += workload.setup_failed
        if index + 1 < SETUPS:
            workload.teardown()
    try:
        sets = common.run_sets(workload, seconds, SETS)
        metrics, facts = common.summarize(sets, TAIL)
        checked, wrong = workload.verify()
    finally:
        workload.teardown()
    attempted += sum(s.operations for s in sets) + checked
    failed += sum(s.failed for s in sets) + wrong
    metrics["setup_s"] = median(setups)
    facts["setup_s.raw"] = raw_setups
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    for name in common.MAPPINGS:
        db = workload.dbs[name]
        metrics[f"{name}_stored_per_xml_byte"] = (
            db.data_size_bytes() + db.index_size_bytes()
        ) / workload.corpus.xml_bytes
    facts["corpus"] = corpus_facts(workload)
    oracles = getattr(workload, "oracles", {})
    facts["oracles"] = oracles
    # what expected.json holds for the default seed (see README)
    facts["digests_without_sqlite"] = {
        name: {key: workload.answers[name][key].digest
               for key, oracle in by_key.items() if oracle != "sqlite"}
        for name, by_key in oracles.items()
    }
    return {"attempted": attempted, "failed": failed,
            "metrics": metrics, "facts": facts}


def corpus_facts(workload) -> dict:
    corpus = workload.corpus
    return {
        "dataset": corpus.dataset, "scale": corpus.scale,
        "documents": len(corpus.documents), "xml_bytes": corpus.xml_bytes,
        "operations_per_pass": workload.operations,
    }


def run_traced(workload_cls, seed: int, seconds: float) -> dict:
    import common
    import probes
    from load_workload import crash_leg
    from spans import SpanRecorder

    from repro.xadt.decode_cache import DECODE_CACHE

    mappings = common.MAPPINGS
    workload = workload_cls()
    workload.setup(seed)
    metrics: dict[str, float] = {}
    try:
        # untraced reference passes, one client: like for like with the
        # traced passes, which run on this thread
        for db in workload.dbs.values():
            db.plan_cache.stats.reset()
        DECODE_CACHE.stats.reset()
        with common.GcWatch() as collector:
            reference = common.run_sets(workload, seconds * 0.3, SETS)
        passes = sum(len(s.pass_seconds[m]) for s in reference for m in mappings)
        metrics["runtime.gc_pause_ms_per_pass"] = collector.pause_seconds * 1e3 / passes
        metrics["runtime.gc_gen2_collections"] = collector.gen2
        reports = [db.plan_cache.report() for db in workload.dbs.values()]
        lookups = sum(r["hits"] + r["misses"] for r in reports)
        metrics["engine.plan_cache.hit_rate"] = (
            sum(r["hits"] for r in reports) / lookups if lookups else 0.0
        )
        metrics["engine.plan_cache.evictions"] = sum(r["evictions"] for r in reports)
        metrics["xadt.decode_cache.hit_rate"] = DECODE_CACHE.stats.hit_rate
        for name in mappings:
            for slot in range(workload.slots):
                pooled = [v for s in reference for v in s.slot_seconds[name][slot]]
                metrics[f"workloads.q{slot + 1}.{name}_ms_p50"] = median(pooled) * 1e3

        rec = SpanRecorder()
        deadline = time.perf_counter() + seconds * 0.3
        done = 0
        # scaled like the reference passes, so the two compare
        factors = {name: [] for name in mappings}
        spin_before = common.spin_seconds()
        while done < TRACED_PASSES or time.perf_counter() < deadline:
            for name in mappings:
                workload.traced_pass(name, rec)
                spin_after = common.spin_seconds()
                factors[name].append(
                    common.NOMINAL_SPIN_SECONDS / ((spin_before + spin_after) / 2)
                )
                spin_before = spin_after
            done += 1
            if done == DUMPED_PASSES:
                dumped = len(rec.spans)  # only these are written out
        # every trace is rooted in a span that names its mapping
        mapping_of = {
            s["trace"]: s["attrs"]["mapping"] for s in rec.spans if s["parent"] is None
        }
        for name in mappings:
            spans = [s for s in rec.spans if mapping_of[s["trace"]] == name]
            metrics.update(trace_metrics(name, spans, factors[name], reference))

        RESULTS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="probe-", dir=RESULTS) as work:
            metrics.update(probes.front_end(workload))
            metrics.update(probes.server(workload))
            metrics.update(probes.executor_counts(workload))
            metrics.update(probes.xadt(workload))
            metrics.update(probes.ingest(workload, work))
            # workloads that never write still report the crash leg's
            # count, run on their own corpus
            crash = getattr(workload, "crash", None) or crash_leg(
                workload.corpus, os.path.join(work, "crash.wal")
            )
        metrics["engine.recovery.dropped_transactions"] = crash["dropped_transactions"]
        facts = {"corpus": corpus_facts(workload), "crash_leg": crash,
                 "traced_passes_per_mapping": done}
    finally:
        workload.teardown()
    rec.dump(
        str(RESULTS / f"latest-{workload.name}.spans.json"), count=dumped,
        workload=workload.name, seed=seed,
    )
    failed = sum(s.failed for s in reference) + (not crash["acknowledged_survived"])
    attempted = sum(s.operations for s in reference) + 1
    return {"attempted": attempted, "failed": failed,
            "metrics": metrics, "facts": facts}


def trace_metrics(
    name: str, spans: list[dict], factors: list[float], reference
) -> dict:
    """What one mapping's traced passes say about the layers."""
    import common
    import stats

    out: dict[str, float] = {}
    traced = common.pass_seconds(spans)
    untraced = [v for s in reference for v in s.pass_seconds[name]]
    out[f"trace.overhead_share.{name}"] = (
        median(t * f for t, f in zip(traced, factors)) / median(untraced) - 1.0
    )
    layers = common.layer_seconds(common.pass_spans(spans))
    wall = sum(traced)
    out[f"trace.coverage.{name}"] = sum(layers.values()) / wall

    def share(*prefixes: str) -> float:
        return sum(
            seconds for layer, seconds in layers.items()
            if layer.startswith(prefixes)
        ) / wall

    out[f"trace.share.server.{name}"] = share("server.")
    out[f"trace.share.frontend.{name}"] = share(
        "xquery.", "engine.sql", "engine.plan"
    )
    out[f"trace.share.exec.{name}"] = share("engine.exec.")
    out[f"trace.share.xadt.{name}"] = share("xadt", "engine.udf")
    out[f"trace.share.ingest.{name}"] = share(
        "xmlkit.", "shred", "engine.storage", "engine.index",
        "engine.statistics", "engine.wal", "engine.recovery",
    )
    # executor: every traced statement, pass or check
    own = stats.self_times(spans)
    roots = sum(1 for s in spans if s["name"] in ("pass", "check"))
    groups = {"scan": 0.0, "join": 0.0, "lateral": 0.0, "other": 0.0}
    examined = returned = marshal_calls = 0
    marshal_seconds = 0.0
    for span in spans:
        layer = common.layer_of(span["name"]) or ""
        if layer.startswith("engine.exec."):
            groups[layer.rsplit(".", 1)[1]] += own[span["id"]]
            attrs = span.get("attrs", {})
            if attrs.get("leaf"):
                examined += attrs["rows"]
            if attrs.get("depth") == 0:
                returned += attrs["rows"]
        elif layer == "engine.udf":
            marshal_seconds += span["end"] - span["start"]
            marshal_calls += span["attrs"]["calls"]
    total = sum(groups.values())
    out[f"engine.exec.self_ms.{name}"] = total * 1e3 / roots
    for group, seconds in groups.items():
        out[f"engine.exec.{group}_share.{name}"] = seconds / total if total else 0.0
    out[f"engine.exec.rows_examined_per_row_returned.{name}"] = (
        examined / returned if returned else 0.0
    )
    if name == "xorator":
        out["engine.udf.marshal_us_per_call"] = (
            marshal_seconds * 1e6 / marshal_calls if marshal_calls else 0.0
        )
    out[f"trace.layers.{name}"] = {  # kept in the result file, not a metric
        layer: seconds / wall for layer, seconds in sorted(layers.items())
    }
    return out


def run_single(args) -> int:
    import_program()
    contract = benchmark_contract()
    classes = workload_classes()
    if args.workload not in classes:
        sys.exit(f"run.py: unknown workload {args.workload!r}; try --list")
    section = "per_layer" if args.trace else "end_to_end"
    runner = run_traced if args.trace else run_untraced
    result = runner(classes[args.workload], args.seed, args.seconds)
    units = {m["name"]: m["unit"] for m in contract[section]}
    extras = {k: v for k, v in result["metrics"].items() if k not in units}
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        sys.exit(f"run.py: metrics not measured: {missing}")
    metrics = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    correct = result["failed"] == 0
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": metrics, "extras": extras,
        "facts": {**result["facts"], "machine": machine_facts()},
    }
    path = RESULTS / f"latest-{args.workload}.trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    for name, entry in metrics.items():
        note = result["facts"].get(f"{name}.noise")
        noise = f"  noise {note:.3f}" if note is not None else ""
        print(f"{args.workload:18} {name:48} {entry['value']:14.6g} {entry['unit']}{noise}")
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# every workload, one subprocess each
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    contract = benchmark_contract()
    names = [w["name"] for w in contract["workloads"]]
    runs = []
    for index in range(args.runs):
        seed = args.seed + index
        for name in names:
            for trace in (0, 1):
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ]
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                if done.returncode != 0:
                    sys.exit(f"run.py: {name} --trace {trace} exited {done.returncode}")
                sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
                with open(RESULTS / f"latest-{name}.trace{trace}.json",
                          encoding="utf-8") as handle:
                    runs.append(json.load(handle))
    merged = {"seed": args.seed, "seconds": args.seconds, "runs": args.runs,
              "claim": None, "workloads": {}}
    for record in runs:
        entry = merged["workloads"].setdefault(
            record["workload"],
            {"end_to_end": {}, "per_layer": {}, "facts": {}, "layers": {},
             "correct": True, "attempted": 0, "failed": 0},
        )
        section = entry["per_layer" if record["trace"] else "end_to_end"]
        for metric, value in record["metrics"].items():
            section.setdefault(metric, {"unit": value["unit"], "values": []})
            section[metric]["values"].append(value["value"])
        entry["correct"] = entry["correct"] and record["correct"]
        entry["attempted"] += record["attempted"]
        entry["failed"] += record["failed"]
        entry["facts"].update(
            (key, value) for key, value in record["facts"].items()
            if not key.endswith(".per_set")  # every pass: per-run files only
        )
        for key, value in record["extras"].items():
            if key.startswith("trace.layers."):
                entry["layers"][key.rsplit(".", 1)[1]] = value
    with open(RESULTS / "latest.json", "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=1)
        handle.write("\n")
    traces = {}
    for name in names:
        with open(RESULTS / f"latest-{name}.spans.json", encoding="utf-8") as handle:
            traces[name] = json.load(handle)
    with open(RESULTS / "latest-trace.json", "w", encoding="utf-8") as handle:
        json.dump(traces, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {RESULTS / 'latest.json'} and {RESULTS / 'latest-trace.json'}")
    return 0 if all(w["correct"] for w in merged["workloads"].values()) else 1


# ---------------------------------------------------------------------------
# --list and --compare
# ---------------------------------------------------------------------------


def list_metrics() -> int:
    contract = benchmark_contract()
    for workload in contract["workloads"]:
        print(f"workload   {workload['name']:20} {workload['why']}")
    for metric in contract["end_to_end"]:
        print(f"end_to_end {metric['name']:48} {metric['unit']:8} "
              f"{metric['better']:6} bound {metric['bound']}")
    for metric in contract["per_layer"]:
        print(f"per_layer  {metric['name']:48} {metric['unit']:8} {metric['better']}")
    return 0


def compare(path_a: str, path_b: str) -> int:
    """Before/after table: one block per workload, one row per metric."""
    import stats

    contract = benchmark_contract()
    with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
        before, after = json.load(a), json.load(b)
    worse_anywhere = False
    for workload in contract["workloads"]:
        name = workload["name"]
        print(f"\n{name}")
        print(f"  {'metric':30} {'A':>12} {'B':>12} {'B/A':>16} "
              f"{'bound':>6} {'spread':>7}  verdict")
        for metric in contract["end_to_end"]:
            a_values = before["workloads"][name]["end_to_end"][metric["name"]]["values"]
            b_values = after["workloads"][name]["end_to_end"][metric["name"]]["values"]
            base, new = median(a_values), median(b_values)
            lower = metric["better"] == "lower"
            worse_by = (new - base) / base if lower else (base - new) / base
            spread = max(
                (stats.spread(v) for v in (a_values, b_values) if len(v) >= 2),
                default=0.0,
            )
            if spread > metric["bound"]:
                clear = (max(b_values) < min(a_values) if lower
                         else min(b_values) > max(a_values))
                verdict = "ok" if clear else "unresolved"
            else:
                verdict = "worse" if worse_by > metric["bound"] else "ok"
            worse_anywhere = worse_anywhere or verdict == "worse"
            print(f"  {metric['name']:30} {base:12.5g} {new:12.5g} "
                  f"{new / base:8.3f}x of A {metric['bound']:6.3f} "
                  f"{spread:7.3f}  {verdict}")
    return 1 if worse_anywhere else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="without --workload: repeat with seed, seed+1, ...")
    parser.add_argument("--list", action="store_true",
                        help="workloads and metrics with units and bounds")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.list:
        return list_metrics()
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = float(benchmark_contract()["run_seconds"])
    if args.workload:
        return run_single(args)
    import_program()
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
