"""Direct-call layer probes: one layer at a time, on the workload's inputs.

Each probe times calls into one module's public functions, on the
statements, fragments, response messages and documents of the workload
being traced, and reports the median call (or a rate over the batch).
They complement the traced passes: a span says what share of a pass a
layer took, a probe says what one call into it costs.
"""

from __future__ import annotations

import os
import time
from statistics import median

import common
from common import MAPPINGS
from load_workload import durable_load

from repro import xmlkit
from repro.engine.database import Database
from repro.engine.expr import ParamBox
from repro.engine.plan.optimizer import plan_select
from repro.engine.sql.ast import count_parameters
from repro.engine.sql.parser import parse_sql
from repro.mapping import map_hybrid, map_xorator
from repro.server import ReproClient, start_server_thread
from repro.server.admission import AdmissionController
from repro.server.pool import SessionPool
from repro.server.protocol import decode_body, encode_frame, jsonable_rows
from repro.shred import Shredder, create_tables, load_documents
from repro.xadt import (
    find_key_in_elm,
    get_elm,
    get_elm_index,
    register_xadt_functions,
    unnest,
)
from repro.xadt import compress, fastscan
from repro.xadt.storage import text_to_events
from repro.xquery import compile_path, parse_path

MIN_CALLS = 200


def median_us(function, inputs: list, calls: int = MIN_CALLS) -> float:
    """Median microseconds of ``calls`` single calls, cycling ``inputs``."""
    perf = time.perf_counter
    seconds = []
    for index in range(max(calls, len(inputs))):
        item = inputs[index % len(inputs)]
        started = perf()
        function(item)
        seconds.append(perf() - started)
    return median(seconds) * 1e6


def timed(function) -> float:
    started = time.perf_counter()
    function()
    return time.perf_counter() - started


def megabytes(texts) -> float:
    return sum(len(text.encode("utf-8")) for text in texts) / 1e6


# ---------------------------------------------------------------------------


def front_end(workload) -> dict[str, float]:
    """repro.engine.sql / .plan / repro.xquery, one statement at a time."""
    out: dict[str, float] = {}
    statements = {name: workload.probe_statements(name) for name in MAPPINGS}
    out["engine.sql.parse_us_per_stmt"] = median_us(
        parse_sql, statements["hybrid"] + statements["xorator"]
    )
    for name in MAPPINGS:
        db = workload.dbs[name]
        parsed = [parse_sql(sql) for sql in statements[name]]
        out[f"engine.plan.plan_us_per_stmt.{name}"] = median_us(
            lambda stmt: plan_select(stmt, db, ParamBox(count_parameters(stmt))),
            parsed,
        )
    paths = workload.probe_paths()
    out["xquery.parse_us_per_path"] = median_us(parse_path, paths)
    queries = [parse_path(path) for path in paths]
    pairs = [(q, workload.corpus.schemas[name]) for q in queries for name in MAPPINGS]
    out["xquery.compile_us_per_path"] = median_us(
        lambda pair: compile_path(*pair), pairs
    )
    out["xquery.sql_chars_per_path"] = sum(
        len(compile_path(*pair).sql) for pair in pairs
    ) / len(pairs)
    return out


def server(workload) -> dict[str, float]:
    """repro.server: the wire around a pass, and its parts alone."""
    out: dict[str, float] = {}
    own = getattr(workload, "servers", None)
    servers = own or {
        name: start_server_thread(workload.dbs[name]) for name in MAPPINGS
    }
    overheads = []
    messages: list[dict] = []
    try:
        for name in MAPPINGS:
            statements = workload.probe_statements(name)
            session = workload.dbs[name].connect(auto_refresh=False)
            with ReproClient(servers[name].host, servers[name].port,
                             client_name="probe") as client:
                def over_wire():
                    for sql in statements:
                        client.execute(sql)

                def in_process():
                    for sql in statements:
                        session.execute(sql)

                over_wire(), in_process()  # both plan caches warm
                # paired, so a slow moment of the machine lands on both
                overheads.append(median(
                    timed(over_wire) - timed(in_process) for _ in range(7)
                ) * 1e3)
                for sql in statements:
                    result = session.execute(sql)
                    messages.extend(common.response_messages(
                        list(result.columns), jsonable_rows(result.rows)
                    ))
            session.close()
        out["server.wire_overhead_ms_per_pass"] = sum(overheads) / len(overheads)
        out["server.admission.shed"] = sum(
            handle.server.admission.report()["shed"] for handle in servers.values()
        )
        out["server.pool.sessions_created"] = sum(
            handle.server.pool.report()["size"] for handle in servers.values()
        )
    finally:
        if not own:
            for handle in servers.values():
                handle.stop()
    frames = [encode_frame(message) for message in messages]
    wire_mb = sum(len(frame) for frame in frames) / 1e6
    out["server.protocol.response_bytes_per_pass"] = wire_mb * 1e6 / len(MAPPINGS)
    rounds = 5
    out["server.protocol.encode_mb_per_s"] = wire_mb * rounds / timed(
        lambda: [encode_frame(m) for _ in range(rounds) for m in messages]
    )
    out["server.protocol.decode_mb_per_s"] = wire_mb * rounds / timed(
        lambda: [decode_body(f[4:]) for _ in range(rounds) for f in frames]
    )

    admission = AdmissionController(8, 32)

    def admission_cycle(_):
        admission.admit()
        admission.started()
        admission.finished()

    out["server.admission.cycle_us"] = median_us(admission_cycle, [None], 2000)
    pool = SessionPool(workload.dbs["hybrid"])
    try:
        out["server.pool.cycle_us"] = median_us(
            lambda _: pool.release(pool.acquire("probe")), [None], 2000
        )
    finally:
        pool.close()
    return out


def executor_counts(workload) -> dict[str, float]:
    """Exact counts of one pass: logical pages and UDF invocations."""
    out: dict[str, float] = {}
    for name in MAPPINGS:
        db = workload.dbs[name]
        db.io.reset()
        db.registry.stats.reset()
        for sql in workload.probe_statements(name):
            db.execute(sql)  # the default session charges the shared counters
        out[f"engine.io.pages_per_pass.{name}"] = (
            db.io.sequential_pages + db.io.random_pages
        )
        if name == "xorator":
            out["engine.udf.calls_per_pass"] = db.registry.stats.total_udf_calls()
    return out


def xadt(workload) -> dict[str, float]:
    """repro.xadt on fragments read back from the loaded XORator columns."""
    out: dict[str, float] = {}
    loaded = workload.loaded["xorator"]
    tag, fragments = _largest_xadt_column(loaded)
    out["xadt.dict_coded_columns"] = sum(
        codec == "dict" for codec in loaded.codecs.values()
    )
    out["xadt.fragment_bytes_p50"] = median(
        len(fragment.to_xml().encode("utf-8")) for fragment in fragments
    )
    sample = fragments[:MIN_CALLS]
    texts = [fragment.to_xml() for fragment in sample]
    key = fastscan.text_of(texts[0]).split()[0]
    out["xadt.get_elm_us_per_call"] = median_us(
        lambda f: get_elm(f, tag, "", ""), sample
    )
    out["xadt.find_key_in_elm_us_per_call"] = median_us(
        lambda f: find_key_in_elm(f, tag, key), sample
    )
    out["xadt.get_elm_index_us_per_call"] = median_us(
        lambda f: get_elm_index(f, "", tag, 1, 1), sample
    )
    out["xadt.unnest_us_per_call"] = median_us(
        lambda f: list(unnest(f, tag)), sample
    )
    rounds = 20
    out["xadt.scan_mb_per_s"] = megabytes(texts) * rounds / timed(
        lambda: [list(fastscan.find_spans(t, tag)) for _ in range(rounds) for t in texts]
    )
    events = [list(text_to_events(text)) for text in texts]
    out["xadt.codec.encode_mb_per_s"] = megabytes(texts) / timed(
        lambda: [compress.encode_events(e) for e in events]
    )
    payloads = [compress.encode_events(e) for e in events]
    out["xadt.codec.decode_mb_per_s"] = megabytes(texts) / timed(
        lambda: [list(compress.decode_events(p)) for p in payloads]
    )
    return out


def _largest_xadt_column(loaded):
    """``(element tag, fragments)`` of the XADT column holding the most
    bytes."""
    best = ("", [])
    best_bytes = -1
    db = loaded.db
    for table in loaded.schema.tables:
        rows = None
        for position, column in enumerate(table.columns):
            if column.kind.name != "XADT":
                continue
            if rows is None:
                rows = list(db.heap(table.name).scan())
            fragments = [row[position] for row in rows if row[position] is not None]
            size = sum(fragment.byte_size() for fragment in fragments)
            if size > best_bytes:
                best_bytes = size
                best = (column.path[-1], fragments)
    return best


def ingest(workload, work_dir: str) -> dict[str, float]:
    """xmlkit, mapping, shred, storage, index, statistics, WAL, recovery,
    on the workload's own corpus."""
    out: dict[str, float] = {}
    corpus = workload.corpus
    xml_mb = corpus.xml_bytes / 1e6
    rounds = 3
    out["xmlkit.parse_mb_per_s"] = xml_mb / median(
        timed(lambda: [xmlkit.parse(t) for t in corpus.xml_texts])
        for _ in range(rounds)
    )
    out["xmlkit.serialize_mb_per_s"] = xml_mb / median(
        timed(lambda: [xmlkit.serialize(d) for d in corpus.documents])
        for _ in range(rounds)
    )
    out["mapping.map_ms"] = median(
        timed(lambda: (map_hybrid(corpus.sdtd), map_xorator(corpus.sdtd)))
        for _ in range(20)
    ) * 1e3
    index_seconds = stats_seconds = 0.0
    load_seconds = {name: [] for name in MAPPINGS}
    recover_seconds: list[float] = []
    ratios: list[float] = []
    wal_bytes = records = fsyncs = replayed = 0
    for name in MAPPINGS:
        schema = corpus.schemas[name]
        codecs = workload.loaded[name].codecs
        out[f"mapping.tables.{name}"] = len(schema.tables)
        shredder = Shredder(schema, codecs)
        shredded: list[dict] = []
        seconds = timed(
            lambda: shredded.extend(shredder.shred(d) for d in corpus.documents)
        )
        row_count = sum(len(rows) for doc in shredded for rows in doc.values())
        out[f"shred.rows_per_s.{name}"] = row_count / seconds
        out[f"shred.rows_per_doc.{name}"] = row_count / len(corpus.documents)

        db = Database(name)
        register_xadt_functions(db)
        create_tables(db, schema)
        by_table: dict[str, list] = {}
        for doc in shredded:
            for table, rows in doc.items():
                by_table.setdefault(table, []).extend(rows)
        seconds = timed(
            lambda: [db.bulk_insert(t, rows) for t, rows in by_table.items() if rows]
        )
        out[f"engine.storage.bulk_insert_rows_per_s.{name}"] = row_count / seconds
        index_seconds += timed(lambda: db.apply_index_advice(corpus.advisor_sql[name]))
        stats_seconds += timed(db.runstats)

        for round_ in range(rounds):
            path = os.path.join(work_dir, f"probe-{name}-{round_}.wal")
            # WAL cost: volatile and logged loads back to back, CPU
            # seconds, cleanest pair (bench_wal_overhead.py's statistic)
            volatile = _load_cpu(Database(name), schema, corpus, codecs)
            logged = Database.open(path, name=name)
            ratios.append(_load_cpu(logged, schema, corpus, codecs) / volatile)
            logged.close()
            durable_db, seconds = durable_load(corpus, name, path)
            load_seconds[name].append(seconds)
            if round_ == 0:
                report = durable_db.wal.report()
                wal_bytes += os.path.getsize(path)
                records += report["records"]
                fsyncs += report["fsyncs"]
            started = time.perf_counter()
            recovered = Database.open(path, name=name, recover=True)
            recover_seconds.append(time.perf_counter() - started)
            if round_ == 0:
                replayed += recovered.recovery_report.records_replayed
            recovered.close()
            os.remove(path)
        out[f"load.{name}_mb_per_s"] = xml_mb / median(load_seconds[name])
    out["engine.index.build_s"] = index_seconds
    out["engine.statistics.runstats_s"] = stats_seconds
    out["engine.wal.overhead_share"] = min(ratios) - 1.0
    out["engine.wal.records"] = records
    out["engine.wal.fsyncs"] = fsyncs
    out["load.wal_bytes_per_xml_byte"] = wal_bytes / (2 * corpus.xml_bytes)
    out["load.recover_mb_per_s"] = xml_mb / median(recover_seconds)
    out["engine.recovery.records_per_s"] = (
        replayed / len(MAPPINGS) / median(recover_seconds)
    )
    return out


def _load_cpu(db, schema, corpus, codecs) -> float:
    """CPU seconds of shredding and inserting ``corpus`` into ``db``."""
    register_xadt_functions(db)
    started = time.process_time()
    load_documents(db, schema, corpus.documents, codecs)
    return time.process_time() - started
