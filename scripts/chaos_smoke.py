"""CI chaos smoke: crash the engine at WAL sites, recover, check parity.

For each of three named write-path fault sites (``wal.append``,
``heap.store_row``, ``index.publish``) this script

1. starts a WAL-backed database (``sync_mode="always"``) and bulk-loads
   a small Shakespeare XORator corpus with one marked transaction per
   document;
2. kills the engine mid-load with a seeded
   :class:`~repro.engine.faults.FaultPlan` crash (the in-memory state is
   abandoned, exactly like ``kill -9``);
3. recovers with ``Database.open(path, recover=True)``, resumes the
   interrupted load from the recovery markers, and
4. asserts the Figure 11 query results are identical to an
   uninterrupted reference load.

Then it cuts the WAL mid-line (a torn tail, once inside a multibyte
character), crashes an ``indexed`` WAL load at ``xadt.index_build`` (a
directory build) and drops server connections, each checked against the
same reference.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py

Exits nonzero (via assertion) on any parity mismatch.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.datagen.shakespeare import (  # noqa: E402
    ShakespeareConfig,
    generate_corpus,
)
from repro.dtd import samples  # noqa: E402
from repro.engine.database import Database  # noqa: E402
from repro.engine.faults import FAULTS, FaultPlan  # noqa: E402
from repro.errors import CrashPoint  # noqa: E402
from repro.mapping import map_xorator  # noqa: E402
from repro.shred import Shredder, decide_codecs, load_documents  # noqa: E402
from repro.workloads.shakespeare_queries import workload_sql  # noqa: E402
from repro.xadt import register_xadt_functions  # noqa: E402
from repro.xadt.decode_cache import DECODE_CACHE  # noqa: E402
from repro.xmlkit import Text, parse, serialize  # noqa: E402

#: (site, 1-based hit at which the process "dies") — hits are chosen to
#: land mid-load: after some documents committed, before the last one
CRASH_POINTS = [
    ("wal.append", 20),      # inside doc:0's bulk-insert records
    ("heap.store_row", 120),  # mid-batch of doc:1's rows
    ("index.publish", 9),     # doc:1's publish, after its commit fsync
]


def canonical(result):
    """Result rows with XADT cells rendered as text, for comparison."""
    return [
        tuple(
            cell.to_xml() if getattr(cell, "__xadt__", False) else cell
            for cell in row
        )
        for row in result.rows
    ]


def fingerprint(db, queries):
    return [canonical(db.execute(sql)) for sql in queries]


def main() -> None:
    documents = generate_corpus(ShakespeareConfig(plays=2))
    schema = map_xorator(samples.shakespeare_simplified())
    codecs = decide_codecs(schema, documents[:1])
    queries = workload_sql("xorator")

    reference = Database("reference")
    register_xadt_functions(reference)
    load_documents(reference, schema, documents, codecs)
    reference.runstats()
    expected = fingerprint(reference, queries)
    assert any(rows for rows in expected), "reference workload returned nothing"

    for site, hit in CRASH_POINTS:
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "wal.jsonl")
            db = Database.open(path, sync_mode="always")
            register_xadt_functions(db)
            FAULTS.install(FaultPlan(seed=hit).crash_at(site, hit=hit))
            crashed = False
            try:
                load_documents(db, schema, documents, codecs)
            except CrashPoint:
                crashed = True
            finally:
                FAULTS.clear()
            assert crashed, f"{site}: the crash plan never fired (hit={hit})"
            db.wal.abandon()

            recovered = Database.open(path, recover=True)
            register_xadt_functions(recovered)
            report = recovered.recovery_report
            load_documents(
                recovered, schema, documents, codecs,
                resume_markers=report.markers,
            )
            recovered.runstats()
            actual = fingerprint(recovered, queries)
            assert actual == expected, f"{site}: query mismatch after recovery"
            recovered.close()
            print(
                f"ok {site:16} crash at hit {hit}: "
                f"{len(report.markers)} committed document txn(s), "
                f"{report.records_replayed} records replayed, "
                f"torn_tail={report.torn_tail}, Fig11 parity holds"
            )

    torn_tail_stage(schema, documents, codecs, queries, expected)
    directory_stage(schema, documents, queries, expected)
    server_stage(schema, documents, codecs, queries, expected)

    print(
        f"chaos smoke passed: {len(CRASH_POINTS) + 3} fault sites survived"
    )


def torn_tail_stage(schema, documents, codecs, queries, expected) -> None:
    """Cut the XORator WAL mid-line, recover, resume, recover again.

    ``doc:0`` commits, then the write of ``doc:1`` is cut off mid-line:
    once inside a packed ``bulk_insert`` record, once between the two
    bytes of an ``é`` (that write logs single-row inserts, which travel
    as JSON text, of a copy of the document with the character added).
    Recovery must report the torn tail and keep ``doc:0`` only; the load
    resumed from its markers commits the rest, and a second recovery
    must read those commits back — they start a line of their own, not
    the torn one — and answer the Figure 11 queries like the reference.
    """
    for case in ("mid-line", "multibyte"):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "wal.jsonl")
            db = Database.open(path, sync_mode="always")
            register_xadt_functions(db)
            load_documents(db, schema, documents[:1], codecs)
            pending = Shredder(schema, codecs)
            pending.shred(documents[0])
            document = documents[1]
            if case == "multibyte":
                document = parse(serialize(document))
                next(document.root.iter("LINE")).append(Text(" é"))
            db.wal.begin(marker="doc:1")
            for table, rows in pending.shred(document).items():
                if case == "multibyte":
                    for row in rows:
                        db.wal.log_insert(table, row)
                elif rows:
                    db.wal.log_bulk_insert(table, rows)
            db.wal.flush(sync=True)
            db.wal.abandon()  # the crash: doc:1 never committed

            data = Path(path).read_bytes()
            if case == "multibyte":
                cut = data.rindex("é".encode()) + 1
            else:
                start = data.rindex(b"\n", 0, len(data) - 1) + 1
                cut = (start + len(data)) // 2
            Path(path).write_bytes(data[:cut])

            recovered = Database.open(path, recover=True)
            register_xadt_functions(recovered)
            report = recovered.recovery_report
            assert report.torn_tail, f"torn tail ({case}): not detected"
            assert report.markers == ["doc:0"], f"torn tail ({case}): {report.markers}"
            load_documents(
                recovered, schema, documents, codecs,
                resume_markers=report.markers,
            )
            recovered.close()

            again = Database.open(path, recover=True)
            register_xadt_functions(again)
            again.runstats()
            second = again.recovery_report
            assert not second.torn_tail, f"torn tail ({case}): resumed log is torn"
            assert len(second.markers) == len(documents), (
                f"torn tail ({case}): commits after recovery lost: {second.markers}"
            )
            actual = fingerprint(again, queries)
            assert actual == expected, f"torn tail ({case}): query mismatch"
            again.close()
            print(
                f"ok wal torn tail    cut {case} at byte {cut}: recovered "
                f"{len(report.markers)} txn(s), resumed, "
                f"{len(second.markers)} committed after a second recovery, "
                f"Fig11 parity holds"
            )


def directory_stage(schema, documents, queries, expected) -> None:
    """Crash mid directory build during an ``indexed`` load, recover,
    check byte parity.

    With every XADT column ``indexed``, the load prices each stored
    fragment's directory, building it through the ``xadt.index_build``
    fault site.  A crash there interrupts the load: after WAL recovery
    and a resumed load, the Figure 11 queries — answered from the
    directories — must return **byte-identical** results to the
    scan-codec reference fingerprint.
    """
    site, hit = "xadt.index_build", 150  # in doc:1, after doc:0 committed
    indexed = {
        f"{table.name}.{column.name}": "indexed"
        for table in schema.tables
        for column in table.xadt_columns()
    }
    DECODE_CACHE.clear()  # every directory is built, none is remembered
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "wal.jsonl")
        db = Database.open(path, sync_mode="always")
        register_xadt_functions(db)
        FAULTS.install(FaultPlan(seed=hit).crash_at(site, hit=hit))
        crashed = False
        try:
            load_documents(db, schema, documents, indexed)
        except CrashPoint:
            crashed = True
        finally:
            FAULTS.clear()
        assert crashed, f"{site}: the crash plan never fired (hit={hit})"
        db.wal.abandon()

        recovered = Database.open(path, recover=True)
        register_xadt_functions(recovered)
        report = recovered.recovery_report
        load_documents(
            recovered, schema, documents, indexed,
            resume_markers=report.markers,
        )
        recovered.runstats()
        actual = fingerprint(recovered, queries)
        directories = sum(
            cell._directory is not None
            for heap in recovered.engine.heaps().values()
            for row in heap.scan()
            for cell in row
            if getattr(cell, "__xadt__", False) and cell.codec == "indexed"
        )
        assert directories > 0, f"{site}: no indexed fragment after recovery"
        assert actual == expected, f"{site}: query mismatch after recovery"
        recovered.close()
        print(
            f"ok {site:16} crash at hit {hit} mid-load: "
            f"{len(report.markers)} committed document txn(s), "
            f"{report.records_replayed} records replayed, {directories} "
            f"stored directories, results byte-identical to the scan-codec "
            f"reference"
        )


def server_stage(schema, documents, codecs, queries, expected) -> None:
    """Fig11 parity over the wire while connections are chaos-dropped.

    The whole workload runs through the network front-end
    (DESIGN.md §14) under a fault plan that drops ``server.read`` and
    ``server.write`` mid-frame.  The retrying client
    must recover every query, the wire results must be byte-identical
    to the in-process reference fingerprint, and a graceful stop must
    leave zero pooled sessions and an empty connection registry.
    """
    from repro.server import ReproClient, RetryPolicy, start_server_thread
    from repro.server.registry import CONNECTIONS

    db = Database("served-chaos")
    register_xadt_functions(db)
    load_documents(db, schema, documents, codecs)
    db.runstats()
    handle = start_server_thread(db)
    client = ReproClient(
        handle.host, handle.port,
        client_name="chaos", retry=RetryPolicy(attempts=8, seed=13),
    )
    client.connect()  # handshake before the chaos starts
    FAULTS.install(
        FaultPlan(seed=13)
        .raise_at("server.read", probability=0.15)
        .raise_at("server.write", probability=0.1)
    )
    try:
        # one frame per result: a fetch cursor dies with its dropped
        # connection, so paging would not survive this fault plan
        actual = [
            [tuple(row) for row in client.execute(sql, fetch_size=10**6).rows]
            for sql in queries
        ]
    finally:
        FAULTS.clear()
    recovered = client.reconnects + client.retries
    client.close()
    assert actual == expected, "server.*: wire results diverge from reference"
    handle.stop()
    assert len(CONNECTIONS) == 0, "server.*: connection registry leaked"
    assert all(s.name != "pool" for s in db.sessions()), (
        "server.*: pooled sessions leaked past drain"
    )
    db.close()
    print(
        f"ok server.*         read/write chaos: recovered "
        f"{recovered} drop(s)/retries, wire results byte-identical, "
        f"drained leak-free"
    )


if __name__ == "__main__":
    main()
