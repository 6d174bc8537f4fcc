"""The write workload: durable load, recovery, and a crash leg."""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time

import common
import stats
from common import MAPPINGS, UdfTimer, Workload, traced_execute
from read_workloads import verify_answers
from spans import SpanRecorder

from repro import xmlkit
from repro.engine.database import Database
from repro.shred import (
    Shredder,
    canonicalize,
    create_tables,
    decide_codecs,
    load_documents,
    reconstruct_documents,
)
from repro.xadt import register_xadt_functions

#: scratch files live inside the checkout (and are removed at teardown)
WORK_ROOT = common.HERE / "results"


def durable_load(corpus, mapping: str, path: str) -> tuple[Database, float]:
    """The full ingest path into a WAL-backed database, closed again:
    parse, pick codecs, shred + insert, index advice, runstats, close.
    ``Database.open`` keeps its shipped default, ``sync_mode="group"``."""
    schema = corpus.schemas[mapping]
    started = time.perf_counter()
    documents = [xmlkit.parse(text) for text in corpus.xml_texts]
    codecs = {}
    if mapping == "xorator":
        codecs = decide_codecs(schema, documents[:common.codec_samples(corpus)])
    db = Database.open(path, name=mapping)
    register_xadt_functions(db)
    load_documents(db, schema, documents, codecs)
    db.apply_index_advice(corpus.advisor_sql[mapping])
    db.runstats()
    db.close()
    return db, time.perf_counter() - started


def crash_leg(corpus, path: str) -> dict:
    """Load half the corpus, crash, recover from the bytes on disk.

    ``wal.flush(sync=True)`` returning is the acknowledgement; every
    document acknowledged before the crash must be in the recovered
    database, whatever happened to the ones after it.  The crash lands
    mid-document, so exactly one transaction has no commit record.
    """
    schema = corpus.schemas["hybrid"]
    half = max(len(corpus.documents) // 2, 2)
    flush_after = random.Random(corpus.seed).randrange(half - 1)
    db = Database.open(path, name="crash")
    create_tables(db, schema)
    shredder = Shredder(schema)
    acknowledged: list[str] = []
    for index, document in enumerate(corpus.documents[:half]):
        with db.transaction(marker=f"doc:{index}"):
            for table, rows in shredder.shred(document).items():
                if rows:
                    db.bulk_insert(table, rows)
        if index == flush_after:
            db.wal.flush(sync=True)
            acknowledged = [f"doc:{i}" for i in range(index + 1)]
    db.wal.begin(marker=f"doc:{half}")
    for table, rows in shredder.shred(corpus.documents[half]).items():
        if rows:
            db.wal.log_bulk_insert(table, rows)
    db.wal.flush(sync=False)
    db.wal.abandon()
    copy = path + ".copy"
    shutil.copyfile(path, copy)
    recovered = Database.open(copy, name="crash", recover=True)
    report = recovered.recovery_report
    recovered.close()
    os.remove(path)
    os.remove(copy)
    return {
        "documents": half,
        "acknowledged": len(acknowledged),
        "recovered_markers": len(report.markers),
        "dropped_transactions": report.transactions_dropped,
        "acknowledged_survived": all(
            report.has_marker(marker) for marker in acknowledged
        ),
    }


class LoadDurable(Workload):
    """parse -> codecs -> shred -> WAL-backed insert -> index -> runstats
    -> close, then recovery from the log, on both mappings."""

    name = "load_durable"
    scale = 2
    #: one load, one recovery, QS1-QS6 on the recovered database
    operations = 8
    block = 1

    def setup(self, seed: int) -> None:
        # the volatile twin every recovered database must equal
        self.build("shakespeare", self.scale, seed)
        self.answer_paper_statements()
        WORK_ROOT.mkdir(exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="wal-", dir=WORK_ROOT)
        self.files = 0
        for name in MAPPINGS:
            self.run_pass(name)
        self.crash = crash_leg(self.corpus, self.new_path())
        self.setup_attempted = 1
        self.setup_failed = int(not self.crash["acknowledged_survived"])

    def teardown(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def new_path(self) -> str:
        self.files += 1
        return os.path.join(self.work, f"{self.files}.wal")

    def run_pass(self, mapping):
        path = self.new_path()
        _db, load_seconds = durable_load(self.corpus, mapping, path)
        started = time.perf_counter()
        recovered = Database.open(path, name=mapping, recover=True)
        recover_seconds = time.perf_counter() - started
        # untimed: the recovered database must answer like the twin
        failed = int(recovered.row_count() != self.dbs[mapping].row_count())
        register_xadt_functions(recovered)
        slots = []
        for key, sql in self.statements[mapping]:
            before = time.perf_counter()
            count = len(recovered.execute(sql))
            slots.append(time.perf_counter() - before)
            failed += count != self.answers[mapping][key].rows
        recovered.close()
        os.remove(path)
        return load_seconds + recover_seconds, slots, failed

    # -- the same load, stage by stage ---------------------------------------

    def traced_pass(self, mapping: str, rec: SpanRecorder) -> None:
        corpus = self.corpus
        schema = corpus.schemas[mapping]
        path = self.new_path()
        rec.new_trace()
        with rec.span("pass", workload=self.name, mapping=mapping):
            with rec.span("xmlkit.parse"):
                documents = [xmlkit.parse(text) for text in corpus.xml_texts]
            codecs = {}
            if mapping == "xorator":
                with rec.span("xadt.codec.choose"):
                    codecs = decide_codecs(
                        schema, documents[:common.codec_samples(corpus)]
                    )
            with rec.span("engine.storage"):
                db = Database.open(path, name=mapping)
                register_xadt_functions(db)
                create_tables(db, schema)
            shredder = Shredder(schema, codecs)
            for index, document in enumerate(documents):
                with rec.span("shred"):
                    rows = shredder.shred(document)
                # inserts and their WAL records are one call from outside
                with rec.span("engine.storage"):
                    with db.transaction(marker=f"doc:{index}"):
                        for table, table_rows in rows.items():
                            if table_rows:
                                db.bulk_insert(table, table_rows)
            with rec.span("engine.index"):
                db.apply_index_advice(corpus.advisor_sql[mapping])
            with rec.span("engine.statistics"):
                db.runstats()
            with rec.span("engine.wal"):
                db.close()
            with rec.span("engine.recovery"):
                recovered = Database.open(path, name=mapping, recover=True)
        # outside the pass, as in run_pass: the check queries, traced so
        # the executor metrics exist for this workload too
        register_xadt_functions(recovered)
        udf = UdfTimer(recovered)
        udf.install()
        rec.new_trace()
        try:
            with rec.span("check", workload=self.name, mapping=mapping):
                for key, sql in self.statements[mapping]:
                    with rec.span("query", key=key):
                        traced_execute(recovered, sql, rec, udf)
        finally:
            udf.remove()
        recovered.close()
        os.remove(path)

    def verify(self) -> tuple[int, int]:
        """The twin against its oracle, then a recovered database against
        the twin: QS digests and the reconstruct round trip on four
        sampled plays per mapping."""
        attempted, failed = verify_answers(self)
        picks = random.Random(self.corpus.seed).sample(
            range(len(self.corpus.documents)), 4
        )
        for mapping in MAPPINGS:
            path = self.new_path()
            durable_load(self.corpus, mapping, path)
            recovered = Database.open(path, name=mapping, recover=True)
            register_xadt_functions(recovered)
            for key, sql in self.statements[mapping]:
                attempted += 1
                digest = stats.digest(recovered.execute(sql).rows)
                failed += digest != self.answers[mapping][key].digest
            rebuilt = reconstruct_documents(recovered, self.corpus.schemas[mapping])
            for pick in picks:
                attempted += 1
                original = canonicalize(self.corpus.documents[pick], self.corpus.sdtd)
                failed += xmlkit.serialize(original) != xmlkit.serialize(rebuilt[pick])
            recovered.close()
        return attempted, failed
