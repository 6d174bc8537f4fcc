"""Benchmark harness: building database pairs and timing cold runs.

A *cold run* resets the engine's counters, executes the query, and
prices what the engine counted — pages read and work done — with the
constants of :mod:`repro.engine.io`: the paper's "cold numbers"
methodology on the simulated 2002 machine (DESIGN.md §2).  Loading time
is priced the same way from the load's counted work plus the sequential
write cost of the data and index pages produced.  Both are pure
functions of (data, plan); host wall time is recorded beside them and
never enters them.

A *warm run* (:func:`warm_query`) is the complementary repeated-query
methodology: the statement is prepared once and re-executed through the
plan cache, so per-execution cost excludes the SQL front end — the
regime DB2's package cache serves and the one the prepared-statement
layer exists to speed up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.datagen.plays import PlaysConfig, generate_corpus as generate_plays
from repro.datagen.shakespeare import (
    ShakespeareConfig,
    generate_corpus as generate_shakespeare,
)
from repro.datagen.sigmod import SigmodConfig, generate_corpus as generate_sigmod
from repro.dtd import samples
from repro.engine.database import Database
from repro.engine.io import (
    LOAD_WORK_SECONDS,
    SEQUENTIAL_PAGE_SECONDS,
    work_seconds,
)
from repro.engine.pages import PAGE_SIZE
from repro.errors import BenchmarkError
from repro.mapping import map_hybrid, map_xorator
from repro.mapping.base import MappedSchema
from repro.shred import decide_codecs, load_documents
from repro.obs.trace import TRACER
from repro.workloads import shakespeare_queries, sigmod_queries
from repro.xadt import register_xadt_functions
from repro.xmlkit.dom import Document


@dataclass(frozen=True)
class ColdRun:
    """One cold execution of a query."""

    rows: int
    #: host wall seconds of this execution: recorded, never modeled
    wall_seconds: float
    sequential_pages: int
    random_pages: int
    spill_pages: int
    #: counted work x pinned constants
    cpu_seconds: float
    disk_seconds: float
    #: the counted work behind ``cpu_seconds`` (``IoCounters.work``)
    work: dict[str, int] = field(default_factory=dict)
    #: per-phase wall seconds (parse/plan/execute) from the query tracer
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def modeled_seconds(self) -> float:
        """Modeled CPU plus modeled disk time — the reported metric."""
        return self.cpu_seconds + self.disk_seconds

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form, for benchmark artifacts."""
        return {
            "rows": self.rows,
            "modeled_seconds": self.modeled_seconds,
            "cpu_seconds": self.cpu_seconds,
            "disk_seconds": self.disk_seconds,
            "sequential_pages": self.sequential_pages,
            "random_pages": self.random_pages,
            "spill_pages": self.spill_pages,
            "work": dict(self.work),
            "wall_seconds": self.wall_seconds,
            "phase_seconds": dict(self.phase_seconds),
        }


def cold_query(db: Database, sql: str) -> ColdRun:
    """Execute ``sql`` cold and capture the counters plus host timing.

    The run executes under the query tracer, so the returned
    ``phase_seconds`` carries the parse/plan/execute breakdown — the
    benchmark artifacts report *where* the host spent its time beside
    what the simulated machine is charged.
    """
    db.io.reset()
    with TRACER.capture() as capture:
        started = time.perf_counter()
        result = db.execute(sql)
        wall = time.perf_counter() - started
    phases = capture.phase_seconds()
    phases.pop("query", None)  # the envelope span duplicates the total
    io = db.io
    return ColdRun(
        rows=len(result),
        wall_seconds=wall,
        sequential_pages=io.sequential_pages,
        random_pages=io.random_pages,
        spill_pages=io.spill_pages,
        cpu_seconds=io.cpu_seconds(),
        disk_seconds=io.disk_seconds(),
        work=dict(io.work),
        phase_seconds=phases,
    )


@dataclass(frozen=True)
class WarmRun:
    """Repeated warm executions of one statement (prepared path)."""

    rows: int                        #: row count of the last execution
    executions: int
    total_wall_seconds: float
    plan_cache: dict[str, object]    #: plan-cache counters after the run


def warm_query(
    db: Database,
    sql: str,
    executions: int = 100,
    params: tuple = (),
) -> WarmRun:
    """Prepare ``sql`` once and execute it ``executions`` times.

    The first execution plans and caches; the rest hit the plan cache,
    so the reported per-execution time is the steady-state warm cost.
    Plan-cache counters are reset first so the returned snapshot
    describes this run alone.
    """
    if executions < 1:
        raise BenchmarkError("warm_query needs at least one execution")
    prepared = db.prepare(sql)
    db.plan_cache.stats.reset()
    started = time.perf_counter()
    for _ in range(executions):
        result = prepared.execute(*params)
    total = time.perf_counter() - started
    return WarmRun(
        rows=len(result),
        executions=executions,
        total_wall_seconds=total,
        plan_cache=db.plan_cache.report(),
    )


@dataclass
class LoadedDatabase:
    """One algorithm's database, loaded and index-advised."""

    algorithm: str
    db: Database
    schema: MappedSchema
    documents: int
    #: host wall seconds of the preparation: recorded, never modeled
    load_wall_seconds: float
    index_ddl: list[str] = field(default_factory=list)
    codecs: dict[str, str] = field(default_factory=dict)
    #: counted work of the preparation (``LoadReport.work``)
    load_work: dict[str, int] = field(default_factory=dict)

    def load_to_dict(self) -> dict[str, Any]:
        """The load priced for the simulated machine, for benchmark
        artifacts.  Disk: every inserted byte is written twice (WAL
        record + data page, as DB2 logs inserts) and every index page
        once, sequentially."""
        written_pages = (
            2 * self.db.data_size_bytes() + self.db.index_size_bytes()
        ) // PAGE_SIZE
        cpu = work_seconds(self.load_work, LOAD_WORK_SECONDS)
        disk = written_pages * SEQUENTIAL_PAGE_SECONDS
        return {
            "modeled_seconds": cpu + disk,
            "cpu_seconds": cpu,
            "disk_seconds": disk,
            "work": dict(self.load_work),
            "wall_seconds": self.load_wall_seconds,
        }

    @property
    def load_modeled_seconds(self) -> float:
        """The loading bar of Figures 11 and 13."""
        return self.load_to_dict()["modeled_seconds"]

    def size_report(self) -> dict[str, object]:
        return self.db.size_report()


def build_database(
    algorithm: str,
    schema: MappedSchema,
    documents: list[Document],
    workload: list[str],
    sample_for_codecs: int = 0,
) -> LoadedDatabase:
    """Create, load, advise indexes, and runstats one database.

    The load covers shredding + insertion + index builds + runstats —
    the paper's full database-preparation path (its loading experiment
    compares ready-to-query databases) — both in the wall time recorded
    and in the work counted.
    """
    db = Database(algorithm)
    register_xadt_functions(db)
    codecs: dict[str, str] = {}
    if sample_for_codecs:
        codecs = decide_codecs(schema, documents[:sample_for_codecs])
    started = time.perf_counter()
    report = load_documents(db, schema, documents, codecs)
    ddl = db.apply_index_advice(workload)
    db.runstats()
    prepared_seconds = time.perf_counter() - started
    report.work["index_entries"] = sum(
        index.entry_count() for index in db.engine.indexes().values()
    )
    report.work["rows_sampled"] = db.row_count()
    return LoadedDatabase(
        algorithm=algorithm,
        db=db,
        schema=schema,
        documents=report.documents,
        load_wall_seconds=prepared_seconds,
        index_ddl=ddl,
        codecs=codecs,
        load_work=report.work,
    )


@dataclass
class DatasetPair:
    """Hybrid and XORator databases over the same corpus."""

    dataset: str
    scale: int
    hybrid: LoadedDatabase
    xorator: LoadedDatabase

    def side(self, algorithm: str) -> LoadedDatabase:
        if algorithm == "hybrid":
            return self.hybrid
        if algorithm == "xorator":
            return self.xorator
        raise BenchmarkError(f"unknown algorithm {algorithm!r}")


#: base corpus configurations (DSx1); scale multiplies document counts.
#: Sized so the memory:data ratio of the simulated machine matches the
#: paper's regimes (see repro.engine.io) — Shakespeare starts beyond the
#: join-memory wall, SIGMOD crosses it between DSx2 and DSx4.
BASE_SHAKESPEARE = ShakespeareConfig(plays=6)
BASE_SIGMOD = SigmodConfig(documents=12)
BASE_PLAYS = PlaysConfig(plays=3)


def build_pair(dataset: str, scale: int = 1) -> DatasetPair:
    """Generate the corpus at ``scale`` and load both databases."""
    if scale < 1:
        raise BenchmarkError("scale must be >= 1")
    if dataset == "shakespeare":
        documents = generate_shakespeare(BASE_SHAKESPEARE.scaled(scale))
        simplified = samples.shakespeare_simplified()
        hybrid_sql = shakespeare_queries.workload_sql("hybrid")
        xorator_sql = shakespeare_queries.workload_sql("xorator")
        codec_samples = min(4, len(documents))
    elif dataset == "sigmod":
        documents = generate_sigmod(BASE_SIGMOD.scaled(scale))
        simplified = samples.sigmod_simplified()
        hybrid_sql = sigmod_queries.workload_sql("hybrid")
        xorator_sql = sigmod_queries.workload_sql("xorator")
        codec_samples = min(4, len(documents))
    elif dataset == "plays":
        config = PlaysConfig(plays=BASE_PLAYS.plays * scale)
        documents = generate_plays(config)
        simplified = samples.plays_simplified()
        from repro.workloads.shakespeare_queries import PLAYS_QUERIES

        hybrid_sql = [q.hybrid_sql for q in PLAYS_QUERIES]
        xorator_sql = [q.xorator_sql for q in PLAYS_QUERIES]
        codec_samples = min(2, len(documents))
    else:
        raise BenchmarkError(f"unknown dataset {dataset!r}")

    hybrid = build_database(
        "hybrid", map_hybrid(simplified), documents, hybrid_sql
    )
    xorator = build_database(
        "xorator", map_xorator(simplified), documents, xorator_sql,
        sample_for_codecs=codec_samples,
    )
    return DatasetPair(dataset, scale, hybrid, xorator)
