"""Experiment definitions: one function per paper table/figure.

Each function builds the needed databases, runs the workload cold, and
returns a structured result that :mod:`repro.bench.report` renders in
the paper's format.  DESIGN.md §4 maps each experiment to its table or
figure; EXPERIMENTS.md records a run's measured values against the
paper's.

The ``REPRO_SCALE`` environment variable multiplies every corpus size
(default 1); the figure sweeps use the paper's DSx1/x2/x4/x8 scales.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

from repro.bench.harness import (
    BASE_SHAKESPEARE,
    ColdRun,
    build_database,
    build_pair,
    cold_query,
)
from repro.bench.sizing import SizeComparison, compare_sizes
from repro.datagen.shakespeare import ShakespeareConfig, generate_corpus
from repro.datagen.sigmod import SigmodConfig
from repro.datagen.sigmod import generate_corpus as generate_sigmod_corpus
from repro.dtd import samples
from repro.errors import BenchmarkError
from repro.mapping import (
    map_basic,
    map_hybrid,
    map_shared,
    map_xorator,
    map_xorator_without_decoupling,
    monet_summary,
)
from repro.shred import decide_codecs, load_documents
from repro.workloads import (
    MICRO_QUERIES,
    SHAKESPEARE_QUERIES,
    SIGMOD_QUERIES,
    WorkloadQuery,
    shakespeare_queries,
)

PAPER_SCALES = (1, 2, 4, 8)


def env_scale() -> int:
    """Global corpus multiplier from REPRO_SCALE (default 1)."""
    return max(int(os.environ.get("REPRO_SCALE", "1")), 1)


# ---------------------------------------------------------------------------
# Tables 1 and 2
# ---------------------------------------------------------------------------


def run_table1(scale: int | None = None) -> SizeComparison:
    """Table 1: #tables / database size / index size, Shakespeare."""
    pair = build_pair("shakespeare", scale or env_scale())
    return compare_sizes(pair)


def run_table2(scale: int | None = None) -> SizeComparison:
    """Table 2: same comparison for the SIGMOD Proceedings data set."""
    pair = build_pair("sigmod", scale or env_scale())
    return compare_sizes(pair)


# ---------------------------------------------------------------------------
# Figures 11 and 13 (ratio sweeps)
# ---------------------------------------------------------------------------


@dataclass
class QueryRatio:
    """One bar of Figure 11/13: Hybrid/XORator modeled-time ratio."""

    key: str
    scale: int
    hybrid: ColdRun
    xorator: ColdRun

    @property
    def ratio(self) -> float:
        if self.xorator.modeled_seconds <= 0:
            return float("inf")
        return self.hybrid.modeled_seconds / self.xorator.modeled_seconds


@dataclass
class RatioSweep:
    """A figure's worth of ratios across scales."""

    dataset: str
    scales: tuple[int, ...]
    #: ratios[key][scale] -> QueryRatio
    ratios: dict[str, dict[int, QueryRatio]] = field(default_factory=dict)
    load_ratios: dict[int, float] = field(default_factory=dict)
    #: loads[scale][algorithm] -> ``LoadedDatabase.load_to_dict()``
    loads: dict[int, dict[str, dict]] = field(default_factory=dict)

    def ratio(self, key: str, scale: int) -> float:
        return self.ratios[key][scale].ratio


def run_ratio_sweep(
    dataset: str,
    queries: list[WorkloadQuery],
    scales: tuple[int, ...] = PAPER_SCALES,
) -> RatioSweep:
    """Run the Figure-11/13 experiment for ``dataset``.

    REPRO_SCALE multiplies each sweep point's corpus (the reported DSx
    labels stay the paper's 1/2/4/8).  Every cell is one execution: the
    modeled time is a function of (data, plan).
    """
    multiplier = env_scale()
    sweep = RatioSweep(dataset, tuple(scales))
    for scale in scales:
        pair = build_pair(dataset, scale * multiplier)
        sweep.load_ratios[scale] = (
            pair.hybrid.load_modeled_seconds / pair.xorator.load_modeled_seconds
        )
        sweep.loads[scale] = {
            side.algorithm: side.load_to_dict()
            for side in (pair.hybrid, pair.xorator)
        }
        for query in queries:
            hybrid_run = cold_query(pair.hybrid.db, query.hybrid_sql)
            xorator_run = cold_query(pair.xorator.db, query.xorator_sql)
            sweep.ratios.setdefault(query.key, {})[scale] = QueryRatio(
                query.key, scale, hybrid_run, xorator_run
            )
    return sweep


def run_fig11(scales: tuple[int, ...] = PAPER_SCALES) -> RatioSweep:
    """Figure 11: QS1-QS6 + loading, Shakespeare, DSx1-DSx8."""
    return run_ratio_sweep("shakespeare", SHAKESPEARE_QUERIES, scales)


def run_fig13(scales: tuple[int, ...] = PAPER_SCALES) -> RatioSweep:
    """Figure 13: QG1-QG6 + loading, SIGMOD Proceedings, DSx1-DSx8."""
    return run_ratio_sweep("sigmod", SIGMOD_QUERIES, scales)


# ---------------------------------------------------------------------------
# the partition-parallel Figure 11 sweep (DESIGN.md §12)
# ---------------------------------------------------------------------------


#: the partitioned gate's corpus scale and ``speech`` layout
PARTITIONED_SCALE = 16
PARTITIONED_PARTITIONS = 4


def run_partitioned_sweep(
    worker_counts: tuple[int, ...] = (1, 2, 4),
) -> dict[int, dict[str, ColdRun]]:
    """Cold runs of the Fig. 11 XORator queries by worker count: 0 is the
    serial baseline, the others run through the Exchange over ``speech``
    hash-partitioned ``PARTITIONED_PARTITIONS`` ways.  Every parallel run
    must return the serial run's rows exactly."""
    db = build_database(
        "xorator",
        map_xorator(samples.shakespeare_simplified()),
        generate_corpus(BASE_SHAKESPEARE.scaled(PARTITIONED_SCALE)),
        shakespeare_queries.workload_sql("xorator"),
        sample_for_codecs=4,
    ).db
    try:
        sqls = {q.key: q.xorator_sql for q in SHAKESPEARE_QUERIES}
        expected = {key: db.execute(sql).rows for key, sql in sqls.items()}
        runs = {0: {key: cold_query(db, sql) for key, sql in sqls.items()}}
        db.partition_table("speech", "speechID", PARTITIONED_PARTITIONS)
        for workers in worker_counts:
            db.set_exec_config(
                dataclasses.replace(db.exec_config, parallel_workers=workers)
            )
            for key, sql in sqls.items():
                if db.execute(sql).rows != expected[key]:
                    raise BenchmarkError(
                        f"{key} at {workers} worker(s) differs from serial"
                    )
            runs[workers] = {key: cold_query(db, sql) for key, sql in sqls.items()}
    finally:
        db.close()
    return runs


def partitioned_speedups(
    runs: dict[int, dict[str, ColdRun]], workers: int
) -> dict[str, float]:
    """Serial / parallel modeled seconds per query at ``workers``."""
    return {
        key: serial.modeled_seconds / runs[workers][key].modeled_seconds
        for key, serial in runs[0].items()
    }


# ---------------------------------------------------------------------------
# Figure 14 (UDF overhead)
# ---------------------------------------------------------------------------


@dataclass
class MicroResult:
    """QT1/QT2 modeled CPU seconds: built-in vs NOT FENCED vs FENCED UDF."""

    key: str
    builtin_seconds: float
    udf_seconds: float
    fenced_seconds: float

    @property
    def udf_overhead(self) -> float:
        """Fractional slowdown of the NOT FENCED UDF (paper: ~0.4)."""
        if self.builtin_seconds <= 0:
            return 0.0
        return self.udf_seconds / self.builtin_seconds - 1.0

    @property
    def fenced_overhead(self) -> float:
        if self.builtin_seconds <= 0:
            return 0.0
        return self.fenced_seconds / self.builtin_seconds - 1.0


def run_fig14(scale: int | None = None) -> list[MicroResult]:
    """Figure 14: UDF vs built-in cost over the speaker table.

    Same rows, same plan shape, one call per row: the three variants of
    a micro query differ only in which ``udf_calls_*`` counter the calls
    are charged to, so the modeled ``cpu_seconds`` of one cold execution
    each is the comparison — the same on every run.
    """
    db = build_pair("shakespeare", scale or env_scale()).hybrid.db
    return [
        MicroResult(
            micro.key,
            cold_query(db, micro.builtin_sql).cpu_seconds,
            cold_query(db, micro.udf_sql).cpu_seconds,
            cold_query(db, micro.fenced_sql).cpu_seconds,
        )
        for micro in MICRO_QUERIES
    ]


# ---------------------------------------------------------------------------
# §4.1 compression choice and §2 Monet claim
# ---------------------------------------------------------------------------


@dataclass
class CompressionChoice:
    """Which codec the transformer picks per data set (paper §4.1)."""

    dataset: str
    codecs: dict[str, str]
    plain_bytes: int
    dict_bytes: int

    @property
    def savings(self) -> float:
        if self.plain_bytes == 0:
            return 0.0
        return 1.0 - self.dict_bytes / self.plain_bytes


def run_compression_choice(scale: int | None = None) -> list[CompressionChoice]:
    """The codec decision for both data sets.

    Paper: compression rejected for Shakespeare (it would inflate the
    tiny fragments), chosen for SIGMOD (~38 % smaller).
    """
    scale = scale or env_scale()
    outcomes: list[CompressionChoice] = []
    for dataset in ("shakespeare", "sigmod"):
        simplified = (
            samples.shakespeare_simplified()
            if dataset == "shakespeare"
            else samples.sigmod_simplified()
        )
        schema = map_xorator(simplified)
        if dataset == "shakespeare":
            documents = generate_corpus(ShakespeareConfig(plays=4 * scale))
        else:
            documents = generate_sigmod_corpus(SigmodConfig(documents=8 * scale))
        codecs = decide_codecs(schema, documents[: min(4, len(documents))])

        from repro.engine.database import Database
        from repro.xadt import register_xadt_functions

        plain_db = Database("plain")
        register_xadt_functions(plain_db)
        load_documents(plain_db, schema, documents)
        chosen_db = Database("chosen")
        register_xadt_functions(chosen_db)
        # reuse a fresh schema object: table names collide otherwise? no,
        # separate Database instances have separate catalogs
        load_documents(chosen_db, schema, documents, codecs)
        outcomes.append(
            CompressionChoice(
                dataset,
                codecs,
                plain_db.data_size_bytes(),
                chosen_db.data_size_bytes(),
            )
        )
    return outcomes


@dataclass
class TableCountComparison:
    """§2's table-count claims across all mapping schemes."""

    dataset: str
    xorator: int
    hybrid: int
    shared: int
    basic: int
    monet: int


def run_table_counts() -> list[TableCountComparison]:
    """Table counts for every mapping over the paper's three DTDs."""
    rows: list[TableCountComparison] = []
    for dataset, simplified in (
        ("plays", samples.plays_simplified()),
        ("shakespeare", samples.shakespeare_simplified()),
        ("sigmod", samples.sigmod_simplified()),
    ):
        rows.append(
            TableCountComparison(
                dataset,
                xorator=map_xorator(simplified).table_count(),
                hybrid=map_hybrid(simplified).table_count(),
                shared=map_shared(simplified).table_count(),
                basic=map_basic(simplified).table_count(),
                monet=monet_summary(simplified).table_count,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# ablations (DESIGN.md §5)
# ---------------------------------------------------------------------------


@dataclass
class DecoupleAblation:
    """XORator with vs. without the revised-graph leaf duplication."""

    dataset: str
    with_decoupling_tables: int
    without_decoupling_tables: int
    with_db_bytes: int
    without_db_bytes: int


def run_ablation_decouple(scale: int | None = None) -> DecoupleAblation:
    """§3.2 ablation on the Shakespeare corpus."""
    scale = scale or env_scale()
    simplified = samples.shakespeare_simplified()
    documents = generate_corpus(ShakespeareConfig(plays=4 * scale))
    with_schema = map_xorator(simplified)
    without_schema = map_xorator_without_decoupling(simplified)

    from repro.engine.database import Database
    from repro.xadt import register_xadt_functions

    with_db = Database("with")
    register_xadt_functions(with_db)
    load_documents(with_db, with_schema, documents)
    without_db = Database("without")
    register_xadt_functions(without_db)
    load_documents(without_db, without_schema, documents)
    return DecoupleAblation(
        "shakespeare",
        with_decoupling_tables=with_schema.table_count(),
        without_decoupling_tables=without_schema.table_count(),
        with_db_bytes=with_db.data_size_bytes(),
        without_db_bytes=without_db.data_size_bytes(),
    )


@dataclass
class GrowthPoint:
    scale: int
    hybrid_seconds: float
    xorator_seconds: float


def run_ablation_join_growth(
    scales: tuple[int, ...] = (1, 2, 4, 8),
    query_key: str = "QG2",
) -> list[GrowthPoint]:
    """§4.4's growth-rate argument: scan O(n) vs joins beyond memory."""
    from repro.workloads import find_query

    query = find_query(SIGMOD_QUERIES, query_key)
    points: list[GrowthPoint] = []
    for scale in scales:
        pair = build_pair("sigmod", scale)
        hybrid_run = cold_query(pair.hybrid.db, query.hybrid_sql)
        xorator_run = cold_query(pair.xorator.db, query.xorator_sql)
        points.append(
            GrowthPoint(
                scale, hybrid_run.modeled_seconds, xorator_run.modeled_seconds
            )
        )
    return points


@dataclass
class InliningAblation:
    """Structural comparison of the inlining family (plus XORator)."""

    algorithm: str
    tables: int
    database_bytes: int
    rows: int
    #: relations on the PLAY -> ... -> SPEAKER path (joins = relations - 1)
    path_relations: int


#: the QS4/QS5 access path through the Shakespeare DTD
_SPEAKER_PATH = ("PLAY", "ACT", "SCENE", "SPEECH", "SPEAKER")


def run_ablation_inlining(scale: int | None = None) -> list[InliningAblation]:
    """Compare Basic / Shared / Hybrid / XORator structurally.

    The Hybrid SQL workload cannot run verbatim on Basic/Shared (columns
    Hybrid inlines become separate relations there), so the comparison
    is structural: schema size, loaded database size, and how many
    relations a canonical path query must join — the quantity the paper
    argues drives query cost.
    """
    scale = scale or env_scale()
    simplified = samples.shakespeare_simplified()
    documents = generate_corpus(ShakespeareConfig(plays=4 * scale))
    results: list[InliningAblation] = []
    for name, mapper in (
        ("xorator", map_xorator),
        ("hybrid", map_hybrid),
        ("shared", map_shared),
        ("basic", map_basic),
    ):
        schema = mapper(simplified)

        from repro.engine.database import Database
        from repro.xadt import register_xadt_functions

        db = Database(name)
        register_xadt_functions(db)
        load_documents(db, schema, documents)
        path_relations = sum(
            1
            for element in _SPEAKER_PATH
            if schema.table_for_element(element) is not None
        )
        results.append(
            InliningAblation(
                name,
                schema.table_count(),
                db.data_size_bytes(),
                db.row_count(),
                path_relations,
            )
        )
    return results
