"""Shared machinery of the layered benchmark.

* seeded corpora and database pairs, built through the package's public
  loaders (never ``build_pair``, which pins its own seeds);
* the oracle check (native vs. the SQLite backend, committed digests
  where SQLite cannot follow);
* the measurement protocol: back-to-back sets, mappings alternating in
  blocks inside a set, timings scaled by an interleaved calibration
  loop, best set reported beside its noise;
* the traced statement: the stages ``Session.execute`` runs, performed by
  hand through public functions so each can be a span.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import stats
from spans import SpanRecorder

from repro import xmlkit
from repro.bench.harness import (
    BASE_SHAKESPEARE,
    BASE_SIGMOD,
    LoadedDatabase,
    build_database,
)
from repro.datagen.shakespeare import generate_corpus as generate_shakespeare
from repro.datagen.sigmod import generate_corpus as generate_sigmod
from repro.dtd import samples
from repro.engine.expr import ParamBox
from repro.engine.plan.optimizer import plan_select
from repro.engine.plan.physical import Operator
from repro.engine.plan_cache import CachedPlan, normalize_sql
from repro.engine.sql.ast import count_parameters
from repro.engine.sql.parser import parse_sql
from repro.errors import BackendUnsupported
from repro.mapping import map_hybrid, map_xorator
from repro.obs.explain import attach_stats, detach_stats
from repro.server.protocol import DEFAULT_FETCH_SIZE
from repro.workloads import shakespeare_queries, sigmod_queries
from repro.xadt.structural_index import statement_routing

HERE = Path(__file__).resolve().parent
MAPPINGS = ("hybrid", "xorator")
MAPPERS = {"hybrid": map_hybrid, "xorator": map_xorator}
DEFAULT_SEED = 11

#: the XADT methods ``register_xadt_functions`` installs (scalar, table)
XADT_SCALARS = ("getElm", "findKeyInElm", "getElmIndex", "elmText", "elmEquals")
XADT_TABLES = ("unnest",)

#: physical operator class -> the layer its self time is reported under
OPERATOR_GROUPS = {
    "SeqScan": "scan",
    "IndexScan": "scan",
    "HashJoin": "join",
    "NestedLoopJoin": "join",
    "IndexNestedLoopJoin": "join",
    "LateralFunctionScan": "lateral",
}

#: path expressions tests/xquery/test_compilers.py holds to ground truth
PROBE_PATHS = {
    "shakespeare": [
        "/PLAY/TITLE",
        "/PLAY/ACT/SCENE/TITLE",
        "/PLAY/ACT/SCENE/SPEECH/SPEAKER",
        "/PLAY/ACT[1]/SCENE[position()=2]/TITLE",
        "/PLAY[contains(TITLE, 'Romeo')]/ACT/SCENE/TITLE",
        "/PLAY/ACT/SCENE[SPEECH/SPEAKER]/TITLE",
        "/PLAY//SCNDESCR",
        "/PLAY/PERSONAE/PGROUP/GRPDESCR",
        "/PLAY/ACT/SCENE/SPEECH/LINE[2]",
        "/PLAY/ACT/SCENE/SPEECH/LINE[STAGEDIR]",
    ],
    "sigmod": [
        "/PP/volume",
        "/PP/sList/sListTuple/sectionName",
        "/PP/sList/sListTuple/articles/aTuple/title[contains(., 'Join')]",
        "/PP//author[position()=2]",
        "/PP/sList/sListTuple[articles/aTuple/authors/author]/sectionName",
    ],
}

#: dataset -> (base config, generator, simplified DTD, paper workload
#: module, its query list)
_DATASETS = {
    "shakespeare": (
        BASE_SHAKESPEARE, generate_shakespeare, samples.shakespeare_simplified,
        shakespeare_queries, shakespeare_queries.SHAKESPEARE_QUERIES,
    ),
    "sigmod": (
        BASE_SIGMOD, generate_sigmod, samples.sigmod_simplified,
        sigmod_queries, sigmod_queries.SIGMOD_QUERIES,
    ),
}


# ---------------------------------------------------------------------------
# corpora and databases
# ---------------------------------------------------------------------------


@dataclass
class Corpus:
    """One seeded document set and everything derived from its DTD."""

    dataset: str
    scale: int
    seed: int
    documents: list
    xml_texts: list[str]
    xml_bytes: int
    sdtd: object
    schemas: dict[str, object]
    #: per mapping, the paper workload's SQL (input of the index advisor)
    advisor_sql: dict[str, list[str]]
    queries: list


def make_corpus(dataset: str, scale: int, seed: int) -> Corpus:
    base, generate, simplified, queries, query_list = _DATASETS[dataset]
    documents = generate(dataclasses.replace(base.scaled(scale), seed=seed))
    sdtd = simplified()
    xml_texts = [xmlkit.serialize(document) for document in documents]
    return Corpus(
        dataset=dataset,
        scale=scale,
        seed=seed,
        documents=documents,
        xml_texts=xml_texts,
        xml_bytes=sum(len(text.encode("utf-8")) for text in xml_texts),
        sdtd=sdtd,
        schemas={name: mapper(sdtd) for name, mapper in MAPPERS.items()},
        advisor_sql={name: queries.workload_sql(name) for name in MAPPINGS},
        queries=list(query_list),
    )


def codec_samples(corpus: Corpus) -> int:
    """Documents ``decide_codecs`` samples (as ``build_pair`` does)."""
    return min(4, len(corpus.documents))


def build_databases(corpus: Corpus) -> dict[str, LoadedDatabase]:
    """Both mappings' volatile databases over ``corpus``."""
    return {
        name: build_database(
            name,
            corpus.schemas[name],
            corpus.documents,
            corpus.advisor_sql[name],
            sample_for_codecs=codec_samples(corpus) if name == "xorator" else 0,
        )
        for name in MAPPINGS
    }


def paper_statements(corpus: Corpus, mapping: str) -> list[tuple[str, str]]:
    """``(key, sql)`` of the corpus' paper workload on one mapping."""
    return [(query.key, query.sql_for(mapping)) for query in corpus.queries]


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


@dataclass
class Answer:
    """What the native engine returned for one statement at set-up."""

    digest: str
    rows: int


def native_answers(db, statements: list[tuple[str, str]]) -> dict[str, Answer]:
    """Each statement's result digest and row count (what every timed
    execution is then checked against)."""
    out: dict[str, Answer] = {}
    for key, sql in statements:
        rows = db.execute(sql).rows
        out[key] = Answer(stats.digest(rows), len(rows))
    return out


def oracle_check(
    db,
    statements: list[tuple[str, str]],
    answers: dict[str, Answer],
    expected: dict[str, str],
) -> tuple[int, int, dict[str, str]]:
    """``(attempted, failed, oracle used per statement)``.

    The oracle is the SQLite backend (``repro.difftest``'s canonical
    rows on both sides).  Where it cannot translate a statement (lateral
    table functions) the committed digest for the default seed stands
    in; for any other seed there is nothing independent to compare with
    and the statement is only held to its own set-up answer.
    """
    failed = 0
    oracles: dict[str, str] = {}
    for key, sql in statements:
        try:
            twin = db.execute(sql, backend="sqlite")
        except BackendUnsupported:
            if key in expected:
                oracles[key] = "expected"
                failed += expected[key] != answers[key].digest
            else:
                oracles[key] = "self"
        else:
            oracles[key] = "sqlite"
            failed += stats.digest(twin.rows) != answers[key].digest
    return len(statements), failed, oracles


# ---------------------------------------------------------------------------
# the measurement protocol
# ---------------------------------------------------------------------------


class Workload:
    """What the runner needs from one workload."""

    name = ""
    #: passes per mapping before the other mapping takes its turn
    block = 5
    #: operations one pass performs (what rates and failures count)
    operations = 6
    #: per-pass timing slots behind the ``workloads.q<N>`` metrics
    slots = 6
    #: set by ``setup``: ops checked there, and how many were wrong
    setup_attempted = 0
    setup_failed = 0

    def setup(self, seed: int) -> None:
        """Build inputs, databases and oracles; one warm-up pass each."""
        raise NotImplementedError

    def build(self, dataset: str, scale: int, seed: int) -> None:
        """The seeded corpus and both mappings' loaded databases."""
        self.corpus = make_corpus(dataset, scale, seed)
        self.loaded = build_databases(self.corpus)
        self.dbs = {name: self.loaded[name].db for name in MAPPINGS}

    def answer_paper_statements(self) -> None:
        """The corpus' QS/QG statements and their native answers."""
        self.statements = {
            name: paper_statements(self.corpus, name) for name in MAPPINGS
        }
        self.answers = {
            name: native_answers(self.dbs[name], self.statements[name])
            for name in MAPPINGS
        }

    def teardown(self) -> None:
        """Stop what ``setup`` started."""

    def run_pass(self, mapping: str) -> tuple[float, list[float], int]:
        """One untraced pass: its seconds, per-slot seconds, failed ops."""
        raise NotImplementedError

    def traced_pass(self, mapping: str, rec: SpanRecorder) -> None:
        """One pass with each stage performed by hand as a span."""
        raise NotImplementedError

    def verify(self) -> tuple[int, int]:
        """Post-run checks: ``(attempted, failed)``."""
        return 0, 0

    def probe_statements(self, mapping: str) -> list[str]:
        """The SQL of one representative pass (input of the layer probes)."""
        return [sql for _key, sql in self.statements[mapping]]

    def probe_paths(self) -> list[str]:
        """Path expressions valid for the corpus' DTD."""
        return PROBE_PATHS[self.corpus.dataset]


#: what the calibration loop takes on this kind of box when nothing else
#: runs; timings are scaled to that machine (see README)
NOMINAL_SPIN_SECONDS = 0.0055
_SPIN_ARITHMETIC = 50_000
_SPIN_WORDS = [
    f"<w k='{index}'><a>{index * 7}</a><b>text {index} more words here</b></w>"
    for index in range(4_000)
]


def spin_seconds() -> float:
    """One run of the calibration loop, about 5.5 ms of interpreter work.

    Half is integer arithmetic, half the kind of work the program does
    (substring search, slicing, dict counting, tuple building, a sort
    and a join).  When a neighbour slows the box the first half slows
    less than the program's passes and the second half more; scaled by
    both together a pass keeps its time (measured in README).  The
    collector is off for the length of the loop: its tuples would
    otherwise trigger collections over the program's heap, which say
    nothing about the machine.  They are freed on return; the pass
    after it owes at most one young-generation collection."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        value = 0
        for index in range(_SPIN_ARITHMETIC):
            value += index * index % 7
        counts: dict[str, int] = {}
        pieces = []
        for index in range(len(_SPIN_WORDS)):
            word = _SPIN_WORDS[index * 37 % len(_SPIN_WORDS)]
            opening = word.find("<a>")
            closing = word.find("</a>", opening)
            key = word[opening + 3:closing]
            counts[key] = counts.get(key, 0) + 1
            pieces.append((key, index, word[closing + 4:]))
        pieces.sort(key=lambda piece: piece[0])
        "".join(piece[0] for piece in pieces)
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def calibrate() -> float:
    """The machine's speed over a longer stretch: the mean of three
    spins (a median would discard the very slow moments the stretch
    beside it also ran through)."""
    return sum(spin_seconds() for _ in range(3)) / 3


@dataclass
class SetSamples:
    """What one set measured.  ``wall``, ``cpu`` and ``pass_seconds`` are
    scaled to the nominal machine; ``raw_pass_seconds`` is as clocked."""

    wall: float = 0.0
    cpu: float = 0.0
    operations: int = 0
    failed: int = 0
    pass_seconds: dict[str, list[float]] = field(
        default_factory=lambda: {name: [] for name in MAPPINGS}
    )
    raw_pass_seconds: dict[str, list[float]] = field(
        default_factory=lambda: {name: [] for name in MAPPINGS}
    )
    #: mapping -> slot -> seconds (scaled)
    slot_seconds: dict[str, list[list[float]]] = field(default_factory=dict)
    #: nominal / measured spin, one per pass
    speed_factors: list[float] = field(default_factory=list)


def run_sets(workload: Workload, seconds: float, sets: int) -> list[SetSamples]:
    """``sets`` back-to-back sets filling ``seconds`` between them.

    Inside a set the two mappings alternate in short blocks.  The box
    this runs on slows by 1.3-2x in bursts from under a second to
    minutes long (a neighbour on the host), so the calibration loop runs
    after every pass and each pass is scaled by ``nominal / measured``
    spin time, the mean of the spins on either side of it: what is
    reported is the time the work takes on the undisturbed machine.
    The spins themselves are outside every timed region.
    """
    out: list[SetSamples] = []
    for _ in range(sets):
        samples_ = SetSamples(
            slot_seconds={
                name: [[] for _ in range(workload.slots)] for name in MAPPINGS
            }
        )
        started = time.perf_counter()
        deadline = started + seconds / sets
        rounds = 0
        spin_before = spin_seconds()
        while True:
            rounds += 1
            for mapping in MAPPINGS:
                for _ in range(workload.block):
                    wall0, cpu0 = time.perf_counter(), time.process_time()
                    try:
                        elapsed, slots, failed = workload.run_pass(mapping)
                    except Exception as exc:  # noqa: BLE001 - a raised op is a failed op
                        print(f"pass raised on {mapping}: "
                              f"{type(exc).__name__}: {exc}", file=sys.stderr)
                        elapsed, slots, failed = 0.0, [], workload.operations
                    wall = time.perf_counter() - wall0
                    cpu = time.process_time() - cpu0
                    spin_after = spin_seconds()
                    factor = NOMINAL_SPIN_SECONDS / ((spin_before + spin_after) / 2)
                    spin_before = spin_after
                    samples_.speed_factors.append(factor)
                    samples_.wall += wall * factor
                    samples_.cpu += cpu * factor
                    samples_.operations += workload.operations
                    samples_.failed += failed
                    if not slots:
                        continue  # the pass raised: no timing to keep
                    samples_.raw_pass_seconds[mapping].append(elapsed)
                    samples_.pass_seconds[mapping].append(elapsed * factor)
                    for index, value in enumerate(slots):
                        samples_.slot_seconds[mapping][index].append(value * factor)
            # stop where another round would overshoot the set's share
            # of the time by more than stopping undershoots it
            now = time.perf_counter()
            if now + (now - started) / rounds / 2 >= deadline:
                break
        out.append(samples_)
    return out


def summarize(sets: list[SetSamples], tail: float) -> tuple[dict, dict]:
    """End-to-end timing metrics and their side facts (noise, counts)."""
    metrics: dict[str, float] = {}
    facts: dict[str, object] = {}
    for mapping in MAPPINGS:
        best, noise = stats.best_set(
            [stats.percentile(s.pass_seconds[mapping], 50) * 1e3 for s in sets]
        )
        metrics[f"{mapping}_pass_ms_p50"] = best
        facts[f"{mapping}_pass_ms_p50.noise"] = noise
        best, noise = stats.best_set(
            [stats.percentile(s.pass_seconds[mapping], tail) * 1e3 for s in sets]
        )
        metrics[f"{mapping}_pass_ms_p{tail:g}"] = best
        facts[f"{mapping}_pass_ms_p{tail:g}.noise"] = noise
        passes = sum(len(s.pass_seconds[mapping]) for s in sets)
        facts[f"{mapping}_passes"] = passes
        facts[f"{mapping}_supported_tail"] = stats.supported_percentile(passes)
    rate, noise = stats.best_set(
        [s.operations / s.wall for s in sets], better="higher"
    )
    metrics["queries_per_s"] = rate
    facts["queries_per_s.noise"] = noise
    cpu, noise = stats.best_set([s.cpu / s.operations * 1e3 for s in sets])
    metrics["cpu_ms_per_query"] = cpu
    facts["cpu_ms_per_query.noise"] = noise
    for mapping in MAPPINGS:
        raw = [value for s in sets for value in s.raw_pass_seconds[mapping]]
        facts[f"{mapping}_pass_ms_p50.raw"] = stats.percentile(raw, 50) * 1e3
        facts[f"{mapping}_pass_ms.per_set"] = [
            [round(value * 1e3, 3) for value in s.pass_seconds[mapping]]
            for s in sets
        ]
        facts[f"{mapping}_pass_ms_raw.per_set"] = [
            [round(value * 1e3, 3) for value in s.raw_pass_seconds[mapping]]
            for s in sets
        ]
    factors = [value for s in sets for value in s.speed_factors]
    facts["speed_factor.min_median_max"] = [
        min(factors), stats.percentile(factors, 50), max(factors)
    ]
    return metrics, facts


# ---------------------------------------------------------------------------
# traced execution
# ---------------------------------------------------------------------------


class UdfTimer:
    """Times the XADT methods of one database from outside.

    ``install`` swaps each registered function's body for a timing
    wrapper (and ``invoke`` for one that also covers argument
    marshalling); ``remove`` puts the originals back.  Which operator
    hosts a call is not visible from a wrapper, so ``locate_hosts`` runs
    the plan once more, walking the Python stack at every call to count
    calls per hosting operator; timed totals are then split by those
    counts.
    """

    def __init__(self, db) -> None:
        registry = db.registry
        self._functions = [registry.scalar(name) for name in XADT_SCALARS]
        self._tables = [registry.table_function(name) for name in XADT_TABLES]
        self._originals: list[tuple[object, object]] = []
        #: sql -> operator walk position -> function -> calls
        self.hosts: dict[str, dict[int, dict[str, int]]] = {}
        self._locating: dict[int, dict[str, int]] | None = None
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.body_seconds: dict[str, float] = defaultdict(float)
        self.invoke_seconds: dict[str, float] = defaultdict(float)

    def install(self) -> None:
        for function in self._functions:
            self._originals.append((function, function.fn))
            function.fn = self._timed_body(function.name, function.fn)
            function.invoke = self._timed_invoke(
                function.name, type(function).invoke.__get__(function)
            )
        for function in self._tables:
            self._originals.append((function, function.fn))
            function.fn = self._timed_rows(function.name, function.fn)
            function.invoke = self._timed_invoke(
                function.name, type(function).invoke.__get__(function)
            )

    def remove(self) -> None:
        for function, body in self._originals:
            function.fn = body
            del function.invoke  # back to the class method
        self._originals.clear()

    def _timed_body(self, name: str, body):
        perf = time.perf_counter

        def timed(*args):
            if self._locating is not None:
                self._locate(name)
            started = perf()
            try:
                return body(*args)
            finally:
                self.body_seconds[name] += perf() - started
                self.calls[name] += 1

        return timed

    def _timed_rows(self, name: str, body):
        perf = time.perf_counter

        def timed(*args):
            if self._locating is not None:
                self._locate(name)
            self.calls[name] += 1
            rows = iter(body(*args))
            while True:
                started = perf()
                try:
                    row = next(rows)
                except StopIteration:
                    return
                finally:
                    self.body_seconds[name] += perf() - started
                yield row

        return timed

    def _timed_invoke(self, name: str, invoke):
        perf = time.perf_counter

        def timed(args):
            started = perf()
            try:
                return invoke(args)
            finally:
                self.invoke_seconds[name] += perf() - started

        return timed

    def _locate(self, name: str) -> None:
        frame = sys._getframe(2)
        while frame is not None:
            host = frame.f_locals.get("self")
            if isinstance(host, Operator):
                counts = self._locating.setdefault(id(host), {})
                counts[name] = counts.get(name, 0) + 1
                return
            frame = frame.f_back

    def locate_hosts(self, sql: str, plan) -> dict[int, dict[str, int]]:
        """Run ``plan`` to learn which operators call which functions."""
        nodes = attach_stats(plan)  # same code path as the timed run
        self._locating = {}
        try:
            for _batch in plan.batches():
                pass
            by_id = self._locating
        finally:
            self._locating = None
            detach_stats(nodes)
        self.hosts[sql] = {
            position: by_id[id(node)]
            for position, (node, _depth) in enumerate(nodes)
            if id(node) in by_id
        }
        return self.hosts[sql]

    def marshal_seconds(self, name: str) -> float:
        """Invocation time outside the function body (table functions
        return lazily, so their ``invoke`` never contains the body)."""
        inside = 0.0 if name in XADT_TABLES else self.body_seconds[name]
        return max(self.invoke_seconds[name] - inside, 0.0)


def traced_execute(db, sql: str, rec: SpanRecorder, udf: UdfTimer | None):
    """``Session.execute`` by hand: cache probe, parse, plan, run.

    Every stage is a span; the run uses the engine's own per-operator
    counters (``attach_stats``), and each operator becomes a child span
    carrying its busy time, with the XADT method time it hosted as
    grandchildren.  Operator spans are laid end to end from their
    parent's start (operators of a pipeline interleave, so their real
    start and end say nothing about busy time).
    """
    with rec.span("engine.plan_cache"):
        key = normalize_sql(sql)
        version = db.catalog_version
        entry = db.plan_cache.lookup(key, version)
    if entry is None:
        with rec.span("engine.sql.parse"):
            statement = parse_sql(sql)
        with rec.span("engine.plan"):
            box = ParamBox(count_parameters(statement))
            plan = plan_select(statement, db, box)
        with rec.span("engine.plan_cache"):
            entry = CachedPlan(
                plan=plan, params=box, statement=statement, version=version
            )
            db.plan_cache.store(key, entry)
    hosts = udf.hosts.get(sql) if udf is not None else {}
    if hosts is None:
        entry.params.bind(())
        with rec.span("harness.attribution"):
            hosts = udf.locate_hosts(sql, entry.plan)
    with rec.span("engine.exec") as exec_span:
        entry.params.bind(())
        nodes = attach_stats(entry.plan)
        if udf is not None:
            udf.reset()
        try:
            rows: list[tuple] = []
            with statement_routing(db.exec_config.xadt_structural_index):
                for batch in entry.plan.batches():
                    rows.extend(batch)
            measured = [
                (type(node).__name__, depth, node.stats.seconds, node.stats.rows_out)
                for node, depth in nodes
            ]
        finally:
            detach_stats(nodes)
    _operator_spans(rec, exec_span, measured, hosts, udf)
    return rows


def _operator_spans(rec, exec_span, measured, hosts, udf) -> None:
    total_calls: dict[str, int] = defaultdict(int)
    for counts in hosts.values():
        for name, calls in counts.items():
            total_calls[name] += calls
    cursor = {exec_span["id"]: exec_span["start"]}
    lineage: list[dict] = []  # open operator span per depth
    for position, (kind, depth, seconds, rows_out) in enumerate(measured):
        parent = lineage[depth - 1] if depth else exec_span
        span = rec.add(
            f"engine.exec.{kind}", cursor[parent["id"]], seconds, parent,
            rows=rows_out, depth=depth,
            leaf=position + 1 == len(measured) or measured[position + 1][1] <= depth,
        )
        cursor[parent["id"]] = span["end"]
        cursor[span["id"]] = span["start"]
        del lineage[depth:]
        lineage.append(span)
        for name, calls in hosts.get(position, {}).items():
            share = calls / total_calls[name]
            for label, hosted in (
                (f"xadt.{name}", udf.body_seconds[name] * share),
                ("engine.udf.marshal", udf.marshal_seconds(name) * share),
            ):
                child = rec.add(label, cursor[span["id"]], hosted, span, calls=calls)
                cursor[span["id"]] = child["end"]


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


def layer_of(span_name: str) -> str | None:
    """The reported layer of a span; ``None`` for the harness' own glue."""
    if span_name in ("pass", "query") or span_name.startswith("harness."):
        return None
    if span_name.startswith("engine.exec."):
        kind = span_name.rsplit(".", 1)[1]
        return "engine.exec." + OPERATOR_GROUPS.get(kind, "other")
    if span_name == "engine.exec":
        return "engine.exec.other"  # draining batches into the result list
    if span_name == "server.request":
        return "server.transport"  # what the adopted stages leave uncovered
    if span_name.startswith("xadt."):
        return "xadt"
    if span_name.startswith("engine.udf."):
        return "engine.udf"
    return span_name


def pass_spans(spans: list[dict]) -> list[dict]:
    """The spans of traces rooted in a ``pass`` (not a ``check``)."""
    traces = {span["trace"] for span in spans if span["name"] == "pass"}
    return [span for span in spans if span["trace"] in traces]


def pass_seconds(spans: list[dict]) -> list[float]:
    """Wall of each traced pass, net of the harness' own ``harness.*``
    spans (work a user's statement never does)."""
    walls: dict[int, float] = defaultdict(float)
    for span in pass_spans(spans):
        if span["name"] == "pass":
            walls[span["trace"]] += span["end"] - span["start"]
        elif span["name"].startswith("harness."):
            walls[span["trace"]] -= span["end"] - span["start"]
    return [walls[trace] for trace in sorted(walls)]


def layer_seconds(spans: list[dict]) -> dict[str, float]:
    """Self seconds per layer over ``spans``."""
    totals: dict[str, float] = defaultdict(float)
    for name, seconds in stats.self_time_by_name(spans).items():
        layer = layer_of(name)
        if layer is not None:
            totals[layer] += seconds
    return dict(totals)


class GcWatch:
    """Collector pauses seen through ``gc.callbacks`` (the collector is
    left as users get it; this only watches)."""

    def __init__(self) -> None:
        self.pause_seconds = 0.0
        self.gen2 = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_seconds += time.perf_counter() - self._started
            if info.get("generation") == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self)


# ---------------------------------------------------------------------------
# the wire, by hand
# ---------------------------------------------------------------------------


def response_messages(columns: list[str], rows: list[list]) -> list[dict]:
    """The response bodies the server sends for one result: the execute
    reply and one fetch reply per further page (``ReproServer``'s
    ``_result_response`` / ``_fetch`` shapes)."""
    page = DEFAULT_FETCH_SIZE
    first = {
        "ok": True, "columns": columns, "rows": rows[:page],
        "row_count": len(rows), "id": 1,
    }
    if len(rows) > page:
        first.update(cursor=1, more=True)
    messages = [first]
    for offset in range(page, len(rows), page):
        more = offset + page < len(rows)
        messages.append({
            "ok": True, "columns": columns, "rows": rows[offset:offset + page],
            "more": more, **({"cursor": 1} if more else {}), "id": 1,
        })
    return messages
