"""The three read workloads: QS over the wire, QG in-process, ad-hoc paths."""

from __future__ import annotations

import json
import random
import time
from collections import Counter

import common
import stats
from common import MAPPINGS, UdfTimer, Workload, traced_execute
from spans import SpanRecorder

from repro.server import ReproClient, start_server_thread
from repro.server.protocol import decode_body, encode_frame, jsonable_rows
from repro.xquery import compile_path, evaluate_texts, parse_path


def load_expected(workload: str, seed: int) -> dict[str, dict[str, str]]:
    """Committed digests of ``workload`` (default seed only)."""
    if seed != common.DEFAULT_SEED:
        return {}
    with open(common.HERE / "expected.json", encoding="utf-8") as handle:
        return json.load(handle).get(workload, {})


def verify_answers(workload) -> tuple[int, int]:
    expected = load_expected(workload.name, workload.corpus.seed)
    attempted = failed = 0
    workload.oracles = {}
    for name in MAPPINGS:
        checked, wrong, workload.oracles[name] = common.oracle_check(
            workload.dbs[name], workload.statements[name],
            workload.answers[name], expected.get(name, {}),
        )
        attempted += checked
        failed += wrong
    return attempted, failed


class PaperQueries(Workload):
    """A paper query set (QS or QG) on both mappings, plans cached."""

    dataset = ""
    scale = 1

    def setup(self, seed: int) -> None:
        self.build(self.dataset, self.scale, seed)
        self.answer_paper_statements()
        self.setup_attempted = self.setup_failed = 0
        self.udf = {name: UdfTimer(self.dbs[name]) for name in MAPPINGS}
        self.connect()
        for name in MAPPINGS:
            self.run_pass(name)

    def connect(self) -> None:
        raise NotImplementedError

    def execute(self, mapping: str, sql: str):
        raise NotImplementedError

    def run_pass(self, mapping):
        slots: list[float] = []
        failed = 0
        perf = time.perf_counter
        started = perf()
        for key, sql in self.statements[mapping]:
            before = perf()
            result = self.execute(mapping, sql)
            count = len(result)
            slots.append(perf() - before)
            if count != self.answers[mapping][key].rows:
                failed += 1
        return perf() - started, slots, failed

    def verify(self) -> tuple[int, int]:
        """Every statement against its oracle (see ``common.oracle_check``)."""
        return verify_answers(self)

    def traced_query(self, mapping: str, sql: str, rec: SpanRecorder) -> list:
        return traced_execute(self.dbs[mapping], sql, rec, self.udf[mapping])

    def traced_pass(self, mapping, rec):
        rec.new_trace()
        udf = self.udf[mapping]
        udf.install()
        try:
            with rec.span("pass", workload=self.name, mapping=mapping):
                for key, sql in self.statements[mapping]:
                    with rec.span("query", key=key):
                        self.traced_query(mapping, sql, rec)
        finally:
            udf.remove()


class SigmodInproc(PaperQueries):
    name = "sigmod_inproc"
    dataset = "sigmod"
    scale = 4

    def connect(self) -> None:
        self.sessions = {name: self.dbs[name].connect() for name in MAPPINGS}

    def execute(self, mapping, sql):
        return self.sessions[mapping].execute(sql)

    def teardown(self) -> None:
        for session in self.sessions.values():
            session.close()


class ShakespeareWire(PaperQueries):
    """One blocking client per server.  Two client threads were tried
    and dropped: with five threads on the GIL of a 2-core box a pass
    spread 1.0-1.46x whenever a neighbour took cycles, where the same
    pass from one client stayed within 1.0-1.17x (README)."""

    name = "shakespeare_wire"
    dataset = "shakespeare"
    scale = 2

    def connect(self) -> None:
        self.servers = {
            name: start_server_thread(self.dbs[name]) for name in MAPPINGS
        }
        self.clients = {
            name: ReproClient(
                self.servers[name].host, self.servers[name].port,
                client_name="bench",
            )
            for name in MAPPINGS
        }
        for name in MAPPINGS:
            self.clients[name].connect()
            # what crosses the wire must be what the engine returned
            for key, sql in self.statements[name]:
                over_wire = self.clients[name].execute(sql)
                self.setup_attempted += 1
                if stats.digest(over_wire.rows) != self.answers[name][key].digest:
                    self.setup_failed += 1

    def execute(self, mapping, sql):
        return self.clients[mapping].execute(sql)

    def teardown(self) -> None:
        for name in MAPPINGS:
            self.clients[name].close()
            self.servers[name].stop()

    def traced_query(self, mapping, sql, rec):
        """One real wire request, then its stages by hand beside it.

        The socket and the event-loop/executor hand-off cannot be called
        from outside.  So the request itself is the span
        (``server.request``); the stages the server and the client run
        for it are then performed on this thread (``harness.shadow``,
        excluded from every number) and adopted as its children.  What
        they leave uncovered is the request's self time, reported as the
        layer ``server.transport``.
        """
        server = self.servers[mapping].server
        with rec.span("server.request") as request_span:
            self.clients[mapping].execute(sql)
        with rec.span("harness.shadow"):
            shadow = SpanRecorder()
            with shadow.span("server.protocol.encode"):
                frame = encode_frame(
                    {"op": "execute", "params": [], "sql": sql, "id": 1}
                )
            with shadow.span("server.protocol.decode"):
                request = decode_body(frame[4:])
            with shadow.span("server.admission"):
                server.admission.admit()
                server.admission.started()
            with shadow.span("server.pool"):
                entry = server.pool.acquire("traced")
            try:
                rows = traced_execute(
                    self.dbs[mapping], request["sql"], shadow, self.udf[mapping]
                )
            finally:
                with shadow.span("server.pool"):
                    server.pool.release(entry)
                with shadow.span("server.admission"):
                    server.admission.finished()
            with shadow.span("server.protocol.encode"):
                messages = common.response_messages([], jsonable_rows(rows))
                frames = [encode_frame(message) for message in messages]
            with shadow.span("server.protocol.decode"):
                for body in frames:
                    decode_body(body[4:])
        # harness.attribution already lies inside harness.shadow
        stages = [s for s in shadow.spans if not s["name"].startswith("harness.")]
        rec.adopt(stages, request_span)
        return rows


# ---------------------------------------------------------------------------
# ad-hoc path queries
# ---------------------------------------------------------------------------

#: one entry per ``workloads.q<N>`` slot.  Shapes are the ones
#: tests/xquery/test_compilers.py and test_property.py hold to ground
#: truth; ``contains(., ...)`` stays on pure-text elements because on
#: mixed content the Hybrid translation tests the element's direct text
#: and the DOM oracle its full text (reported in CHANGES.md).
TEMPLATES = (
    "/PLAY[contains(TITLE, '{title}')]/ACT[{act}]/SCENE[{scene}]/TITLE",
    "/PLAY[contains(TITLE, '{title}')]/ACT/SCENE/SPEECH[SPEAKER='{speaker}']/LINE",
    "/PLAY/ACT/SCENE/SPEECH/SPEAKER[contains(., '{name}')]",
    "/PLAY[contains(TITLE, '{title}')]/ACT/SCENE/SPEECH/LINE[{line}]",
    "/PLAY[contains(TITLE, '{title}')]/ACT[{act}]/SCENE/SPEECH[LINE/STAGEDIR]/SPEAKER",
    "/PLAY[contains(TITLE, '{title}')]//SCNDESCR",
)


def _substring(rng: random.Random, text: str) -> str:
    start = rng.randrange(len(text) - 1)
    piece = text[start:rng.randint(start + 2, len(text))]
    # literals travel inside '...' in the path and the SQL: keep them plain
    return "".join(ch for ch in piece if ch.isalnum() or ch == " ") or text[:2]


class PathAdhoc(Workload):
    """Textually unique path expressions: every statement misses the
    plan cache, so the path compiler and the SQL front end carry the
    pass while the executor sees little data."""

    name = "path_adhoc"
    scale = 1
    per_template = 3
    operations = per_template * len(TEMPLATES)
    slots = len(TEMPLATES)

    def setup(self, seed: int) -> None:
        self.build("shakespeare", self.scale, seed)
        self.sessions = {name: self.dbs[name].connect() for name in MAPPINGS}
        self.udf = {name: UdfTimer(self.dbs[name]) for name in MAPPINGS}
        roots = [document.root for document in self.corpus.documents]
        self.titles = [root.find("TITLE").text_content() for root in roots]
        self.speakers = sorted({
            speaker.text_content()
            for root in roots
            for speaker in root.iter("SPEAKER")
        })
        # each mapping draws the same pass sequence from its own stream
        self.rngs = {name: random.Random(seed) for name in MAPPINGS}
        self.executed: dict[str, list[tuple[str, int, str]]] = {
            name: [] for name in MAPPINGS
        }
        self.sample_rng = random.Random(seed + 1)
        for name in MAPPINGS:
            self.run_pass(name)

    def teardown(self) -> None:
        for session in self.sessions.values():
            session.close()

    def next_paths(self, mapping: str) -> list[tuple[int, str]]:
        """The next pass: ``per_template`` distinct paths per template."""
        rng = self.rngs[mapping]
        chosen: dict[str, int] = {}
        for slot, template in enumerate(TEMPLATES):
            wanted = len(chosen) + self.per_template
            while len(chosen) < wanted:
                text = template.format(
                    title=_substring(rng, rng.choice(self.titles)),
                    speaker=rng.choice(self.speakers),
                    name=_substring(rng, rng.choice(self.speakers)),
                    act=rng.randint(1, 3),
                    scene=rng.randint(1, 3),
                    line=rng.randint(1, 4),
                )
                chosen.setdefault(text, slot)
        return [(slot, text) for text, slot in chosen.items()]

    def run_pass(self, mapping):
        schema = self.corpus.schemas[mapping]
        session = self.sessions[mapping]
        sums = [0.0] * self.slots
        perf = time.perf_counter
        started = perf()
        sampled = []
        for slot, text in self.next_paths(mapping):
            before = perf()
            compiled = compile_path(parse_path(text), schema)
            result = session.execute(compiled.sql)
            rows = len(result)
            sums[slot] += perf() - before
            if self.sample_rng.random() < 0.1:
                sampled.append((text, result))
        elapsed = perf() - started
        self.executed[mapping].extend(
            (text, len(result), stats.digest(result.rows))
            for text, result in sampled
        )
        return elapsed, [value / self.per_template for value in sums], 0

    def traced_pass(self, mapping, rec):
        schema = self.corpus.schemas[mapping]
        rec.new_trace()
        udf = self.udf[mapping]
        udf.install()
        try:
            with rec.span("pass", workload=self.name, mapping=mapping):
                for slot, text in self.next_paths(mapping):
                    with rec.span("query", key=f"T{slot + 1}"):
                        with rec.span("xquery.parse"):
                            query = parse_path(text)
                        with rec.span("xquery.compile"):
                            compiled = compile_path(query, schema)
                        traced_execute(self.dbs[mapping], compiled.sql, rec, udf)
        finally:
            udf.remove()

    def probe_paths(self) -> list[str]:
        return [text for _slot, text in self.next_paths("hybrid")]

    def probe_statements(self, mapping: str) -> list[str]:
        schema = self.corpus.schemas[mapping]
        return [
            compile_path(parse_path(text), schema).sql
            for _slot, text in self.next_paths(mapping)
        ]

    def verify(self) -> tuple[int, int]:
        """The sampled tenth against the DOM evaluator, as
        tests/xquery/test_compilers.py::run_compiled compares them:
        XORator against full text, Hybrid against direct text (the two
        only differ on mixed-content finals)."""
        attempted = failed = 0
        for mapping in MAPPINGS:
            schema = self.corpus.schemas[mapping]
            for text, count, digest in self.executed[mapping]:
                query = parse_path(text)
                compiled = compile_path(query, schema)
                result = self.dbs[mapping].execute(compiled.sql)
                values: Counter = Counter()
                for _, value in result.rows:
                    if compiled.shape == "fragment":
                        for element in value.to_elements():
                            values[element.text_content()] += 1
                    elif value is not None:
                        values[str(value)] += 1
                truth = Counter(evaluate_texts(
                    self.corpus.documents, query, direct=mapping == "hybrid"
                ))
                attempted += 1
                same_as_timed = (
                    len(result) == count and stats.digest(result.rows) == digest
                )
                if values != truth or not same_as_timed:
                    failed += 1
                    print(f"path mismatch on {mapping}: {text}")
        return attempted, failed
