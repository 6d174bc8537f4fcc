"""UDF registry: registration, invocation modes, accounting."""

import json
import pathlib

import pytest

from repro.engine.types import INTEGER
from repro.engine.udf import FunctionKind, FunctionRegistry
from repro.errors import UdfError
from repro.obs.metrics import METRICS
from repro.workloads import SHAKESPEARE_QUERIES, SIGMOD_QUERIES
from repro.xadt import XadtValue
from repro.xquery import compile_path, parse_path

GOLDEN_UDF_CALLS = pathlib.Path(__file__).resolve().parent.parent / (
    "golden/udf_calls.json"
)
#: path expressions whose XORator SQL puts the UDF predicate behind a
#: call-free conjunct (``speech_parentCODE = 'SCENE' AND findKeyInElm(...)``)
GOLDEN_PATHS = (
    "/PLAY/ACT/SCENE/SPEECH[SPEAKER='ROMEO']/LINE",
    "/PLAY/ACT/SCENE/SPEECH/SPEAKER[contains(., 'HAM')]",
    "/PLAY/ACT[1]/SCENE/SPEECH[LINE/STAGEDIR]/SPEAKER",
    "/PLAY/ACT/SCENE/SPEECH/LINE[contains(., 'love')]",
    "/PLAY/ACT/PROLOGUE/SPEECH/LINE[contains(., 'a')]",
    "/PLAY[contains(TITLE, 'Romeo')]/ACT/SCENE/SPEECH[SPEAKER='ROMEO']"
    "/LINE[contains(., 'love')]",
)
#: call sites short-circuit evaluation reaches conditionally, and the
#: operators besides scan/project that host calls (XORator Shakespeare)
GOLDEN_STATEMENTS = {
    "under_or": (
        "SELECT speechID FROM speech WHERE speech_parentCODE = 'PROLOGUE' "
        "OR findKeyInElm(speech_speaker, 'SPEAKER', 'ROMEO') = 1"
    ),
    "select_item_non_first_and": (
        "SELECT speechID, speech_parentCODE = 'PROLOGUE' "
        "AND findKeyInElm(speech_line, 'LINE', 'a') = 1 FROM speech"
    ),
    "having": (
        "SELECT speech_speaker, COUNT(*) FROM speech GROUP BY speech_speaker "
        "HAVING findKeyInElm(speech_speaker, 'SPEAKER', 'ROMEO') = 1"
    ),
    "group_by_key": (
        "SELECT elmText(speech_speaker), COUNT(*) FROM speech "
        "GROUP BY elmText(speech_speaker)"
    ),
}


def udf_call_cases(shakespeare_pair, sigmod_pair):
    """``(key, db, sql)`` of every statement ``udf_calls.json`` holds:
    the Fig. 11/13 workloads on both mappings, then the path queries and
    the conditional call sites on XORator."""
    for dataset, pair, queries in (
        ("shakespeare", shakespeare_pair, SHAKESPEARE_QUERIES),
        ("sigmod", sigmod_pair, SIGMOD_QUERIES),
    ):
        for query in queries:
            for algorithm, loaded in zip(("hybrid", "xorator"), pair):
                yield (
                    f"{dataset}_{algorithm}_{query.key}",
                    loaded.db,
                    query.sql_for(algorithm),
                )
    xorator = shakespeare_pair[1]
    for position, path in enumerate(GOLDEN_PATHS, start=1):
        sql = compile_path(parse_path(path), xorator.schema).sql
        yield f"path_{position}", xorator.db, sql
    for key, sql in GOLDEN_STATEMENTS.items():
        yield key, xorator.db, sql


def capture_udf_calls(db, sql: str) -> dict[str, object]:
    """Every function invocation one execution of ``sql`` made, as both
    collectors saw it (``registry.stats`` and ``udf.calls.*``).

    Also the recorder: ``scripts/record_golden_udf_calls.py`` writes the
    golden file from this function.
    """
    assert METRICS.enabled
    db.reset_function_stats()  # zeroes ``udf.*`` too
    rows = len(db.execute(sql))
    stats = db.registry.stats
    return {
        "rows": rows,
        "scalar_calls": dict(sorted(stats.scalar_calls.items())),
        "table_calls": dict(sorted(stats.table_calls.items())),
        "udf.calls": {
            mode: METRICS.counter(f"udf.calls.{mode}").value
            for mode in ("builtin", "not_fenced", "fenced")
        },
    }


@pytest.fixture()
def registry():
    return FunctionRegistry()


class TestRegistration:
    def test_builtins_preinstalled(self, registry):
        for name in ("length", "substr", "upper", "lower", "concat"):
            assert registry.has_scalar(name)

    def test_lookup_case_insensitive(self, registry):
        registry.register_scalar("MyFn", lambda: 1, FunctionKind.BUILTIN)
        assert registry.has_scalar("myfn")
        assert registry.scalar("MYFN").name == "MyFn"

    def test_duplicate_scalar_rejected(self, registry):
        registry.register_scalar("f", lambda: 1)
        with pytest.raises(UdfError):
            registry.register_scalar("F", lambda: 2)

    def test_unknown_scalar_rejected(self, registry):
        with pytest.raises(UdfError):
            registry.scalar("ghost")

    def test_table_function_registration(self, registry):
        registry.register_table("gen", lambda n: [(i,) for i in range(n)],
                                [("i", INTEGER)])
        rows = list(registry.call_table("gen", [3]))
        assert rows == [(0,), (1,), (2,)]

    def test_unknown_table_function_rejected(self, registry):
        with pytest.raises(UdfError):
            registry.table_function("ghost")

    @pytest.mark.parametrize(
        "bounds", [{"min_args": 3, "max_args": 1}, {"min_args": -1}]
    )
    def test_impossible_argument_ranges_rejected_at_registration(
        self, registry, bounds
    ):
        # accepted silently, every later call would fail its arity check
        with pytest.raises(UdfError, match="'never'.*argument range"):
            registry.register_scalar("never", lambda *a: 1, **bounds)
        with pytest.raises(UdfError, match="'never'.*argument range"):
            registry.register_table("never", lambda *a: [], [("x", INTEGER)], **bounds)
        assert not registry.has_scalar("never")
        assert not registry.has_table_function("never")


class TestInvocation:
    def test_arity_enforced(self, registry):
        registry.register_scalar("two", lambda a, b: a + b,
                                 FunctionKind.BUILTIN, 2, 2)
        assert registry.call_scalar("two", [1, 2]) == 3
        with pytest.raises(UdfError):
            registry.call_scalar("two", [1])
        with pytest.raises(UdfError):
            registry.call_scalar("two", [1, 2, 3])

    def test_variadic_max(self, registry):
        registry.register_scalar("any", lambda *a: len(a),
                                 FunctionKind.BUILTIN, 1, None)
        assert registry.call_scalar("any", [1, 2, 3, 4]) == 4

    def test_builtin_passes_by_reference(self, registry):
        seen = {}
        registry.register_scalar(
            "cap", lambda v: seen.setdefault("v", v), FunctionKind.BUILTIN, 1, 1
        )
        original = "zero copy"
        registry.call_scalar("cap", [original])
        assert seen["v"] is original


class TestFigure14Mechanism:
    """What Fig. 14 prices is charged, never performed: whatever the
    kind and the route, the body receives the caller's objects and the
    caller the body's (``test_work_model.py`` holds the charge)."""

    ARGUMENTS = [
        "a string payload",
        b"a bytes payload",
        XadtValue.from_xml("<s>plain</s>"),
        XadtValue.from_xml("<s>dict <t>coded</t></s>", "dict"),
        XadtValue.from_xml("<s>indexed</s>", "indexed"),
    ]

    def crossed(self, registry, kind, route, argument):
        """What the body saw, and what the caller got back, over two
        calls ``probe(argument)`` of ``kind`` through ``route``."""
        seen = []
        if route == "invoke_table":

            def rows(value):
                seen.append(value)
                yield (value,)

            registry.register_table("probe", rows, [("v", INTEGER)], kind, 1, 1)
            function = registry.table_function("probe")
            returned = [
                row[0]
                for _ in range(2)
                for row in registry.invoke_table(function, [argument])
            ]
        else:
            registry.register_scalar(
                "probe", lambda v: seen.append(v) or v, kind, 1, 1
            )
            function = registry.scalar("probe")
            if route == "invoke_scalar":
                returned = [
                    registry.invoke_scalar(function, [argument]) for _ in range(2)
                ]
            else:
                returned = registry.invoke_scalar_batch(
                    function, 2, [[argument] * 2], (True,)
                )
        assert function.work_counter == "udf_calls_" + kind.name.lower()
        return seen, returned

    @pytest.mark.parametrize("argument", ARGUMENTS, ids=repr)
    @pytest.mark.parametrize(
        "route", ["invoke_scalar", "invoke_scalar_batch", "invoke_table"]
    )
    @pytest.mark.parametrize("kind", list(FunctionKind), ids=lambda kind: kind.name)
    def test_values_cross_by_identity(self, registry, kind, route, argument):
        seen, returned = self.crossed(registry, kind, route, argument)
        assert len(seen) == len(returned) == 2
        assert all(value is argument for value in seen + returned)

    def received(self, registry, kind, argument):
        seen = []
        registry.register_scalar(
            "probe", lambda v: seen.append(v) or v, kind, 1, 1
        )
        function = registry.scalar("probe")
        results = [
            registry.call_scalar("probe", [argument]),
            registry.invoke_scalar(function, [argument]),  # the bound route
        ]
        assert len(seen) == 2
        return seen, results

    @pytest.mark.parametrize("argument", ARGUMENTS, ids=repr)
    def test_builtin_passes_identity(self, registry, argument):
        seen, results = self.received(registry, FunctionKind.BUILTIN, argument)
        assert all(value is argument for value in seen + results)

    # -- the batch route: one crossing for a column of calls ------------------

    def received_batch(self, registry, kind, argument, constant="k"):
        """Three calls ``probe(argument, constant)`` through
        ``invoke_scalar_batch``: what the body saw, and the results."""
        seen = []
        registry.register_scalar(
            "probe", lambda v, c: seen.append((v, c)) or v, kind, 2, 2
        )
        results = registry.invoke_scalar_batch(
            registry.scalar("probe"), 3, [[argument] * 3, constant], (True, False)
        )
        assert len(seen) == len(results) == 3
        assert registry.stats.scalar_calls == {"probe": 3}
        return seen, results

    @pytest.mark.parametrize("argument", ARGUMENTS, ids=repr)
    def test_batch_builtin_passes_identity(self, registry, argument):
        constant = "k" * 3
        seen, results = self.received_batch(
            registry, FunctionKind.BUILTIN, argument, constant
        )
        assert all(value is argument for value, _constant in seen)
        assert all(received is constant for _value, received in seen)
        assert all(result is argument for result in results)

    def test_counts_are_exact_for_a_qg2_run(self, sigmod_pair):
        from repro.obs.metrics import METRICS
        from repro.workloads.sigmod_queries import QG2

        db = sigmod_pair[1].db
        documents = len(db.execute("SELECT ppID FROM pp"))
        sections = db.execute(
            "SELECT COUNT(*) FROM pp, TABLE(unnest(pp_slist, 'sListTuple')) st"
        ).scalar()
        counter = METRICS.counter("udf.calls.not_fenced")
        assert METRICS.enabled
        db.reset_function_stats()
        before = counter.value
        rows = len(db.execute(QG2.sql_for("xorator")))
        # one unnest per proceedings row and per section; per result row
        # two elmText and one getElm
        expected = documents + sections + 3 * rows
        stats = db.registry.stats
        assert stats.table_calls == {"unnest": documents + sections}
        assert stats.scalar_calls == {"elmText": 2 * rows, "getElm": rows}
        assert stats.total_udf_calls() == expected
        assert counter.value - before == expected


class TestGoldenUdfCalls:
    """Every Fig. 14 call count is what the parent of the batch boundary
    counted: ``tests/golden/udf_calls.json`` was recorded with per-call
    invocation only, and hoisting / the conjunct cascade must reach
    exactly the rows short-circuit evaluation reaches."""

    def test_counts_match_the_recording(self, shakespeare_pair, sigmod_pair):
        golden = json.loads(GOLDEN_UDF_CALLS.read_text(encoding="utf-8"))
        observed = {
            key: capture_udf_calls(db, sql)
            for key, db, sql in udf_call_cases(shakespeare_pair, sigmod_pair)
        }
        assert observed == golden

    def test_golden_covers_what_it_claims(self):
        golden = json.loads(GOLDEN_UDF_CALLS.read_text(encoding="utf-8"))
        assert len(golden) == 2 * (
            len(SHAKESPEARE_QUERIES) + len(SIGMOD_QUERIES)
        ) + len(GOLDEN_PATHS) + len(GOLDEN_STATEMENTS)
        for key, entry in golden.items():
            calls = sum(entry["scalar_calls"].values()) + sum(
                entry["table_calls"].values()
            )
            assert sum(entry["udf.calls"].values()) == calls
            assert (calls == 0) == ("_hybrid_" in key), key
        # the cascade cases: fewer calls than rows scanned by the UDF-free
        # conjunct alone would allow, and a second UDF conjunct behind the first
        assert golden["path_6"]["scalar_calls"]["findKeyInElm"] < (
            golden["path_6"]["scalar_calls"]["elmEquals"]
        )


class TestAccounting:
    def test_scalar_calls_counted(self, registry):
        registry.register_scalar("f", lambda: 1, FunctionKind.NOT_FENCED, 0, 0)
        for _ in range(3):
            registry.call_scalar("f", [])
        assert registry.stats.scalar_calls["f"] == 3

    def test_table_calls_counted(self, registry):
        registry.register_table("g", lambda: [(1,)], [("x", INTEGER)])
        registry.call_table("g", [])
        assert registry.stats.table_calls["g"] == 1

    def test_reset(self, registry):
        registry.register_scalar("f", lambda: 1, FunctionKind.NOT_FENCED, 0, 0)
        registry.call_scalar("f", [])
        registry.stats.reset()
        assert registry.stats.total_udf_calls() == 0

    @pytest.mark.parametrize("kind", list(FunctionKind))
    def test_table_function_time_includes_producing_the_rows(self, registry, kind):
        # bodies are generators: timing only ``invoke`` measured the call
        # that made one (three such calls once recorded 21 microseconds)
        import time

        def slow_rows(count):
            time.sleep(0.02)
            for i in range(count):
                yield (i,)

        registry.register_table("slow_rows", slow_rows, [("i", INTEGER)], kind)
        histogram = registry.table_function("slow_rows").seconds
        count, total = histogram.count, histogram.sum
        for _ in range(3):
            assert list(registry.call_table("slow_rows", [2])) == [(0,), (1,)]
        assert histogram.count - count == 3
        assert histogram.sum - total >= 0.06


class TestBuiltins:
    def test_length_null(self, registry):
        assert registry.call_scalar("length", [None]) is None

    def test_substr_one_based(self, registry):
        assert registry.call_scalar("substr", ["HAMLET", 5]) == "ET"
        assert registry.call_scalar("substr", ["HAMLET", 1, 3]) == "HAM"

    def test_concat_null_propagates(self, registry):
        assert registry.call_scalar("concat", ["a", None]) is None
