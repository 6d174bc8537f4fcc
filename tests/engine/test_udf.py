"""UDF registry: registration, invocation modes, accounting."""

import pytest

from repro.engine.types import INTEGER
from repro.engine.udf import FunctionKind, FunctionRegistry
from repro.errors import UdfError
from repro.xadt import XadtValue


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

    def test_not_fenced_marshals_strings(self, registry):
        seen = {}

        def capture(value):
            seen["value"] = value
            return value

        registry.register_scalar("cap", capture, FunctionKind.NOT_FENCED, 1, 1)
        original = "hello world"
        registry.call_scalar("cap", [original])
        assert seen["value"] == original
        assert seen["value"] is not original  # physically copied

    def test_not_fenced_marshals_xadt(self, registry):
        seen = {}

        def capture(value):
            seen["value"] = value
            return value

        registry.register_scalar("cap", capture, FunctionKind.NOT_FENCED, 1, 1)
        fragment = XadtValue.from_xml("<s>x</s>")
        registry.call_scalar("cap", [fragment])
        assert seen["value"] == fragment
        assert seen["value"] is not fragment

    def test_fenced_round_trips_result(self, registry):
        registry.register_scalar(
            "echo", lambda v: v, FunctionKind.FENCED, 1, 1
        )
        fragment = XadtValue.from_xml("<s>x</s>")
        result = registry.call_scalar("echo", [fragment])
        assert result == fragment
        assert result is not fragment

    def test_builtin_passes_by_reference(self, registry):
        seen = {}
        registry.register_scalar(
            "cap", lambda v: seen.setdefault("v", v), FunctionKind.BUILTIN, 1, 1
        )
        original = "zero copy"
        registry.call_scalar("cap", [original])
        assert seen["v"] is original


class TestFigure14Mechanism:
    """What Fig. 14 models must stay per call: NOT FENCED copies every
    payload, FENCED serializes it, BUILTIN passes it through."""

    ARGUMENTS = [
        "a string payload",
        b"a bytes payload",
        XadtValue.from_xml("<s>plain</s>"),
        XadtValue.from_xml("<s>dict <t>coded</t></s>", "dict"),
        XadtValue.from_xml("<s>indexed</s>", "indexed"),
    ]

    @staticmethod
    def payload_of(value):
        return value.payload if isinstance(value, XadtValue) else value

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
    def test_not_fenced_copies_the_payload_on_every_call(self, registry, argument):
        seen, results = self.received(registry, FunctionKind.NOT_FENCED, argument)
        payloads = [self.payload_of(value) for value in seen]
        for value, payload in zip(seen, payloads):
            assert value == argument and type(value) is type(argument)
            assert value is not argument
            assert payload is not self.payload_of(argument)
        assert payloads[0] is not payloads[1]  # a fresh copy per call
        assert results == [argument, argument]

    def test_not_fenced_copy_keeps_codec_and_directory(self, registry):
        indexed = self.ARGUMENTS[-1]
        directory = indexed.directory()
        seen, _ = self.received(registry, FunctionKind.NOT_FENCED, indexed)
        assert seen[0].codec == "indexed"
        assert seen[0].directory() is directory  # stored metadata travels

    @pytest.mark.parametrize("argument", ARGUMENTS, ids=repr)
    def test_fenced_round_trips_through_pickle(self, registry, argument, monkeypatch):
        import pickle

        dumped = []
        real_dumps = pickle.dumps
        monkeypatch.setattr(
            pickle, "dumps", lambda value: dumped.append(value) or real_dumps(value)
        )
        seen, results = self.received(registry, FunctionKind.FENCED, argument)
        assert len(dumped) == 4  # argument and result, both calls
        for value in seen + results:
            assert value == argument and value is not argument
            assert self.payload_of(value) is not self.payload_of(argument)

    @pytest.mark.parametrize("argument", ARGUMENTS, ids=repr)
    def test_builtin_passes_identity(self, registry, argument):
        seen, results = self.received(registry, FunctionKind.BUILTIN, argument)
        assert all(value is argument for value in seen + results)

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


class TestBuiltins:
    def test_length_null(self, registry):
        assert registry.call_scalar("length", [None]) is None

    def test_substr_one_based(self, registry):
        assert registry.call_scalar("substr", ["HAMLET", 5]) == "ET"
        assert registry.call_scalar("substr", ["HAMLET", 1, 3]) == "HAM"

    def test_concat_null_propagates(self, registry):
        assert registry.call_scalar("concat", ["a", None]) is None
