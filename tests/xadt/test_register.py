"""The XADT's SQL surface: registered methods, QE1/QE2 end to end."""

import pytest

from repro.engine.types import INTEGER
from repro.engine.udf import FunctionKind
from repro.errors import UdfError
from repro.xadt import XadtValue, register_xadt_functions


class TestRegistration:
    def test_methods_installed(self, empty_db):
        registry = empty_db.registry
        for name in ("getElm", "findKeyInElm", "getElmIndex", "elmText",
                     "xadt", "udf_length", "udf_substr"):
            assert registry.has_scalar(name)
        assert registry.has_table_function("unnest")

    def test_methods_are_not_fenced_by_default(self, empty_db):
        assert empty_db.registry.scalar("getElm").kind is FunctionKind.NOT_FENCED

    def test_fenced_mode(self, empty_db):
        # FENCED survives as the Fig. 14 ablation's twins only
        for name in ("fenced_length", "fenced_substr"):
            assert empty_db.registry.scalar(name).kind is FunctionKind.FENCED

    def test_double_registration_rejected(self, empty_db):
        with pytest.raises(UdfError):
            register_xadt_functions(empty_db)


class TestSqlSurface:
    @pytest.fixture()
    def db(self, empty_db):
        empty_db.execute(
            "CREATE TABLE speech (speechID INTEGER PRIMARY KEY, "
            "speech_speaker XADT, speech_line XADT)"
        )
        empty_db.insert("speech", (
            1,
            XadtValue.from_xml("<SPEAKER>HAMLET</SPEAKER>"),
            XadtValue.from_xml(
                "<LINE>my excellent good friend</LINE><LINE>second line</LINE>"
            ),
        ))
        empty_db.insert("speech", (
            2,
            XadtValue.from_xml("<SPEAKER>HORATIO</SPEAKER>"),
            XadtValue.from_xml("<LINE>hail to your lordship</LINE>"),
        ))
        return empty_db

    def test_find_key_in_where(self, db):
        result = db.execute(
            "SELECT speechID FROM speech "
            "WHERE findKeyInElm(speech_speaker, 'SPEAKER', 'HAMLET') = 1"
        )
        assert result.column("speechID") == [1]

    def test_get_elm_in_select(self, db):
        result = db.execute(
            "SELECT getElm(speech_line, 'LINE', 'LINE', 'friend') FROM speech "
            "WHERE speechID = 1"
        )
        assert result.scalar().to_xml() == "<LINE>my excellent good friend</LINE>"

    def test_get_elm_four_arg_form(self, db):
        result = db.execute(
            "SELECT getElm(speech_line, 'LINE', '', '') FROM speech WHERE speechID = 2"
        )
        assert "lordship" in result.scalar().to_xml()

    def test_get_elm_five_arg_form_with_level(self, db):
        result = db.execute(
            "SELECT getElm(speech_line, 'LINE', 'LINE', 'friend', 0) "
            "FROM speech WHERE speechID = 1"
        )
        assert not result.scalar().is_empty()

    def test_get_elm_index_in_select(self, db):
        result = db.execute(
            "SELECT getElmIndex(speech_line, '', 'LINE', 2, 2) FROM speech "
            "WHERE speechID = 1"
        )
        assert result.scalar().to_xml() == "<LINE>second line</LINE>"

    def test_elm_text(self, db):
        result = db.execute(
            "SELECT elmText(speech_speaker) FROM speech ORDER BY speechID"
        )
        assert result.column("elmtext") == ["HAMLET", "HORATIO"]

    def test_xadt_constructor(self, db):
        result = db.execute("SELECT xadt('<x>1</x>') FROM speech LIMIT 1")
        assert result.scalar().to_xml() == "<x>1</x>"

    def test_udf_invocation_counted(self, db):
        db.reset_function_stats()
        db.execute(
            "SELECT speechID FROM speech "
            "WHERE findKeyInElm(speech_speaker, 'SPEAKER', 'X') = 1"
        )
        assert db.registry.stats.scalar_calls["findKeyInElm"] == 2

    def test_wrong_arity_rejected(self, db):
        with pytest.raises(UdfError):
            db.execute("SELECT getElm(speech_line) FROM speech")

    def test_table_function_arity_checked_at_compile_time(self, db):
        # formerly a bare TypeError from unnest's Python signature
        for call in ("unnest()", "unnest(speech_line, 'a', 'b', 'c')"):
            sql = f"SELECT * FROM speech, TABLE({call}) u"
            with pytest.raises(UdfError, match="unnest.*arguments"):
                db.explain(sql)  # planning alone finds out: no row is read
        assert "unnest" not in db.registry.stats.table_calls

    def test_unknown_function_is_a_compile_time_udf_error(self, db):
        with pytest.raises(UdfError, match="ghost"):
            db.explain("SELECT ghost(speechID) FROM speech")

    def test_table_function_failures_wrapped(self, db):
        def fails_on_call(value):
            raise ValueError("call")

        def fails_on_second_row(value):
            yield (1,)
            raise ValueError("row two")

        registry = db.registry
        registry.register_table("fails_on_call", fails_on_call, [("x", INTEGER)])
        registry.register_table(
            "fails_on_second_row", fails_on_second_row, [("x", INTEGER)],
            FunctionKind.FENCED,
        )
        registry.register_table(
            "lazy_failure", fails_on_second_row, [("x", INTEGER)]
        )
        for name, detail in (
            ("fails_on_call", "call"),
            ("fails_on_second_row", "row two"),
            ("lazy_failure", "row two"),
        ):
            with pytest.raises(UdfError, match=f"{name}.*ValueError: {detail}"):
                db.execute(f"SELECT u.x FROM speech, TABLE({name}(speechID)) u")

    def test_table_function_library_errors_pass_through(self, db):
        from repro.errors import XadtCodecError

        with pytest.raises(XadtCodecError):
            db.execute("SELECT u.out FROM speech, TABLE(unnest(speechID)) u")
