"""The exception hierarchy: one catchable base per subsystem."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "child,parent",
        [
            (errors.XmlSyntaxError, errors.XmlError),
            (errors.DtdSyntaxError, errors.DtdError),
            (errors.DtdValidationError, errors.DtdError),
            (errors.CatalogError, errors.EngineError),
            (errors.SqlSyntaxError, errors.EngineError),
            (errors.PlanError, errors.EngineError),
            (errors.ExecutionError, errors.EngineError),
            (errors.TypeMismatchError, errors.ExecutionError),
            (errors.UdfError, errors.EngineError),
            (errors.XadtCodecError, errors.XadtError),
            (errors.XadtMethodError, errors.XadtError),
        ],
    )
    def test_parentage(self, child, parent):
        assert issubclass(child, parent)
        assert issubclass(child, errors.ReproError)

    @pytest.mark.parametrize(
        "branch",
        [
            errors.XmlError, errors.DtdError, errors.EngineError,
            errors.XadtError, errors.MappingError, errors.ShreddingError,
            errors.GenerationError, errors.BenchmarkError,
        ],
    )
    def test_all_branches_under_repro_error(self, branch):
        assert issubclass(branch, errors.ReproError)

    def test_xquery_errors_are_catchable(self):
        from repro.xquery import PathCompileError, PathSyntaxError

        assert issubclass(PathCompileError, errors.ReproError)
        assert issubclass(PathSyntaxError, errors.ReproError)


class TestXmlSyntaxErrorLocation:
    def test_line_column_derivation(self):
        error = errors.XmlSyntaxError("boom", offset=6, text="abc\nde<f")
        assert error.line == 2
        assert error.column == 3
        assert "line 2" in str(error)

    def test_without_text_no_location(self):
        error = errors.XmlSyntaxError("boom")
        assert error.line is None
        assert "line" not in str(error)

    def test_one_base_catches_everything(self):
        from repro import Database

        with pytest.raises(errors.ReproError):
            Database().execute("SELEC")


class TestTableFunctionMisuse:
    @pytest.mark.parametrize(
        "from_clause",
        ["t, TABLE(unnest()) u", "t, TABLE(unnest(x, 'b', 'c', 'd')) u"],
    )
    def test_stays_in_the_taxonomy(self, from_clause):
        from repro import Database
        from repro.xadt import register_xadt_functions

        db = Database()
        register_xadt_functions(db)
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x XADT)")
        with pytest.raises(errors.UdfError):
            db.execute(f"SELECT * FROM {from_clause}")
