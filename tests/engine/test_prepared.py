"""Prepared statements: parameter binding and the prepared execute path."""

import pytest

from repro.engine import Database
from repro.errors import ExecutionError, PlanError


@pytest.fixture()
def db():
    database = Database("prepared")
    database.execute(
        "CREATE TABLE speech (speechID INTEGER PRIMARY KEY, "
        "parentID INTEGER, code VARCHAR, ord INTEGER)"
    )
    database.bulk_insert(
        "speech",
        [
            (i, i % 4, "ACT" if i % 2 == 0 else "SCENE", i % 3 + 1)
            for i in range(40)
        ],
    )
    database.runstats()
    return database


class TestBinding:
    def test_zero_parameters(self, db):
        prepared = db.prepare("SELECT speechID FROM speech WHERE code = 'ACT'")
        assert prepared.parameter_count == 0
        assert len(prepared.execute()) == 20

    def test_one_parameter(self, db):
        prepared = db.prepare("SELECT speechID FROM speech WHERE code = ?")
        assert prepared.parameter_count == 1
        assert len(prepared.execute("ACT")) == 20
        assert len(prepared.execute("SCENE")) == 20
        assert len(prepared.execute("NOPE")) == 0

    def test_many_parameters(self, db):
        prepared = db.prepare(
            "SELECT speechID FROM speech "
            "WHERE code = ? AND ord = ? AND speechID < ?"
        )
        assert prepared.parameter_count == 3
        rows = prepared.execute("ACT", 1, 10)
        assert all(sid < 10 for (sid,) in rows)

    def test_rebinding_changes_results_not_plan(self, db):
        prepared = db.prepare("SELECT speechID FROM speech WHERE parentID = ?")
        first = sorted(prepared.execute(0).column("speechID"))
        second = sorted(prepared.execute(1).column("speechID"))
        assert first != second
        assert first == sorted(
            db.execute(
                "SELECT speechID FROM speech WHERE parentID = 0"
            ).column("speechID")
        )

    def test_arity_mismatch(self, db):
        prepared = db.prepare("SELECT speechID FROM speech WHERE code = ?")
        with pytest.raises(ExecutionError, match="1 parameter"):
            prepared.execute()
        with pytest.raises(ExecutionError, match="1 parameter"):
            prepared.execute("ACT", "SCENE")

    def test_unsupported_bind_type(self, db):
        prepared = db.prepare("SELECT speechID FROM speech WHERE code = ?")
        with pytest.raises(ExecutionError, match="unsupported type"):
            prepared.execute(["ACT"])

    def test_null_bind(self, db):
        db.insert("speech", (99, None, None, None))
        prepared = db.prepare("SELECT speechID FROM speech WHERE code = ?")
        # NULL never compares equal (SQL three-valued logic)
        assert len(prepared.execute(None)) == 0

    def test_marker_outside_prepared_context(self, db):
        # execute() with markers but no bind values: arity error, at bind
        # time, not a silently NULL parameter
        with pytest.raises(ExecutionError, match="parameter"):
            db.execute("SELECT speechID FROM speech WHERE code = ?")

    def test_marker_in_plain_expression_context_rejected(self, db):
        from repro.engine.expr import Binding, Parameter
        from tests.engine.reference_expr import compile_expr
        from repro.engine.udf import FunctionRegistry

        with pytest.raises(PlanError, match="prepared statement"):
            compile_expr(Parameter(0), Binding([]), FunctionRegistry())


class TestPreparedPath:
    def test_results_match_cold_run(self, db):
        sql = (
            "SELECT code, ord, speechID FROM speech "
            "WHERE parentID = 2 ORDER BY speechID"
        )
        cold = Database("cold", plan_cache_capacity=0)
        cold.execute(
            "CREATE TABLE speech (speechID INTEGER PRIMARY KEY, "
            "parentID INTEGER, code VARCHAR, ord INTEGER)"
        )
        cold.bulk_insert("speech", list(db.heap("speech").scan()))
        cold.runstats()
        prepared = db.prepare(sql)
        warm_rows = [list(prepared.execute()) for _ in range(3)]
        cold_rows = list(cold.execute(sql))
        assert warm_rows[0] == warm_rows[1] == warm_rows[2] == cold_rows

    def test_prepared_select_sees_new_rows(self, db):
        prepared = db.prepare("SELECT speechID FROM speech WHERE code = ?")
        before = len(prepared.execute("ACT"))
        db.insert("speech", (100, 0, "ACT", 1))
        assert len(prepared.execute("ACT")) == before + 1

    def test_execute_many_insert(self, db):
        results = db.execute_many(
            "INSERT INTO speech VALUES (?, ?, ?, ?)",
            [(200, 0, "ACT", 1), (201, 1, "SCENE", 2)],
        )
        assert [r.scalar() for r in results] == [1, 1]
        assert db.execute(
            "SELECT speechID FROM speech WHERE speechID = 201"
        ).column("speechID") == [201]

    def test_execute_with_params_list(self, db):
        result = db.execute(
            "SELECT speechID FROM speech WHERE code = ? AND speechID < ?",
            ("ACT", 6),
        )
        assert sorted(result.column("speechID")) == [0, 2, 4]

    def test_ddl_takes_no_parameters(self, db):
        with pytest.raises(ExecutionError, match="no parameters"):
            db.execute("DROP TABLE speech", ("x",))

    def test_parameterized_probe_uses_index(self):
        # big enough that the cost model prefers the index probe
        db = Database("probe")
        db.execute(
            "CREATE TABLE words (wordID INTEGER PRIMARY KEY, word VARCHAR)"
        )
        db.bulk_insert("words", [(i, f"word-{i}") for i in range(2000)])
        db.create_index("idx_word_id", "words", "wordID", "btree")
        db.runstats()
        prepared = db.prepare("SELECT word FROM words WHERE wordID = ?")
        assert prepared.execute(4).column("word") == ["word-4"]
        assert prepared.execute(5).column("word") == ["word-5"]
        plan = prepared.explain()
        assert "IndexScan" in plan
        assert "key = ?" in plan

    def test_repr_shows_parameter_count(self, db):
        prepared = db.prepare("SELECT speechID FROM speech WHERE code = ?")
        assert "1 parameter" in repr(prepared)
