"""The interactive shell (python -m repro)."""

import io

import pytest

from repro.cli import Shell, main
from repro.engine.database import Database
from repro.mapping import map_xorator
from repro.shred import load_documents
from repro.xadt import register_xadt_functions


@pytest.fixture()
def shell(plays_simplified, plays_docs):
    db = Database("cli")
    register_xadt_functions(db)
    schema = map_xorator(plays_simplified)
    load_documents(db, schema, plays_docs)
    db.runstats()
    out = io.StringIO()
    return Shell(db, schema, out), out


class TestShellCommands:
    def test_sql_statement(self, shell):
        sh, out = shell
        assert sh.handle("SELECT COUNT(*) FROM speech")
        assert "record(s) selected" in out.getvalue()

    def test_list_tables(self, shell):
        sh, out = shell
        sh.handle("\\dt")
        text = out.getvalue()
        assert "speech" in text and "play" in text

    def test_describe(self, shell):
        sh, out = shell
        sh.handle("\\d speech")
        assert "speech_speaker" in out.getvalue()

    def test_explain(self, shell):
        sh, out = shell
        sh.handle("\\explain SELECT speechID FROM speech")
        assert "SeqScan" in out.getvalue()

    def test_path_query(self, shell):
        sh, out = shell
        sh.handle("\\path /PLAY/ACT/SPEECH/SPEAKER")
        text = out.getvalue()
        assert "compiled for the xorator schema" in text
        assert "getElm" in text
        assert "record(s) selected" in text

    def test_io_counters(self, shell):
        sh, out = shell
        sh.handle("SELECT COUNT(*) FROM speech")
        sh.handle("\\io")
        assert "sequential pages" in out.getvalue()

    def test_errors_are_reported_not_raised(self, shell):
        sh, out = shell
        assert sh.handle("SELECT nope FROM ghost")
        assert "error:" in out.getvalue()
        assert sh.handle("\\path /GHOST/X")
        assert sh.handle("\\bogus")

    def test_analyze(self, shell):
        sh, out = shell
        sh.handle("\\analyze SELECT speechID FROM speech")
        text = out.getvalue()
        assert "actual" in text and "phases:" in text
        assert "record(s) selected" in text

    def test_metrics(self, shell):
        # the values are a view; the bare command only says so
        sh, out = shell
        sh.handle("SELECT COUNT(*) FROM speech")
        sh.handle("SELECT name, value FROM sys_metrics WHERE name LIKE 'plan_cache.%'")
        assert "plan_cache.misses" in out.getvalue()
        sh.handle("\\metrics")
        assert "usage: \\metrics json|prom|reset" in out.getvalue()
        assert "sys_metrics" in out.getvalue().splitlines()[-1]

    def test_metrics_json(self, shell):
        import json

        sh, out = shell
        sh.handle("\\metrics json")
        payload = json.loads(out.getvalue())
        assert "counters" in payload and "histograms" in payload

    def test_trace_on_dump_off(self, shell, tmp_path):
        import json

        sh, out = shell
        sh.handle("\\trace on")
        sh.handle("SELECT COUNT(*) FROM speech")
        target = tmp_path / "trace.json"
        sh.handle(f"\\trace dump {target}")
        sh.handle("\\trace off")
        payload = json.loads(target.read_text(encoding="utf-8"))
        names = {event["name"] for event in payload["traceEvents"]}
        assert "query" in names
        assert "written to" in out.getvalue()

    def test_sessions_listing(self, shell):
        # sys_sessions lists the open sessions; there is no \\sessions
        sh, out = shell
        sh.handle("SELECT COUNT(*) FROM speech")
        session = sh.db.connect(name="reporting")
        session.execute("SELECT COUNT(*) FROM speech")
        sh.handle("SELECT name, selects FROM sys_sessions ORDER BY name")
        text = " ".join(out.getvalue().split())
        assert "default" in text and "reporting 1" in text
        sh.handle("\\sessions")
        assert "unknown command" in out.getvalue().splitlines()[-1]
        session.close()

    def test_metrics_prom(self, shell):
        sh, out = shell
        sh.handle("\\metrics prom")
        text = out.getvalue()
        assert "# TYPE repro_plan_cache_hits counter" in text
        assert 'le="+Inf"' in text

    def test_statements_commands(self, shell):
        from repro.obs import STATEMENTS

        sh, out = shell
        try:
            sh.handle("\\statements on")
            sh.handle("SELECT COUNT(*) FROM speech")
            sh.handle("SELECT COUNT(*) FROM speech")
            sh.handle(
                "SELECT calls, query FROM sys_statements "
                "WHERE query LIKE 'SELECT COUNT%'"
            )
            sh.handle("\\waits")
        finally:
            sh.handle("\\statements off")
            sh.handle("\\statements reset")
        text = out.getvalue()
        assert "2 SELECT COUNT(*) FROM speech" in " ".join(text.split())
        assert "wait profile" in text and "execute" in text
        assert not STATEMENTS.enabled

    def test_statements_off_hint(self, shell):
        sh, out = shell
        sh.handle("\\statements")
        assert "enable with \\statements on" in out.getvalue()

    def test_slowlog_attach_and_tail(self, shell, tmp_path):
        from repro.obs import STATEMENTS

        sh, out = shell
        target = tmp_path / "slow.jsonl"
        try:
            sh.handle("\\statements on")
            sh.handle(f"\\slowlog set {target} 0.0")
            sh.handle("SELECT COUNT(*) FROM speech")
            sh.handle("\\slowlog 5")
        finally:
            sh.handle("\\slowlog off")
            sh.handle("\\statements off")
            sh.handle("\\statements reset")
        text = out.getvalue()
        assert "slow-query log ->" in text
        assert "SELECT COUNT(*) FROM speech" in text
        assert target.exists()
        assert STATEMENTS.slow_log is None

    def test_slowlog_detached_hint(self, shell):
        sh, out = shell
        sh.handle("\\slowlog")
        assert "not attached" in out.getvalue()

    def test_sys_views_via_sql(self, shell):
        sh, out = shell
        sh.handle("SELECT table_name, row_count FROM sys_tables")
        text = out.getvalue()
        assert "speech" in text
        assert "record(s) selected" in text

    def test_backends_listing(self, shell):
        sh, out = shell
        sh.handle("\\backends")
        text = out.getvalue()
        assert "native (default)" in text and "sqlite" in text

    def test_backends_shows_compiled_sql(self, shell):
        sh, out = shell
        sh.handle("\\backends SELECT speechID FROM speech")
        text = out.getvalue()
        assert 'FROM "speech"' in text

    def test_difftest_reports_clean_run(self, shell):
        sh, out = shell
        sh.handle("\\difftest 15 3")
        text = out.getvalue()
        assert "seed=3" in text
        assert "15/15 executed" in text
        assert "DIVERGENCE" not in text

    def test_quit(self, shell):
        sh, _ = shell
        assert sh.handle("\\q") is False

    def test_blank_lines_ignored(self, shell):
        sh, out = shell
        assert sh.handle("   ")
        assert out.getvalue() == ""


class TestMainEntry:
    def test_execute_flag(self):
        out = io.StringIO()
        code = main(
            ["--dataset", "plays", "--algorithm", "hybrid",
             "--execute", "SELECT COUNT(*) FROM speech"],
            stdin=io.StringIO(""),
            stdout=out,
        )
        assert code == 0
        assert "record(s) selected" in out.getvalue()

    def test_path_flag(self):
        out = io.StringIO()
        code = main(
            ["--dataset", "plays", "--path", "/PLAY/ACT/SPEECH/SPEAKER"],
            stdin=io.StringIO(""),
            stdout=out,
        )
        assert code == 0
        assert "compiled for the xorator schema" in out.getvalue()

    def test_piped_session(self):
        out = io.StringIO()
        code = main(
            ["--dataset", "plays"],
            stdin=io.StringIO("\\dt\nSELECT COUNT(*) FROM play\n\\q\n"),
            stdout=out,
        )
        assert code == 0
        assert "record(s) selected" in out.getvalue()
