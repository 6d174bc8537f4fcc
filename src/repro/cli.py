"""Interactive shell over a loaded corpus (a tiny DB2-CLP stand-in).

Usage::

    python -m repro [--dataset shakespeare|sigmod|plays]
                    [--algorithm xorator|hybrid] [--scale N]
                    [--execute SQL] [--path PATHQUERY]

Without ``--execute``/``--path``, an interactive prompt opens.  Shell
commands (interactive or piped):

* any SQL statement — executed and rendered DB2-CLP-style (the WAL's
  status, the open sessions, the metrics and the statement statistics
  are ``SELECT * FROM sys_wal`` / ``sys_sessions`` / ``sys_metrics`` /
  ``sys_statements``);
* ``\\dt`` — list tables with row counts and sizes;
* ``\\d <table>`` — describe a table;
* ``\\explain <sql>`` — show the physical plan;
* ``\\analyze <sql>`` — EXPLAIN ANALYZE: run the query and show actual
  vs. estimated rows and per-operator timings;
* ``\\path <pathquery>`` — compile a path query for the loaded schema,
  show the SQL, and run it;
* ``\\io`` — I/O counters of the last statement (the simulated disk);
* ``\\cache`` — plan-cache and XADT decode-cache counters;
* ``\\metrics json|prom|reset`` — dump the process metrics registry (as
  JSON, or in the Prometheus text exposition format) or clear it;
* ``\\statements on|off|reset`` — toggle or clear the statement-level
  statistics collector;
* ``\\waits`` — database-wide wait profile (where statement wall time
  went: parse, plan, execute, wal.fsync, network, ...);
* ``\\slowlog [N|set <file> [threshold_ms]|off]`` — the slow-query log:
  show the most recent entries, attach a JSONL log file, or detach;
* ``\\trace on|off|dump [file]`` — query tracing (Chrome trace format);
* ``\\governor [set <limit> <value>|off]`` — show or change the resource
  governor's database-wide limits (``timeout`` seconds, ``rows``,
  ``bytes``, ``memory``) and its abort counts;
* ``\\backends [sql]`` — list execution backends, or show the SQL the
  sqlite backend compiles for a statement;
* ``\\difftest [N] [seed]`` — differentially execute N seeded random
  queries on the native engine and the sqlite backend and report any
  divergence;
* ``\\server [start [port]|status|stop]`` — the network front-end: start
  a TCP server over the loaded database on a background thread, show
  its pool/admission/connection state, or drain and stop it;
* ``\\q`` — quit.

``--serve [--host H] [--port P]`` skips the prompt entirely and runs the
server in the foreground until SIGINT/SIGTERM, then drains gracefully.
"""

from __future__ import annotations

import argparse
import sys
from typing import TextIO

from repro.bench.harness import build_pair
from repro.engine.database import Database
from repro.errors import ReproError
from repro.mapping.base import MappedSchema
from repro.obs import METRICS, STATEMENTS, TRACER, SlowQueryLog
from repro.obs.prometheus import render_prometheus
from repro.xquery import compile_path, parse_path


class Shell:
    """Command dispatcher bound to one loaded database."""

    def __init__(self, db: Database, schema: MappedSchema, out: TextIO):
        self.db = db
        self.schema = schema
        self.out = out
        self._server_handle = None

    def handle(self, line: str) -> bool:
        """Process one input line; returns False when the shell should exit."""
        line = line.strip()
        if not line:
            return True
        try:
            if line in ("\\q", "\\quit", "quit", "exit"):
                return False
            if line == "\\dt":
                self._list_tables()
            elif line.startswith("\\d "):
                self._describe(line[3:].strip())
            elif line.startswith("\\explain "):
                self._print(self.db.explain(line[len("\\explain "):]))
            elif line.startswith("\\analyze "):
                self._run_analyze(line[len("\\analyze "):])
            elif line.startswith("\\path "):
                self._run_path(line[len("\\path "):].strip())
            elif line == "\\io":
                self._print_io()
            elif line == "\\cache":
                self._print_caches()
            elif line == "\\metrics" or line.startswith("\\metrics "):
                self._run_metrics(line[len("\\metrics"):].strip())
            elif line == "\\statements" or line.startswith("\\statements "):
                self._run_statements(line[len("\\statements"):].strip())
            elif line == "\\waits":
                self._print_waits()
            elif line == "\\slowlog" or line.startswith("\\slowlog "):
                self._run_slowlog(line[len("\\slowlog"):].strip())
            elif line.startswith("\\trace"):
                self._run_trace(line[len("\\trace"):].strip())
            elif line == "\\governor" or line.startswith("\\governor "):
                self._run_governor(line[len("\\governor"):].strip())
            elif line == "\\backends" or line.startswith("\\backends "):
                self._run_backends(line[len("\\backends"):].strip())
            elif line == "\\difftest" or line.startswith("\\difftest "):
                self._run_difftest(line[len("\\difftest"):].strip())
            elif line == "\\server" or line.startswith("\\server "):
                self._run_server(line[len("\\server"):].strip())
            elif line.startswith("\\"):
                self._print(f"unknown command {line.split()[0]!r}; try \\dt, "
                            f"\\d, \\explain, \\analyze, \\path, \\io, "
                            f"\\cache, \\metrics, \\statements, "
                            f"\\waits, \\slowlog, \\trace, \\governor, "
                            f"\\backends, \\difftest, \\server, \\q")
            else:
                self._run_sql(line)
        except ReproError as exc:
            self._print(f"error: {exc}")
        return True

    # -- commands ---------------------------------------------------------

    def _run_sql(self, sql: str) -> None:
        self.db.io.reset()
        result = self.db.execute(sql)
        self._print(result.to_table())

    def _run_path(self, path_text: str) -> None:
        compiled = compile_path(parse_path(path_text), self.schema)
        self._print(f"-- compiled for the {self.schema.algorithm} schema --")
        self._print(compiled.sql)
        self._print("")
        self.db.io.reset()
        self._print(self.db.execute(compiled.sql).to_table())

    def _list_tables(self) -> None:
        self._print(f"{'table':16}{'rows':>10}{'data KB':>10}{'indexes':>9}")
        for name in sorted(self.db.catalog.table_names()):
            heap = self.db.heap(name)
            self._print(
                f"{name:16}{heap.row_count():>10}"
                f"{heap.data_bytes() // 1024:>10}"
                f"{len(self.db.catalog.indexes_on(name)):>9}"
            )

    def _describe(self, name: str) -> None:
        schema = self.db.catalog.table(name)
        for column in schema.columns:
            marker = " PRIMARY KEY" if column.primary_key else ""
            self._print(f"  {column.name:28}{column.sql_type!r}{marker}")

    def _print_io(self) -> None:
        io = self.db.io
        self._print(
            f"sequential pages: {io.sequential_pages}, random: "
            f"{io.random_pages}, spill: {io.spill_pages}, modeled disk "
            f"time: {io.disk_seconds() * 1000:.1f} ms"
        )
        counted = ", ".join(
            f"{name} {count}" for name, count in io.work.items() if count
        )
        self._print(
            f"counted work: {counted or 'none'}, modeled cpu time: "
            f"{io.cpu_seconds() * 1000:.1f} ms"
        )

    def _print_caches(self) -> None:
        report = self.db.size_report()
        plan = report["plan_cache"]
        decode = report["xadt_decode_cache"]
        self._print(
            f"plan cache: {plan['entries']}/{plan['capacity']} entries, "
            f"{plan['hits']} hits, {plan['misses']} misses, "
            f"{plan['evictions']} evictions, "
            f"{plan['invalidations']} invalidations "
            f"(hit rate {plan['hit_rate']:.0%})"
        )
        state = "on" if decode["enabled"] else "off"
        self._print(
            f"decode cache ({state}): {decode['entries']} entries, "
            f"{decode['current_bytes']}/{decode['budget_bytes']} bytes, "
            f"{decode['hits']} hits, {decode['misses']} misses, "
            f"{decode['evictions']} evictions, "
            f"{decode['oversize_rejections']} oversize "
            f"(hit rate {decode['hit_rate']:.0%})"
        )

    def _run_analyze(self, sql: str) -> None:
        self.db.io.reset()
        report = self.db.explain_analyze(sql)
        self._print(report.text())
        self._print(f"{len(report.result)} record(s) selected.")

    def _run_metrics(self, argument: str) -> None:
        if argument == "json":
            self._print(METRICS.to_json(indent=2))
            return
        if argument == "prom":
            self._print(render_prometheus(METRICS.snapshot()).rstrip("\n"))
            return
        if argument == "reset":
            METRICS.reset()
            self._print("metrics reset.")
            return
        self._print(
            "usage: \\metrics json|prom|reset "
            "(the values: SELECT * FROM sys_metrics)"
        )

    def _run_statements(self, argument: str) -> None:
        if argument == "on":
            STATEMENTS.enable()
            self._print("statement statistics on.")
            return
        if argument == "off":
            STATEMENTS.disable()
            self._print("statement statistics off.")
            return
        if argument == "reset":
            STATEMENTS.reset()
            self._print("statement statistics reset.")
            return
        state = "on" if STATEMENTS.enabled else "off"
        self._print(
            f"statement statistics are {state}"
            + ("" if STATEMENTS.enabled else "; enable with \\statements on")
            + "; usage: \\statements on|off|reset "
            "(the statistics: SELECT * FROM sys_statements)"
        )

    def _print_waits(self) -> None:
        totals = STATEMENTS.wait_totals()
        if not totals:
            state = "on" if STATEMENTS.enabled else "off"
            self._print(
                f"wait profile ({state}): nothing recorded"
                + ("" if STATEMENTS.enabled
                   else "; enable with \\statements on")
            )
            return
        wall = sum(totals.values())
        self._print(f"wait profile ({wall * 1000:.2f} ms observed wall):")
        for name, seconds in sorted(
            totals.items(), key=lambda item: item[1], reverse=True
        ):
            share = seconds / wall if wall else 0.0
            self._print(
                f"  {name:20}{seconds * 1000:>12.2f} ms{share:>8.1%}"
            )

    def _run_slowlog(self, argument: str) -> None:
        parts = argument.split()
        if parts and parts[0] == "set":
            if len(parts) not in (2, 3):
                self._print("usage: \\slowlog [N|set <file> [threshold_ms]"
                            "|off]")
                return
            threshold = 100.0
            if len(parts) == 3:
                try:
                    threshold = float(parts[2])
                except ValueError:
                    self._print(f"not a number: {parts[2]!r}")
                    return
            STATEMENTS.attach_slow_log(
                SlowQueryLog(parts[1], threshold_ms=threshold)
            )
            self._print(
                f"slow-query log -> {parts[1]} (threshold {threshold} ms)"
            )
            return
        if parts and parts[0] == "off":
            STATEMENTS.attach_slow_log(None)
            self._print("slow-query log detached.")
            return
        if parts:
            try:
                count = int(parts[0])
            except ValueError:
                self._print("usage: \\slowlog [N|set <file> [threshold_ms]"
                            "|off]")
                return
        else:
            count = 10
        log = STATEMENTS.slow_log
        if log is None:
            self._print(
                "slow-query log: not attached; "
                "attach with \\slowlog set <file> [threshold_ms]"
            )
            return
        self._print(
            f"slow-query log: {log.path} (threshold {log.threshold_ms} ms, "
            f"{log.entries_written} written, {log.rotations} rotation(s))"
        )
        for record in log.tail(count):
            error = record.get("error")
            suffix = f"  [{error}]" if error else ""
            self._print(
                f"  {record['ms']:>10.2f} ms  session {record['session']}"
                f"  {record['key']}{suffix}"
            )

    def _run_trace(self, argument: str) -> None:
        parts = argument.split(None, 1)
        verb = parts[0] if parts else ""
        if verb == "on":
            TRACER.enabled = True
            self._print("tracing on.")
        elif verb == "off":
            TRACER.enabled = False
            self._print("tracing off.")
        elif verb == "dump":
            text = TRACER.to_json(indent=2)
            if len(parts) == 2:
                with open(parts[1], "w", encoding="utf-8") as handle:
                    handle.write(text)
                self._print(
                    f"{len(TRACER.events)} event(s) written to {parts[1]}"
                )
            else:
                self._print(text)
        else:
            self._print("usage: \\trace on|off|dump [file]")

    #: \governor set <name> maps to a GovernorLimits field
    _GOVERNOR_LIMITS = {
        "timeout": "statement_timeout_seconds",
        "rows": "max_result_rows",
        "bytes": "max_result_bytes",
        "memory": "memory_budget_bytes",
    }

    def _run_governor(self, argument: str) -> None:
        parts = argument.split()
        if parts:
            governor = self.db.governor
            if parts[0] == "off" and len(parts) == 1:
                for field in self._GOVERNOR_LIMITS.values():
                    governor.configure(**{field: None})
                self._print("governor limits cleared.")
            elif (parts[0] == "set" and len(parts) == 3
                  and parts[1] in self._GOVERNOR_LIMITS):
                field = self._GOVERNOR_LIMITS[parts[1]]
                try:
                    value = (float(parts[2]) if parts[1] == "timeout"
                             else int(parts[2]))
                except ValueError:
                    self._print(f"not a number: {parts[2]!r}")
                    return
                governor.configure(**{field: value})
                self._print(f"governor {parts[1]} set to {parts[2]}.")
            else:
                self._print(
                    "usage: \\governor [set timeout|rows|bytes|memory "
                    "<value> | off]"
                )
                return
        report = self.db.governor.report()
        limits = report["limits"]
        rendered = ", ".join(
            f"{short}={limits[field] if limits[field] is not None else 'off'}"
            for short, field in self._GOVERNOR_LIMITS.items()
        )
        self._print(f"limits: {rendered}")
        self._print(
            f"governed statements: {report['statements_governed']}; aborts: "
            f"{report['timeouts']} timeout, {report['row_cap_aborts']} row "
            f"cap, {report['byte_cap_aborts']} byte cap, "
            f"{report['memory_cap_aborts']} memory cap"
        )

    def _run_backends(self, args: str) -> None:
        if not args:
            for name in self.db.backend_names():
                marker = " (default)" if name == "native" else ""
                self._print(f"{name}{marker}")
            return
        compiled = self.db.backend("sqlite").compile(args)
        self._print(compiled.text)

    def _run_difftest(self, args: str) -> None:
        from repro.difftest import run_difftest
        from repro.errors import ConfigError

        parts = args.split()
        try:
            count = int(parts[0]) if parts else 50
            seed = int(parts[1]) if len(parts) > 1 else 0
        except ValueError:
            # ConfigError keeps the failure inside the ReproError
            # taxonomy, so handle()'s catch-all renders it instead of
            # the shell dying on a bare ValueError
            raise ConfigError("usage: \\difftest [N] [seed]") from None
        report = run_difftest(self.db, self.schema, count=count, seed=seed)
        self._print(report.summary())
        for divergence in report.divergences[:5]:
            self._print(f"DIVERGENCE [{divergence.shape}] {divergence.sql}")
            self._print(
                f"  native {divergence.native_count} row(s), "
                f"{report.backend} {divergence.backend_count} row(s)"
            )

    def _run_server(self, args: str) -> None:
        from repro.errors import ConfigError
        from repro.server import CONNECTIONS, start_server_thread

        parts = args.split()
        verb = parts[0] if parts else "status"
        if verb == "start":
            if self._server_handle is not None:
                self._print(
                    f"server already running on "
                    f"{self._server_handle.host}:{self._server_handle.port}"
                )
                return
            try:
                port = int(parts[1]) if len(parts) > 1 else 0
            except ValueError:
                raise ConfigError(
                    "usage: \\server [start [port]|status|stop]"
                ) from None
            self._server_handle = start_server_thread(self.db, port=port)
            self._print(
                f"server listening on {self._server_handle.host}:"
                f"{self._server_handle.port}"
            )
        elif verb == "stop":
            if self._server_handle is None:
                self._print("server not running")
                return
            self._server_handle.stop()
            self._server_handle = None
            self._print("server drained and stopped.")
        elif verb == "status":
            handle = self._server_handle
            if handle is None:
                self._print(
                    "server not running; start with \\server start [port]"
                )
                return
            pool = handle.server.pool.report()
            admission = handle.server.admission.report()
            self._print(
                f"server on {handle.host}:{handle.port}; "
                f"{len(CONNECTIONS)} connection(s)"
            )
            self._print(
                f"pool: {pool['size']} session(s) "
                f"({pool['in_use']} in use, {pool['idle']} idle)"
            )
            self._print(
                f"admission: {admission['running']} running, "
                f"{admission['queued']} queued, {admission['admitted']} "
                f"admitted, {admission['shed']} shed"
                + (" [draining]" if admission["draining"] else "")
            )
        else:
            self._print("usage: \\server [start [port]|status|stop]")

    def _print(self, text: str) -> None:
        print(text, file=self.out)


def _serve(db: Database, host: str, port: int, out: TextIO) -> int:
    """Foreground server mode: run until SIGINT/SIGTERM, then drain."""
    import signal
    import threading

    from repro.server import start_server_thread

    handle = start_server_thread(db, host=host, port=port)
    print(
        f"serving on {handle.host}:{handle.port} "
        f"(SIGINT/SIGTERM drains and exits)",
        file=out,
    )
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, lambda *_: stop.set())
        except ValueError:  # not the main thread (embedded use)
            break
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    print("draining ...", file=out)
    handle.stop()
    print("server stopped.", file=out)
    return 0


def main(argv: list[str] | None = None, stdin: TextIO | None = None,
         stdout: TextIO | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--dataset", default="shakespeare",
                        choices=("shakespeare", "sigmod", "plays"))
    parser.add_argument("--algorithm", default="xorator",
                        choices=("xorator", "hybrid"))
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--execute", metavar="SQL",
                        help="run one SQL statement and exit")
    parser.add_argument("--path", metavar="PATHQUERY",
                        help="compile and run one path query and exit")
    parser.add_argument("--serve", action="store_true",
                        help="serve the loaded database over TCP until "
                             "SIGINT/SIGTERM, then drain")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address for --serve")
    parser.add_argument("--port", type=int, default=7401,
                        help="bind port for --serve (0 = ephemeral)")
    args = parser.parse_args(argv)

    out = stdout or sys.stdout
    source = stdin or sys.stdin

    print(
        f"loading {args.dataset} DSx{args.scale} under the "
        f"{args.algorithm} mapping ...",
        file=out,
    )
    pair = build_pair(args.dataset, args.scale)
    loaded = pair.side(args.algorithm)
    shell = Shell(loaded.db, loaded.schema, out)
    print(
        f"{loaded.db} | {len(loaded.index_ddl)} indexes | "
        f"type SQL, \\path <query>, or \\q",
        file=out,
    )

    if args.execute:
        shell.handle(args.execute)
        return 0
    if args.path:
        shell.handle(f"\\path {args.path}")
        return 0
    if args.serve:
        return _serve(loaded.db, args.host, args.port, out)

    interactive = source is sys.stdin and sys.stdin.isatty()
    while True:
        if interactive:
            try:
                line = input(f"{args.dataset}/{args.algorithm}> ")
            except (EOFError, KeyboardInterrupt):
                print("", file=out)
                return 0
        else:
            line = source.readline()
            if not line:
                return 0
        if not shell.handle(line):
            return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
