"""Ablation: XADT metadata (the paper's §4.4/§5 proposal, implemented).

    "Perhaps, if we have the metadata associated with each XADT attribute
    to help us quickly access the starting position of each element
    stored inside the XADT data, the performance may be improved."

Compares the ``indexed`` codec (plain text + a per-fragment element-span
directory) against the plain codec on QS6-style order access — the query
where the paper found the XADT scan costly — and reports the storage tax
of the directory.  The comparisons read the model (``cold_query``:
modeled CPU seconds and ``xadt_bytes_scanned``); host wall is printed
beside, labelled as wall, and gates nothing.
"""

import pytest
from conftest import print_report

from repro.bench.harness import build_database, cold_query
from repro.datagen.shakespeare import ShakespeareConfig, generate_corpus
from repro.dtd import samples
from repro.mapping import map_xorator
from repro.mapping.base import ColumnKind
from repro.workloads import SHAKESPEARE_QUERIES, find_query


@pytest.fixture(scope="module")
def databases():
    documents = generate_corpus(ShakespeareConfig(plays=6))
    simplified = samples.shakespeare_simplified()
    schema = map_xorator(simplified)
    from repro.workloads.shakespeare_queries import workload_sql

    plain = build_database("plain", schema, documents, workload_sql("xorator"))
    indexed_codecs = {
        f"{table.name}.{column.name}": "indexed"
        for table in schema.tables
        for column in table.columns
        if column.kind is ColumnKind.XADT
    }

    from repro.engine.database import Database
    from repro.shred import load_documents
    from repro.xadt import register_xadt_functions

    indexed_db = Database("indexed")
    register_xadt_functions(indexed_db)
    load_documents(indexed_db, map_xorator(simplified), documents, indexed_codecs)
    indexed_db.apply_index_advice(workload_sql("xorator"))
    indexed_db.runstats()
    return plain.db, indexed_db


def _model_lines(plain_run, indexed_run) -> str:
    """The plain / indexed comparison as the model charges it."""
    lines = [
        f"{label:7} codec : {run.cpu_seconds * 1000:8.3f} ms modeled CPU, "
        f"{run.work['xadt_bytes_scanned']:>9} XADT bytes scanned "
        f"({run.wall_seconds * 1000:.2f} ms host wall)"
        for label, run in (("plain", plain_run), ("indexed", indexed_run))
    ]
    lines.append(
        f"modeled CPU speedup : "
        f"{plain_run.cpu_seconds / indexed_run.cpu_seconds:.2f}x"
    )
    return "\n".join(lines)


def test_order_access_speedup(databases, benchmark):
    plain_db, indexed_db = databases
    query = find_query(SHAKESPEARE_QUERIES, "QS6")
    plain_run = cold_query(plain_db, query.xorator_sql)
    indexed_run = cold_query(indexed_db, query.xorator_sql)
    storage_plain = plain_db.data_size_bytes()
    storage_indexed = indexed_db.data_size_bytes()
    print_report(
        "XADT metadata ablation — QS6 order access (paper §5 proposal)",
        f"{_model_lines(plain_run, indexed_run)}\n"
        f"storage             : {storage_plain // 1024} KB plain, "
        f"{storage_indexed // 1024} KB indexed "
        f"({storage_indexed / storage_plain - 1:+.0%})",
    )
    assert plain_run.rows == indexed_run.rows
    # metadata must not cost storage for free
    assert storage_indexed > storage_plain
    benchmark(indexed_db.execute, query.xorator_sql)


def test_methods_agree_on_all_queries(databases):
    plain_db, indexed_db = databases
    for query in SHAKESPEARE_QUERIES:
        plain_result = plain_db.execute(query.xorator_sql)
        indexed_result = indexed_db.execute(query.xorator_sql)
        assert len(plain_result) == len(indexed_result), query.key


def test_plain_order_access(databases, benchmark):
    plain_db, _ = databases
    query = find_query(SHAKESPEARE_QUERIES, "QS6")
    benchmark(plain_db.execute, query.xorator_sql)


def test_metadata_pays_off_on_big_fragments(benchmark):
    """§5's proposal helps exactly where fragments are large.

    On Shakespeare's tiny per-speech fragments the directory saves few
    scanned bytes for its storage tax (reported above); on the SIGMOD
    `sList` fragments — kilobytes per row — the positional jump at
    least pays for itself.
    """
    from repro.datagen.sigmod import SigmodConfig
    from repro.datagen.sigmod import generate_corpus as generate_sigmod
    from repro.engine.database import Database
    from repro.shred import load_documents
    from repro.workloads import SIGMOD_QUERIES
    from repro.xadt import register_xadt_functions

    documents = generate_sigmod(SigmodConfig(documents=24))
    simplified = samples.sigmod_simplified()

    def build(codec):
        db = Database(codec)
        register_xadt_functions(db)
        load_documents(
            db, map_xorator(simplified), documents, {"pp.pp_slist": codec}
        )
        db.runstats()
        return db

    plain_db = build("plain")
    indexed_db = build("indexed")
    query = find_query(SIGMOD_QUERIES, "QG6")

    plain_run = cold_query(plain_db, query.xorator_sql)
    indexed_run = cold_query(indexed_db, query.xorator_sql)
    print_report(
        "XADT metadata ablation — QG6 on the SIGMOD sList fragments",
        f"{_model_lines(plain_run, indexed_run)}\n"
        "(per-aTuple UDF calls dominate this query, so the directory "
        "roughly breaks even here; the large-fragment regime below is "
        "where §5's proposal pays)",
    )
    assert plain_run.rows == indexed_run.rows
    # the directory must not hurt this workload
    assert indexed_run.cpu_seconds < plain_run.cpu_seconds * 1.5
    benchmark(indexed_db.execute, query.xorator_sql)


def test_metadata_wins_on_selective_access_in_large_fragments(benchmark):
    """The regime §5 targets: selective access inside large fragments.

    When the wanted elements are a sliver of a large fragment, the
    plain method must scan past everything else while the directory
    jumps straight to the matching spans.
    """
    from repro.engine.database import Database
    from repro.xadt import XadtValue, get_elm_index, register_xadt_functions

    bulk = "".join(
        f"<entry code='{i}'>{'x' * 120}</entry>".replace("'", '"')
        for i in range(400)
    )
    fragment = bulk + "<LINE>first</LINE><LINE>second</LINE><LINE>third</LINE>"
    indexed = XadtValue.from_xml(fragment, "indexed")

    def one_call(value):
        """The call as a one-row statement, so it has statement counters."""
        db = Database(value.codec)
        register_xadt_functions(db)
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, frag XADT)")
        db.insert("t", (1, value))
        return cold_query(db, "SELECT getElmIndex(frag, '', 'LINE', 2, 2) FROM t")

    plain_run = one_call(XadtValue.from_xml(fragment, "plain"))
    indexed_run = one_call(indexed)
    print_report(
        "XADT metadata ablation — positional access in a 50 KB fragment",
        f"{_model_lines(plain_run, indexed_run)}\n"
        "(paper §5: metadata avoids rescanning the fragment)",
    )
    assert (
        indexed_run.work["xadt_bytes_scanned"]
        < plain_run.work["xadt_bytes_scanned"]
    )
    assert indexed_run.cpu_seconds < plain_run.cpu_seconds
    benchmark(get_elm_index, indexed, "", "LINE", 2, 2)
