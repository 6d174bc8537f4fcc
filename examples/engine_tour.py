#!/usr/bin/env python3
"""Engine tour: the ORDBMS substrate underneath the reproduction.

Shows the pieces the paper took from DB2 and this library rebuilds:
DDL, bulk loading, runstats, the index advisor, EXPLAIN plans that
switch with statistics, the UDF registry's three invocation modes, and
the simulated-disk cost model behind the cold-run timings.

Run:  python examples/engine_tour.py
"""

from repro import Database, register_xadt_functions
from repro.engine.udf import FunctionKind


def main() -> None:
    db = Database("tour")
    register_xadt_functions(db)

    print("== DDL and loading ==")
    db.execute(
        "CREATE TABLE papers (pID INTEGER PRIMARY KEY, section INTEGER, "
        "title VARCHAR, pages INTEGER)"
    )
    rows = [
        (i, i % 40, f"Paper {i} on {'Joins' if i % 9 == 0 else 'Storage'}",
         6 + i % 20)
        for i in range(4000)
    ]
    db.bulk_insert("papers", rows)
    print(db, "| data:", db.data_size_bytes() // 1024, "KB")

    print("\n== The optimizer reacts to statistics and indexes ==")
    sql = "SELECT title FROM papers WHERE pID = 1234"
    print("without an index:")
    print(db.explain(sql))
    db.execute("CREATE INDEX idx_pid ON papers(pID) USING hash")
    db.runstats()
    print("with a primary-key index and runstats:")
    print(db.explain(sql))

    print("\n== The index advisor (the paper's 'DB2 Index Wizard') ==")
    workload = [
        "SELECT title FROM papers WHERE section = 3",
        "SELECT pID FROM papers ORDER BY pages",
    ]
    for ddl in db.advise_indexes(workload):
        print(" ", ddl)

    print("\n== UDF invocation modes (paper Figure 14) ==")
    modes = [
        ("built-in ", "SELECT length(title) FROM papers"),
        ("NOT FENCED", "SELECT udf_length(title) FROM papers"),
        ("FENCED   ", "SELECT fenced_length(title) FROM papers"),
    ]
    modeled = {}
    for label, query in modes:
        db.io.reset()
        db.execute(query)
        modeled[label] = db.io.cpu_seconds()
        print(f"  {label}: {modeled[label] * 1000:7.3f} ms modeled cpu")
    base = modeled["built-in "]
    print(f"  NOT FENCED overhead: {modeled['NOT FENCED'] / base - 1:+.0%}")
    print(f"  FENCED overhead:     {modeled['FENCED   '] / base - 1:+.0%}")
    print("  (charged per call, never performed: values cross by reference)")

    print("\n== The simulated 2002 machine ==")
    db.io.reset()
    db.execute("SELECT COUNT(*) FROM papers WHERE title LIKE '%Joins%'")
    print(
        f"  sequential pages: {db.io.sequential_pages}, "
        f"random: {db.io.random_pages}, spill: {db.io.spill_pages}"
    )
    print(f"  modeled disk time: {db.io.disk_seconds() * 1000:.1f} ms")
    counted = {name: n for name, n in db.io.work.items() if n}
    print(f"  counted work: {counted}")
    print(f"  modeled cpu time:  {db.io.cpu_seconds() * 1000:.3f} ms")
    print(
        "  (cold-run numbers in the benchmarks are the sum of the two: "
        "counts x pinned constants, no clock; see repro/engine/io.py)"
    )

    print("\n== Aggregation over a lateral table function ==")
    db.registry.register_table(
        "digits",
        lambda n: [(int(d),) for d in str(abs(n if n is not None else 0))],
        [("d", db.catalog.table("papers").column("pID").sql_type)],
        FunctionKind.BUILTIN,
    )
    result = db.execute(
        "SELECT g.d, COUNT(*) AS n FROM papers, TABLE(digits(pID)) g "
        "WHERE pID < 100 GROUP BY g.d ORDER BY n DESC LIMIT 3"
    )
    print(result.to_table())


if __name__ == "__main__":
    main()
