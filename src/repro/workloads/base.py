"""Workload query model."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BenchmarkError


@dataclass(frozen=True)
class WorkloadQuery:
    """One query of an experiment, in both algorithms' SQL."""

    key: str           #: e.g. "QS1"
    title: str         #: the paper's category, e.g. "Flattening"
    description: str   #: the paper's prose description
    hybrid_sql: str
    xorator_sql: str

    def sql_for(self, algorithm: str) -> str:
        if algorithm == "hybrid":
            return self.hybrid_sql
        if algorithm == "xorator":
            return self.xorator_sql
        raise BenchmarkError(f"unknown algorithm {algorithm!r}")


def find_query(queries: list[WorkloadQuery], key: str) -> WorkloadQuery:
    for query in queries:
        if query.key == key:
            return query
    raise BenchmarkError(f"no query {key!r} in workload")
