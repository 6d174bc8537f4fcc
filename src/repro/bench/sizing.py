"""Size comparisons (the paper's Tables 1 and 2)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import DatasetPair


@dataclass(frozen=True)
class SizeRow:
    """One algorithm's row of a size-comparison table."""

    algorithm: str
    tables: int
    database_bytes: int
    index_bytes: int
    rows: int


@dataclass(frozen=True)
class SizeComparison:
    """Table 1 / Table 2: Hybrid vs. XORator storage."""

    dataset: str
    scale: int
    hybrid: SizeRow
    xorator: SizeRow

    @property
    def database_ratio(self) -> float:
        """XORator database size as a fraction of Hybrid's (paper: ~0.6)."""
        return self.xorator.database_bytes / self.hybrid.database_bytes


def compare_sizes(pair: DatasetPair) -> SizeComparison:
    rows = []
    for side in (pair.hybrid, pair.xorator):
        report = side.size_report()
        rows.append(
            SizeRow(
                algorithm=side.algorithm,
                tables=int(report["tables"]),
                database_bytes=int(report["database_bytes"]),
                index_bytes=int(report["index_bytes"]),
                rows=int(report["rows"]),
            )
        )
    return SizeComparison(pair.dataset, pair.scale, rows[0], rows[1])
