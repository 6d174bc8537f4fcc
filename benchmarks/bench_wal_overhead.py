"""Write-ahead-log overhead on bulk loads (DESIGN.md §9).

Durability is only cheap if logging stays off the load's critical path.
The WAL earns that three ways: bulk batches pack as one C-speed
marshal blob per record (base64 inside the JSONL line, spliced without
a JSON re-scan) — all-native batches, and XADT batches whose XADT
columns each hold one codec, which go into the blob as payloads; only
single-row inserts and irregular batches (mixed row lengths, two codecs
in one column) take the per-value ``{"$x": ...}`` JSON escapes —
control records go through the C JSON encoder,
and bytes reach disk at group-commit fdatasync points rather than per
statement.  This benchmark runs the same single-transaction bulk load —
the shape of a document load — against a volatile database and a
WAL-backed one (``sync_mode="group"``) and gates the overhead.

The gate compares **CPU time** (``time.process_time``) because on
shared CI disks a single fdatasync can stall tens of milliseconds
behind other tenants' traffic; that jitter measures the disk queue, not
the work the engine added.  Wall time is reported alongside.  Shared
machines also drift between fast and slow states on a seconds
timescale, so the gated statistic is the **minimum over paired
differences**: each iteration runs WAL-off and WAL-on back to back
(same machine state), and of those per-pair differences the cleanest
one is the overhead — interference only ever inflates a pair.

What is gated is the CPU the log **adds per row**, not WAL-on ÷
WAL-off.  The gate used to be that ratio (<= 15 %), which held while
the heap insert under it cost ~2.6 us a row.  The log's own cost is
~0.3-0.4 us a row and independent of the heap's, so when the heap
insert got 3-4x faster (the column-wise ``bulk_insert`` kernel) the
ratio tripled with nothing having become slower: a ratio gate fails a
change for shrinking its denominator.  The limit is the allowance the
ratio gate gave when it was set — 15 % of the 52 ms the WAL-off load
then took, over its 20 000 rows.  The ratio is still printed.

Acceptance: WAL-on bulk load adds <= 0.39 us CPU per row over WAL-off.
``sync_mode="always"`` is measured for the printed report but not
gated — one fsync per commit is the durability/latency trade the sync
modes exist to expose.
"""

import time
from pathlib import Path

from conftest import print_report

from repro.engine.database import Database

ROW_COUNT = 20_000
BATCH_SIZE = 1_000
RUNS = 9
#: 0.15 * 52 ms / 20 000 rows (see the module docstring)
ADDED_US_PER_ROW_LIMIT = 0.39

#: id-encoded edge rows — the shape document shredding bulk-inserts
#: once tags have been dictionary-encoded (DESIGN.md §2)
ROWS = [
    (i, i // 7, i % 251, i % 7, (i * 37) % 4096) for i in range(ROW_COUNT)
]
DDL = (
    "CREATE TABLE edge (id INTEGER PRIMARY KEY, parent INTEGER, "
    "tag_id INTEGER, ord INTEGER, size INTEGER)"
)


def _load(db: Database) -> tuple[float, float]:
    """Run the bulk load; returns (wall seconds, CPU seconds).

    DDL is setup, not load, so it stays outside the timed region; the
    data itself goes in as one transaction, the way a document load
    commits one durable unit.
    """
    db.execute(DDL)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with db.transaction(marker="bench-load"):
        for lo in range(0, ROW_COUNT, BATCH_SIZE):
            db.bulk_insert("edge", ROWS[lo:lo + BATCH_SIZE])
    return time.perf_counter() - wall0, time.process_time() - cpu0


def _wal_run(tmp_path: Path, index: int, mode: str) -> tuple[float, float]:
    db = Database.open(str(tmp_path / f"wal-{mode}-{index}.jsonl"),
                       sync_mode=mode)
    timings = _load(db)
    db.close()
    return timings


def test_wal_group_commit_overhead_bounded(tmp_path):
    """The acceptance gate: group-commit WAL adds <= 0.39 us CPU a row."""
    _load(Database("warmup"))  # touch every code path before timing
    wall: dict[str, list[float]] = {"off": [], "group": [], "always": []}
    cpu: dict[str, list[float]] = {"off": [], "group": [], "always": []}
    # each iteration runs the three variants back to back so a pair
    # shares the machine state it was measured in
    for index in range(RUNS):
        for mode in ("off", "group", "always"):
            if mode == "off":
                w, c = _load(Database("volatile"))
            else:
                w, c = _wal_run(tmp_path, index, mode)
            wall[mode].append(w)
            cpu[mode].append(c)

    best_wall = {mode: min(times) for mode, times in wall.items()}
    best_cpu = {mode: min(times) for mode, times in cpu.items()}
    modes = ("group", "always")
    ratio = {
        mode: min(m / off - 1.0 for off, m in zip(cpu["off"], cpu[mode]))
        for mode in modes
    }
    added_us_per_row = {
        mode: min(m - off for off, m in zip(cpu["off"], cpu[mode]))
        * 1e6 / ROW_COUNT
        for mode in modes
    }
    lines = [
        f"{'mode':12}{'cpu ms':>9}{'us/row +':>10}{'cpu ovh':>9}{'wall ms':>9}",
        (f"{'wal off':12}{best_cpu['off'] * 1000:>9.1f}{'--':>10}{'--':>9}"
         f"{best_wall['off'] * 1000:>9.1f}"),
    ]
    for mode in modes:
        lines.append(
            f"{'wal ' + mode:12}{best_cpu[mode] * 1000:>9.1f}"
            f"{added_us_per_row[mode]:>10.2f}"
            f"{ratio[mode]:>8.1%}{best_wall[mode] * 1000:>9.1f}"
        )
    lines.append(
        f"\n{ROW_COUNT} rows, one transaction, {RUNS} paired runs; "
        f"us/row + = min paired CPU difference per row, cpu ovh = min "
        f"paired ratio; gate: group us/row + <= {ADDED_US_PER_ROW_LIMIT}"
    )
    print_report("WAL overhead on bulk load (group commit)",
                 "\n".join(lines))
    assert added_us_per_row["group"] <= ADDED_US_PER_ROW_LIMIT, (
        f"group-commit WAL adds {added_us_per_row['group']:.2f} us CPU per "
        f"row, over the {ADDED_US_PER_ROW_LIMIT} us limit"
    )


def test_wal_load_round_trips(tmp_path):
    """Sanity: the timed WAL load is actually durable and replayable."""
    path = str(tmp_path / "roundtrip.jsonl")
    db = Database.open(path, sync_mode="group")
    _load(db)
    db.close()
    recovered = Database.open(path, recover=True)
    assert recovered.row_count("edge") == ROW_COUNT
    assert (
        recovered.execute("SELECT COUNT(*) FROM edge WHERE parent = 0").rows
        == db.execute("SELECT COUNT(*) FROM edge WHERE parent = 0").rows
    )
