"""Warehouse acceptance: mmap cross-day queries vs CSV re-parsing.

The tentpole claim: over a month-scale archive, a cross-day predicate
query answered from the warehouse's memory-mapped columns is at least
an order of magnitude faster than the CSV path — re-parsing every
day's ``LabelDatabase`` file — while the warehouse's CSV export stays
byte-identical to the stored files.

The archive here is *synthetically constructed* label data (no
pipeline runs): 32 days of deterministic records with realistic
shape — mixed taxonomies, ragged multi-rule summaries, detector
blocks — so the benchmark isolates the storage paths from detection
cost and stays fast enough for CI.
"""

from __future__ import annotations

import time

import pytest

from repro.labeling.database import LabelDatabase, _day_relpath
from repro.labeling.heuristics import HeuristicLabel
from repro.labeling.mawilab import LabelRecord
from repro.labeling.store import LabelStore
from repro.labeling.taxonomy import TAXONOMY_ORDER
from repro.rules.itemsets import Rule
from repro.rules.summarize import CommunitySummary

from benchmarks.conftest import best_of_interleaved

N_DAYS = 32
ROWS_PER_DAY = 200

#: The CSV path must re-parse every day per query; 10x is the floor
#: the tentpole promises (observed margins are far larger).
MIN_QUERY_SPEEDUP = 10.0


def _synthetic_day(day_number: int) -> list[LabelRecord]:
    """Deterministic records with ragged rules and detector blocks."""
    records = []
    for i in range(ROWS_PER_DAY):
        seed = day_number * ROWS_PER_DAY + i
        n_rules = 1 + (seed % 3)
        rules = [
            Rule(
                src=(0x0A000000 + seed + j) if (seed + j) % 2 else None,
                sport=None if j % 2 else 1024 + (seed % 5000),
                dst=0xC0A80000 + (seed % 4096),
                dport=(80, 53, 445, 8080)[(seed + j) % 4],
                support=((seed + j) % 100) / 100.0,
                count=1 + (seed % 9),
            )
            for j in range(n_rules)
        ]
        t0 = float(seed % 900)
        records.append(
            LabelRecord(
                community_id=i,
                taxonomy=TAXONOMY_ORDER[seed % 3],
                heuristic=HeuristicLabel(
                    category=("attack", "special", "unknown")[seed % 3],
                    detail=("Sasser", "Http", "Ping", "Unknown")[seed % 4],
                ),
                summary=CommunitySummary(
                    rules=rules,
                    rule_degree=2.0 + (seed % 3) / 2.0,
                    rule_support=float(seed % 100),
                    n_transactions=10 + seed % 90,
                ),
                t0=t0,
                t1=t0 + 30.0 + (seed % 60),
                n_alarms=1 + seed % 25,
                detectors=("kl", "pca", "hough", "gamma")[: 1 + seed % 4],
                relative_distance=(seed % 7) / 4.0 if seed % 2 else None,
                mu=(seed % 10) / 10.0,
            )
        )
    return records


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    """32 days dual-written to the CSV database and the warehouse."""
    from repro.labeling.warehouse import Warehouse

    root = tmp_path_factory.mktemp("warehouse-perf")
    database = LabelDatabase(str(root / "csv"))
    warehouse = Warehouse(root / "wh")
    warehouse.ensure_version("perf")
    dates = [
        f"2005-{1 + d // 28:02d}-{1 + d % 28:02d}" for d in range(N_DAYS)
    ]
    for day_number, date in enumerate(dates):
        records = _synthetic_day(day_number)
        database.store_day_labels(date, records)
        warehouse.store_day(date, LabelStore.from_records(records))
    return database, warehouse, dates


def _query_csv(database: LabelDatabase, dates) -> list:
    """The baseline: re-parse every day's CSV, filter in Python."""
    return [
        record
        for date in dates
        for record in database.load_day(date)
        if record.taxonomy == "anomalous" and record.dport == 445
    ]


def test_cross_day_query_beats_csv_by_10x(populated):
    database, warehouse, dates = populated

    def query_warehouse():
        return warehouse.query(taxonomy="anomalous", dport=445)

    # Warm both paths once (mmap pages, filesystem cache), then take
    # best-of so scheduler noise cannot fail the gate spuriously.
    (csv_seconds, csv_rows), (warehouse_seconds, rows) = best_of_interleaved(
        [lambda: _query_csv(database, dates), query_warehouse], reps=3
    )

    assert rows, "query returned nothing — predicate bug, not perf"
    # The CSV renders one row per (community, rule) while the warehouse
    # returns one row per community; compare the matched community sets.
    warehouse_hits = {(row["date"], row["community"]) for row in rows}
    csv_hits = set()
    for date in dates:
        for record in _query_csv(database, [date]):
            csv_hits.add((date, record.community_id))
    assert warehouse_hits == csv_hits
    assert len(csv_rows) >= len(csv_hits)  # CSV is per (community, rule)
    speedup = csv_seconds / warehouse_seconds
    assert speedup >= MIN_QUERY_SPEEDUP, (
        f"warehouse query only {speedup:.1f}x faster than CSV "
        f"({warehouse_seconds * 1e3:.2f}ms vs {csv_seconds * 1e3:.2f}ms) "
        f"over {N_DAYS} days"
    )


def test_export_matches_stored_csv_bytes(populated):
    database, warehouse, dates = populated
    for date in dates[:4] + dates[-1:]:
        with open(f"{database.root}/{_day_relpath(date)}") as handle:
            assert warehouse.export_csv(date) == handle.read()


def test_cold_open_is_fast(populated):
    """A fresh handle maps a month of segments well under a second —
    opening is header parsing, not data reading."""
    from repro.labeling.warehouse import Warehouse

    _, warehouse, dates = populated
    started = time.perf_counter()
    cold = Warehouse(warehouse.root)
    for date in dates:
        cold.open_labels(date)
    elapsed = time.perf_counter() - started
    cold.close()
    assert elapsed < 1.0, f"cold open took {elapsed:.2f}s for {N_DAYS} days"
