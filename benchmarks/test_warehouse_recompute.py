"""Delta-recompute acceptance: a heuristics-only change relabels an
ingested archive no slower than labeling it from scratch.

Six archive days (2005-01-01 to 2005-06-01, seed 2010, 30 s traces)
are labeled in full and dual-written into a CSV
:class:`~repro.labeling.database.LabelDatabase` and a
:class:`~repro.labeling.warehouse.Warehouse`, as the archive scheduler
does; the warehouse is then recomputed under the ``average`` combiner,
which must take every day's Step 1 alarms from the previous version's
segments.  Each of ``ROUNDS`` rounds uses fresh roots and runs the full
label and then the recompute.  The test asserts:

* zero Step 1 reruns in the recompute;
* the warehouse export of every day byte-identical to the stored CSV,
  and the warehouse query matching a scan of the CSV files;
* the best recompute at least ``MIN_RECOMPUTE_SPEEDUP`` times as fast
  as the best full label.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.labeling.database import LabelDatabase, _day_relpath
from repro.labeling.warehouse import (
    Warehouse,
    archive_meta,
    warehouse_fingerprint,
)
from repro.runner.config import PipelineConfig

from benchmarks.conftest import best_of_interleaved

DATES = [f"2005-{month:02d}-01" for month in range(1, 7)]
ROUNDS = 3

#: The 1x target less a 20% tolerance.
MIN_RECOMPUTE_SPEEDUP = 0.8


def test_delta_recompute_beats_full_relabel(archive, tmp_path):
    config = PipelineConfig()
    pipeline = config.build_pipeline()
    ensemble_fp = pipeline.ensemble_fingerprint()
    roots = (tmp_path / f"round-{n}" for n in itertools.count())
    stores = []

    def label_all():
        root = next(roots)
        database = LabelDatabase(str(root / "csv"))
        warehouse = Warehouse(root / "warehouse")
        version = warehouse.ensure_version(
            warehouse_fingerprint(
                archive.fingerprint(), ensemble_fp, repr(config)
            ),
            ensemble_fingerprint=ensemble_fp,
            config=repr(config),
            archive=archive_meta(archive),
        )
        for date in DATES:
            result = pipeline.run(archive.day(date).trace)
            database.store_day(date, result)
            warehouse.store_result(date, result, version=version)
        stores.append((database, warehouse, version))

    def recompute():
        _, warehouse, _ = stores[-1]
        return warehouse.recompute(
            dataclasses.replace(config, strategy="average"),
            archive=archive,
        )

    (label_seconds, _), (recompute_seconds, report) = best_of_interleaved(
        [label_all, recompute], reps=ROUNDS
    )

    assert report.step1_reruns == 0
    assert report.segment_hits == len(DATES)
    database, warehouse, version = stores[-1]
    for date in DATES:
        with open(f"{database.root}/{_day_relpath(date)}") as handle:
            assert warehouse.export_csv(date, version=version) == handle.read()
    # The CSV renders one row per (community, rule) while the warehouse
    # returns one row per community; compare the matched community sets.
    rows = warehouse.query(taxonomy="anomalous", version=version)
    csv_hits = {
        (date, record.community_id)
        for date in DATES
        for record in database.load_day(date)
        if record.taxonomy == "anomalous"
    }
    assert {(row["date"], row["community"]) for row in rows} == csv_hits
    for _, store, _ in stores:
        store.close()

    speedup = label_seconds / recompute_seconds
    assert speedup >= MIN_RECOMPUTE_SPEEDUP, (
        f"delta recompute only {speedup:.2f}x a full label "
        f"({recompute_seconds:.2f}s vs {label_seconds:.2f}s "
        f"over {len(DATES)} days)"
    )
