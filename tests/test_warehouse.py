"""The columnar label warehouse: round-trips, crashes, queries, deltas.

Four angles on :mod:`repro.labeling.warehouse`:

* **Round-trips** — stores (including ragged rule/detector/annotation
  blocks and the ``CommunitySummary`` metrics) and alarm tables must
  decode from a mapped segment *equal* to the in-memory original, and
  the CSV export must be byte-identical to ``labels_to_csv``; a
  hypothesis suite drives this over arbitrary record shapes.
* **Crash injection** — truncated segments are rejected on open (size
  check), silent corruption by ``verify`` (SHA-256), torn manifests
  cannot happen (``write_atomic``), and a crash mid-``store_day``
  leaves the previous manifest pointing only at complete files.
* **Queries** — predicate pushdown over mapped columns agrees with the
  in-memory :class:`~repro.labeling.database.LiveLabelIndex` row for
  row, on both engines.
* **Delta recompute** — a combiner-only configuration change must
  rerun zero Step 1 detections (alarms come back from the old
  version's segments or the :class:`~repro.runner.cache.AlarmCache`),
  flip the current version only at the end, and report per-day diffs.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.alarm_table import AlarmTable
from repro.errors import LabelingError, WarehouseError
from repro.labeling.database import LiveLabelIndex
from repro.labeling.heuristics import HeuristicLabel
from repro.labeling.mawilab import LabelRecord, labels_to_csv
from repro.labeling.store import LabelStore
from repro.labeling.taxonomy import TAXONOMY_ORDER
from repro.labeling.warehouse import (
    Segment,
    Warehouse,
    archive_meta,
    encode_label_segment,
    warehouse_fingerprint,
)
from repro.rules.itemsets import Rule
from repro.rules.summarize import CommunitySummary

# -- strategies --------------------------------------------------------

_rules = st.builds(
    Rule,
    src=st.none() | st.integers(0, 2**32 - 1),
    sport=st.none() | st.integers(0, 65535),
    dst=st.none() | st.integers(0, 2**32 - 1),
    dport=st.none() | st.integers(0, 65535),
    support=st.floats(0.0, 1.0, allow_nan=False),
    count=st.integers(0, 50),
)

_detector_pool = ("kl", "pca", "hough", "gamma")
_annotation_pool = ("manual", "classifier:dns", "classifier:p2p")


@st.composite
def label_records(draw):
    """Arbitrary-but-valid label records, ragged blocks included."""
    records = []
    for i in range(draw(st.integers(0, 8))):
        t0 = draw(st.floats(0.0, 10.0, allow_nan=False))
        records.append(
            LabelRecord(
                community_id=i,
                taxonomy=draw(st.sampled_from(TAXONOMY_ORDER)),
                heuristic=HeuristicLabel(
                    category=draw(
                        st.sampled_from(["attack", "special", "unknown"])
                    ),
                    detail=draw(
                        st.sampled_from(["Sasser", "Http", "Unknown"])
                    ),
                ),
                summary=CommunitySummary(
                    rules=draw(st.lists(_rules, max_size=3)),
                    rule_degree=draw(st.floats(0.0, 4.0, allow_nan=False)),
                    rule_support=draw(
                        st.floats(0.0, 100.0, allow_nan=False)
                    ),
                    n_transactions=draw(st.integers(0, 100)),
                ),
                t0=t0,
                t1=t0 + draw(st.floats(0.0, 5.0, allow_nan=False)),
                n_alarms=draw(st.integers(1, 20)),
                detectors=tuple(
                    draw(
                        st.lists(
                            st.sampled_from(_detector_pool),
                            max_size=4,
                            unique=True,
                        )
                    )
                ),
                relative_distance=draw(
                    st.none() | st.floats(0.0, 3.0, allow_nan=False)
                ),
                mu=draw(st.floats(0.0, 1.0, allow_nan=False)),
                annotations=tuple(
                    draw(
                        st.lists(
                            st.sampled_from(_annotation_pool),
                            max_size=2,
                            unique=True,
                        )
                    )
                ),
            )
        )
    return records


# -- fixtures ----------------------------------------------------------


@pytest.fixture
def warehouse(tmp_path):
    wh = Warehouse(tmp_path / "wh")
    wh.ensure_version("vtest")
    return wh


@pytest.fixture(scope="module")
def result_store(pipeline_result):
    return pipeline_result.label_store()


# -- round-trips -------------------------------------------------------


def test_pipeline_store_round_trips(warehouse, pipeline_result):
    warehouse.store_result("2004-06-01", pipeline_result)
    decoded = warehouse.label_store("2004-06-01")
    assert decoded == pipeline_result.label_store()
    alarms = warehouse.alarm_table("2004-06-01")
    expected = (
        pipeline_result.alarms
        if isinstance(pipeline_result.alarms, AlarmTable)
        else AlarmTable.from_alarms(list(pipeline_result.alarms))
    )
    assert alarms == expected


def test_export_is_byte_identical_to_labels_to_csv(
    warehouse, pipeline_result
):
    warehouse.store_result("2004-06-01", pipeline_result)
    assert warehouse.export_csv("2004-06-01") == labels_to_csv(
        pipeline_result.labels
    )


def test_numeric_columns_are_memmap_views(warehouse, result_store):
    """Zero-copy: decoded numeric columns alias the file mapping."""
    warehouse.store_day("2004-06-01", result_store)
    decoded = warehouse.label_store("2004-06-01")
    for column in ("community_id", "t0", "mu"):
        base = getattr(decoded, column).base
        while base is not None and not isinstance(base, np.memmap):
            base = base.base
        assert isinstance(base, np.memmap), column


@given(records=label_records())
@settings(
    max_examples=40,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
    deadline=None,
)
def test_store_round_trips_any_records(tmp_path, records):
    """write -> open -> take/records equals the in-memory store."""
    store = LabelStore.from_records(records)
    root = tmp_path / f"wh-{abs(hash(tuple(r.t0 for r in records)))}"
    with Warehouse(root) as wh:
        wh.ensure_version("vtest")
        wh.store_day("2004-01-01", store)
        decoded = wh.label_store("2004-01-01")
        assert decoded == store
        assert decoded.to_records() == records
        if len(store):
            index = np.arange(len(store))[::-1]
            assert decoded.take(index) == store.take(index)
        assert wh.export_csv("2004-01-01") == labels_to_csv(records)


@given(records=label_records(), data=st.data())
@settings(
    max_examples=30,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
    deadline=None,
)
def test_query_matches_live_index_on_both_engines(tmp_path, records, data):
    """Predicate pushdown over mmap == in-memory index, both engines."""
    root = tmp_path / f"wh-{data.draw(st.integers(0, 10**9))}"
    index = LiveLabelIndex()
    index.publish("2004-01-01", records)
    predicates = dict(
        taxonomy=data.draw(st.none() | st.sampled_from(TAXONOMY_ORDER)),
        src=data.draw(st.none() | st.integers(0, 3)),
        dst=data.draw(st.none() | st.integers(0, 3)),
        t0=data.draw(st.none() | st.floats(0.0, 12.0, allow_nan=False)),
        t1=data.draw(st.none() | st.floats(0.0, 12.0, allow_nan=False)),
    )
    expected = index.query(date="2004-01-01", **predicates)
    with Warehouse(root) as wh:
        wh.ensure_version("vtest")
        wh.store_day("2004-01-01", LabelStore.from_records(records))
        for engine in ("numpy", "python"):
            assert (
                wh.query(date="2004-01-01", engine=engine, **predicates)
                == expected
            ), engine


def test_query_validates_taxonomy_and_respects_limit(
    warehouse, result_store
):
    warehouse.store_day("2004-06-01", result_store)
    with pytest.raises(WarehouseError, match="unknown taxonomy"):
        warehouse.query(taxonomy="bogus")
    rows = warehouse.query(limit=3)
    assert len(rows) == 3


def test_query_spans_days_in_date_order(warehouse, result_store):
    for date in ("2004-06-02", "2004-06-01"):
        warehouse.store_day(date, result_store)
    rows = warehouse.query(date_from="2004-06-01", date_to="2004-06-02")
    dates = [row["date"] for row in rows]
    assert dates == sorted(dates)
    assert set(dates) == {"2004-06-01", "2004-06-02"}
    only_first = warehouse.query(date_to="2004-06-01")
    assert {row["date"] for row in only_first} == {"2004-06-01"}


# -- crash injection ---------------------------------------------------


def test_truncated_segment_is_rejected_on_open(warehouse, result_store):
    warehouse.store_day("2004-06-01", result_store)
    warehouse.close()
    path = next((warehouse.root / "v0001").glob("*.labels.seg"))
    payload = path.read_bytes()
    path.write_bytes(payload[: len(payload) // 2])
    with pytest.raises(WarehouseError, match="truncated or stale"):
        warehouse.open_labels("2004-06-01")


def test_silent_corruption_fails_verify(warehouse, result_store):
    warehouse.store_day("2004-06-01", result_store)
    warehouse.close()
    path = next((warehouse.root / "v0001").glob("*.labels.seg"))
    payload = bytearray(path.read_bytes())
    payload[-1] ^= 0xFF  # same size, different bytes
    path.write_bytes(bytes(payload))
    with pytest.raises(WarehouseError, match="checksum"):
        warehouse.verify()


def test_bad_magic_is_rejected(tmp_path, result_store):
    path = tmp_path / "bogus.seg"
    payload = bytearray(
        encode_label_segment(result_store, {"date": "2004-06-01"})
    )
    payload[:4] = b"XXXX"
    path.write_bytes(bytes(payload))
    with pytest.raises(WarehouseError, match="magic"):
        Segment(path)


def test_crash_mid_store_leaves_previous_manifest(
    tmp_path, result_store, monkeypatch
):
    """A crash between segment write and manifest publish must leave
    the old manifest intact — no day entry pointing at a file the
    manifest never checksummed, no torn manifest bytes."""
    wh = Warehouse(tmp_path / "wh")
    wh.ensure_version("vtest")
    wh.store_day("2004-06-01", result_store)
    manifest_before = (wh.root / "manifest.json").read_bytes()

    from repro.labeling import warehouse as warehouse_module

    def explode(path, payload):
        raise OSError("disk full")

    monkeypatch.setattr(warehouse_module, "write_atomic", explode)
    with pytest.raises(OSError):
        wh.store_day("2004-06-02", result_store)
    monkeypatch.undo()

    assert (wh.root / "manifest.json").read_bytes() == manifest_before
    reopened = Warehouse(tmp_path / "wh")
    assert reopened.dates() == ["2004-06-01"]
    assert not list(wh.root.glob("**/*.tmp*"))


def test_manifest_uses_write_atomic(tmp_path, result_store, monkeypatch):
    """The manifest must go through ``write_atomic`` (tmp + rename)."""
    from repro.labeling import warehouse as warehouse_module

    calls = []
    real = warehouse_module.write_atomic

    def spy(path, payload):
        calls.append(str(path))
        return real(path, payload)

    monkeypatch.setattr(warehouse_module, "write_atomic", spy)
    wh = Warehouse(tmp_path / "wh")
    wh.ensure_version("vtest")
    wh.store_day("2004-06-01", result_store)
    assert any(call.endswith("manifest.json") for call in calls)


def test_corrupt_manifest_raises_warehouse_error(tmp_path):
    root = tmp_path / "wh"
    root.mkdir()
    (root / "manifest.json").write_text("{ torn")
    with pytest.raises(WarehouseError):
        Warehouse(root)


def test_missing_day_raises(warehouse):
    with pytest.raises(WarehouseError, match="no stored labels"):
        warehouse.open_labels("1999-01-01")


# -- versions and stats ------------------------------------------------


def test_ensure_version_reuses_matching_fingerprint(tmp_path):
    wh = Warehouse(tmp_path / "wh")
    first = wh.ensure_version("fp-a")
    second = wh.ensure_version("fp-b")
    assert wh.ensure_version("fp-a") == first
    assert wh.current_version == first
    assert wh.versions() == [first, second]


def test_stats_come_from_manifest(warehouse, result_store):
    warehouse.store_day("2004-06-01", result_store)
    warehouse.store_day("2004-06-02", result_store)
    stats = warehouse.stats()
    assert stats["n_days"] == 2
    assert stats["totals"]["n_communities"] == 2 * len(result_store)
    assert stats["days"]["2004-06-01"]["n_communities"] == len(
        result_store
    )
    assert stats["segment_bytes"] > 0


def test_verify_counts_segments(warehouse, pipeline_result):
    warehouse.store_result("2004-06-01", pipeline_result)
    checked = warehouse.verify()
    assert checked == {"version": "v0001", "days": 1, "segments": 2}


# -- delta recompute ---------------------------------------------------


@pytest.fixture(scope="module")
def small_archive():
    from repro.mawi.archive import SyntheticArchive

    return SyntheticArchive(seed=7, trace_duration=6.0)


@pytest.fixture(scope="module")
def ingested(tmp_path_factory, small_archive):
    """Two archive days ingested under the default configuration."""
    from repro.runner.config import PipelineConfig

    root = tmp_path_factory.mktemp("wh-recompute")
    config = PipelineConfig()
    pipeline = config.build_pipeline()
    wh = Warehouse(root)
    version = wh.ensure_version(
        warehouse_fingerprint(
            small_archive.fingerprint(),
            pipeline.ensemble_fingerprint(),
            repr(config),
        ),
        ensemble_fingerprint=pipeline.ensemble_fingerprint(),
        config=repr(config),
        archive=archive_meta(small_archive),
    )
    for date in ("2004-01-01", "2004-02-01"):
        wh.store_result(
            date, pipeline.run(small_archive.day(date).trace), version
        )
    return root, config


def test_recompute_same_config_is_noop(ingested, small_archive):
    root, config = ingested
    wh = Warehouse(root)
    report = wh.recompute(config, archive=small_archive)
    assert not report.changed
    assert report.old_version == report.new_version == "v0001"


def test_combiner_change_reruns_zero_step1(
    ingested, small_archive, tmp_path, monkeypatch
):
    """A combiner-only change reuses every day's stored alarms: the
    detection ensemble must never run."""
    root, config = ingested
    wh = Warehouse(root)
    from repro.labeling.mawilab import MAWILabPipeline

    def forbidden(self, trace):
        raise AssertionError("Step 1 reran during a delta recompute")

    monkeypatch.setattr(MAWILabPipeline, "detect", forbidden)
    cache_dir = str(tmp_path / "alarm-cache")
    report = wh.recompute(
        dataclasses.replace(config, strategy="average"),
        archive=small_archive,
        cache_dir=cache_dir,
    )
    assert report.changed
    assert report.step1_reruns == 0
    assert report.segment_hits == 2
    assert report.cache_hits == 0
    assert wh.current_version == report.new_version
    assert wh.dates() == ["2004-01-01", "2004-02-01"]
    # The old version stays readable next to the new one.
    assert wh.dates(report.old_version) == ["2004-01-01", "2004-02-01"]
    payload = report.to_payload()
    assert json.dumps(payload)  # JSON-serializable
    assert {day["date"] for day in payload["days"]} == set(wh.dates())

    # Backfilled alarm cache: a second recompute (back to the original
    # strategy) hits the cache, not the segments.
    second = wh.recompute(
        config, archive=small_archive, cache_dir=cache_dir
    )
    assert second.changed
    assert second.step1_reruns == 0
    assert second.cache_hits == 2


def test_recompute_flips_current_only_at_the_end(
    ingested, small_archive, monkeypatch
):
    root, config = ingested
    wh = Warehouse(root)
    old_version = wh.current_version

    from repro.labeling.mawilab import MAWILabPipeline

    calls = []
    real = MAWILabPipeline.run_with_alarms

    def explode_on_second(self, trace, alarms, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise OSError("crash mid-recompute")
        return real(self, trace, alarms, **kwargs)

    monkeypatch.setattr(MAWILabPipeline, "run_with_alarms", explode_on_second)
    with pytest.raises(OSError):
        wh.recompute(
            dataclasses.replace(config, strategy="minimum"),
            archive=small_archive,
        )
    # The crash left the old version current.
    assert Warehouse(root).current_version == old_version


def test_recompute_without_archive_metadata_raises(tmp_path):
    wh = Warehouse(tmp_path / "wh")
    wh.ensure_version("opaque-fingerprint")
    with pytest.raises(WarehouseError, match="archive"):
        wh.recompute()


# -- serve-layer integration ------------------------------------------


def test_scheduler_dual_writes_warehouse(tmp_path, small_archive):
    from repro.serve.scheduler import ArchiveScheduler

    dates = ["2004-01-01", "2004-02-01"]
    with ArchiveScheduler(
        small_archive,
        dates,
        str(tmp_path / "db"),
        warehouse=str(tmp_path / "wh"),
    ) as scheduler:
        outcomes = scheduler.run_once()
    assert [o.status for o in outcomes] == ["done", "done"]
    wh = Warehouse(tmp_path / "wh")
    assert wh.dates() == dates
    # Byte-identical dual write, via the database's own day layout.
    from repro.labeling.database import LabelDatabase, _day_relpath

    database = LabelDatabase(str(tmp_path / "db"))
    for date in dates:
        with open(tmp_path / "db" / _day_relpath(date)) as handle:
            assert wh.export_csv(date) == handle.read()
        assert [r.community_id for r in database.load_day(date)]


def test_service_answers_labels_from_warehouse(tmp_path, small_archive):
    from repro.serve.daemon import LabelingService
    from repro.serve.scheduler import ArchiveScheduler

    date = "2004-01-01"
    with LabelingService(
        db_root=str(tmp_path / "db"),
        warehouse_root=str(tmp_path / "wh"),
    ) as service:
        with ArchiveScheduler(
            small_archive,
            [date],
            str(tmp_path / "db"),
            session=service.session,
            index=service.index,
            warehouse=service.warehouse,
        ) as scheduler:
            scheduler.run_once()
        assert service.health()["warehouse_days"] == 1
        rows = service.query_labels(date=date)
        assert rows and all(row["date"] == date for row in rows)
        rows80 = service.query_labels(date=date, dport=80)
        assert all(row in rows for row in rows80)
        # sport/dport predicates exist only on the warehouse path.
        with pytest.raises(LabelingError):
            service.query_labels(date="1999-01-01", dport=80)
        csv_text = service.labels_csv(date)
        assert csv_text == Warehouse(tmp_path / "wh").export_csv(date)
