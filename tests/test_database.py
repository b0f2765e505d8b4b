"""Tests for the on-disk label database."""

import os

import pytest

from repro.errors import LabelingError
from repro.eval.benchmark import benchmark_detector
from repro.labeling.database import LabelDatabase


@pytest.fixture
def database(tmp_path, pipeline_result):
    db = LabelDatabase(str(tmp_path / "mawilab"))
    db.store_day("2004-06-01", pipeline_result)
    return db


class TestStore:
    def test_layout(self, database):
        path = os.path.join(database.root, "2004", "06")
        assert os.path.isdir(path)
        assert os.path.exists(
            os.path.join(path, "01_anomalous_suspicious.csv")
        )
        # The day files are the whole database: no index beside them.
        assert sorted(os.listdir(database.root)) == ["2004"]

    def test_index_counts(self, database, pipeline_result):
        summary = database.summary("2004-06-01")
        assert summary == {
            "date": "2004-06-01",
            "n_communities": len(pipeline_result.labels),
            "n_anomalous": len(pipeline_result.anomalous()),
            "n_suspicious": len(pipeline_result.suspicious()),
            "n_notice": len(pipeline_result.notice()),
            "n_alarms": len(pipeline_result.alarms),
        }

    def test_dates(self, database, pipeline_result):
        assert database.dates() == ["2004-06-01"]
        database.store_day("2004-06-02", pipeline_result)
        assert database.dates() == ["2004-06-01", "2004-06-02"]

    def test_restore_overwrites(self, database, pipeline_result):
        database.store_day("2004-06-01", pipeline_result)
        assert database.dates() == ["2004-06-01"]

    def test_bad_date_rejected(self, database, pipeline_result):
        with pytest.raises(LabelingError):
            database.store_day("June 1st", pipeline_result)


class TestLoad:
    def test_missing_day(self, database):
        with pytest.raises(LabelingError):
            database.load_day("1999-01-01")
        with pytest.raises(LabelingError):
            database.summary("1999-01-01")

    def test_rows_round_trip(self, database, pipeline_result):
        rows = database.load_day("2004-06-01")
        assert rows
        stored_ids = {row.community_id for row in rows}
        original_ids = {r.community_id for r in pipeline_result.labels}
        assert stored_ids == original_ids
        taxonomies = {row.taxonomy for row in rows}
        assert taxonomies <= {"anomalous", "suspicious", "notice"}

    def test_records_round_trip(self, database, pipeline_result):
        records = database.load_day_records("2004-06-01")
        assert len(records) == len(pipeline_result.labels)
        by_id = {r.community_id: r for r in records}
        for original in pipeline_result.labels:
            restored = by_id[original.community_id]
            assert restored.taxonomy == original.taxonomy
            assert restored.heuristic == original.heuristic
            assert restored.n_alarms == original.n_alarms
            assert restored.detectors == original.detectors
            assert restored.t0 == pytest.approx(original.t0, abs=1e-3)
            assert len(restored.summary.rules) == len(original.summary.rules)

    def test_restored_records_usable_for_benchmarking(
        self, database, archive_day
    ):
        from repro.detectors.kl import KLDetector

        records = database.load_day_records("2004-06-01")
        score = benchmark_detector(
            KLDetector(tuning="sensitive", threshold=1.8),
            archive_day.trace,
            records,
        )
        assert 0.0 <= score.recall <= 1.0
        assert score.true_positive + score.false_negative == sum(
            1 for r in records if r.taxonomy == "anomalous"
        )


class TestAtomicWrites:
    def test_crashed_store_leaves_old_day_intact(
        self, database, pipeline_result, monkeypatch
    ):
        """A write failing mid-publish (injected at os.replace) must
        leave the previous day file untouched and no tmp litter
        behind — readers never observe a partial write."""
        import repro.ioutil as ioutil

        day_path = os.path.join(
            database.root, "2004", "06", "01_anomalous_suspicious.csv"
        )
        with open(day_path) as handle:
            day_before = handle.read()

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(ioutil.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="disk full"):
            database.store_day("2004-06-01", pipeline_result)
        monkeypatch.undo()

        with open(day_path) as handle:
            assert handle.read() == day_before
        for dirpath, _dirnames, filenames in os.walk(database.root):
            assert not [n for n in filenames if n.endswith(".tmp")], dirpath

    def test_multi_day_dates_ordering(self, database, pipeline_result):
        """dates() sorts chronologically however days were stored."""
        for date in ("2004-12-25", "2004-06-02", "2003-01-31"):
            database.store_day(date, pipeline_result)
        assert database.dates() == [
            "2003-01-31",
            "2004-06-01",
            "2004-06-02",
            "2004-12-25",
        ]

    def test_dates_ignore_unfinished_and_foreign_files(
        self, database, pipeline_result
    ):
        """dates() lists day files only: a publish's temporary file,
        files of another name and non-date paths are not days."""
        month = os.path.join(database.root, "2004", "06")
        for name in (
            ".02_anomalous_suspicious.csv.x1.tmp",
            "03_labels.csv",
            "xx_anomalous_suspicious.csv",
        ):
            with open(os.path.join(month, name), "w") as handle:
                handle.write("community\n")
        database.store_day("2004-06-04", pipeline_result)
        assert database.dates() == ["2004-06-01", "2004-06-04"]


class TestLiveLabelIndex:
    @pytest.fixture
    def index(self, pipeline_result):
        from repro.labeling.database import LiveLabelIndex

        live = LiveLabelIndex()
        live.publish_result("2004-06-01", pipeline_result)
        return live

    def test_query_matches_store(self, index, pipeline_result):
        rows = index.query(date="2004-06-01")
        assert len(rows) == len(pipeline_result.labels)
        assert {row["taxonomy"] for row in rows} <= {
            "anomalous",
            "suspicious",
            "notice",
        }

    def test_taxonomy_filter(self, index, pipeline_result):
        anomalous = index.query(date="2004-06-01", taxonomy="anomalous")
        assert len(anomalous) == len(pipeline_result.anomalous())
        with pytest.raises(LabelingError, match="unknown taxonomy"):
            index.query(taxonomy="bogus")

    def test_time_overlap_filter(self, index, pipeline_result):
        t0 = min(r.t0 for r in pipeline_result.labels)
        everything = index.query(t0=t0 - 10.0, t1=1e9)
        assert len(everything) == len(pipeline_result.labels)
        assert index.query(t0=1e9, t1=2e9) == []

    def test_src_filter_dotted_and_int(self, index, pipeline_result):
        from repro.net.addresses import ip_to_str

        record = next(
            r
            for r in pipeline_result.labels
            if any(rule.src is not None for rule in r.summary.rules)
        )
        src = next(
            rule.src
            for rule in record.summary.rules
            if rule.src is not None
        )
        dotted = index.query(src=ip_to_str(src))
        numeric = index.query(src=src)
        assert dotted == numeric
        assert any(
            row["community"] == record.community_id for row in dotted
        )
        for bad in ("not-an-ip", "10.0.0.300"):
            with pytest.raises(LabelingError, match="address"):
                index.query(src=bad)

    def test_limit_and_multi_day_order(self, index, pipeline_result):
        index.publish_result("2004-06-02", pipeline_result)
        rows = index.query()
        dates = [row["date"] for row in rows]
        assert dates == sorted(dates)
        assert len(index.query(limit=3)) == 3

    def test_store_for_and_drop(self, index):
        assert len(index.store_for("2004-06-01"))
        with pytest.raises(LabelingError):
            index.store_for("1999-01-01")
        index.drop("2004-06-01")
        assert index.dates() == []

    def test_counters(self, index):
        index.query(date="2004-06-01")
        counters = index.counters()
        assert counters["days"] == 1
        assert counters["publishes"] == 1
        assert counters["queries"] >= 1
        assert counters["labels"] > 0

    def test_publish_replaces_day_atomically(self, index, pipeline_result):
        before = len(index.query(date="2004-06-01"))
        index.publish_result("2004-06-01", pipeline_result)
        assert len(index.query(date="2004-06-01")) == before
        assert index.counters()["publishes"] == 2
