"""Batch labeling: sharding determinism, caching, resume semantics."""

from __future__ import annotations

import hashlib
import os
import pickle

import pytest

from repro.core.alarm_table import AlarmTable
from repro.mawi.archive import SyntheticArchive
from repro.runner import AlarmCache, PipelineConfig, parallel_map
from repro.runner import worker as worker_module
from repro.runner.cache import _ENTRY_MAGIC
from repro.runner.worker import csv_path_for
from repro.session import LabelingSession

DATES = ["2004-06-01", "2004-06-02", "2004-06-03"]


@pytest.fixture(scope="module")
def small_archive() -> SyntheticArchive:
    return SyntheticArchive(seed=7, trace_duration=15.0)


def _csv_bytes(out_dir, dates):
    return [csv_path_for(out_dir, date).read_bytes() for date in dates]


def _label_archive(archive, dates, progress=None, **session_options):
    """One archive run on a fresh session, closed afterwards."""
    with LabelingSession(**session_options) as session:
        return session.label_archive(archive, dates, progress=progress)


def double(x: int) -> int:  # module-level so pool workers can import it
    return 2 * x


class TestParallelMap:
    def test_empty(self):
        assert parallel_map(double, [], workers=4) == []

    def test_serial_preserves_order(self):
        assert parallel_map(double, [3, 1, 2]) == [6, 2, 4]

    def test_pool_preserves_order(self):
        items = list(range(12))
        assert parallel_map(double, items, workers=3) == [
            2 * i for i in items
        ]

    def test_progress_fires_per_item(self):
        seen = []
        parallel_map(
            double, [1, 2, 3], progress=lambda d, t, r: seen.append((d, t))
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestAlarmCache:
    def test_roundtrip(self, tmp_path, day_alarms):
        cache = AlarmCache(tmp_path)
        key = AlarmCache.make_key("arch", "2004-06-01", "ens")
        assert cache.get(key) is None
        cache.put(key, AlarmTable.from_alarms(day_alarms))
        # Entries are stored columnarly; views give the objects back.
        assert list(cache.get(key)) == day_alarms
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_distinct_keys(self):
        base = AlarmCache.make_key("a", "d", "e")
        assert AlarmCache.make_key("a2", "d", "e") != base
        assert AlarmCache.make_key("a", "d2", "e") != base
        assert AlarmCache.make_key("a", "d", "e2") != base

    def test_corrupt_entry_is_evicted_miss(self, tmp_path, day_alarms):
        cache = AlarmCache(tmp_path)
        key = AlarmCache.make_key("arch", "day", "ens")
        path = cache.path_for(key)
        table = AlarmTable.from_alarms(day_alarms)
        cache.put(key, table)
        entry = path.read_bytes()
        # Garbage, entries in the old formats (digest-less pickle, then
        # a digest over a pickle), every truncation point on a stride,
        # one-bit and eight-byte flips.
        old = pickle.dumps(table)
        corrupted = [
            b"not a pickle",
            old,
            b"MWAC\x01" + hashlib.sha256(old).digest() + old,
        ]
        corrupted += [entry[:n] for n in range(0, len(entry), 37)]
        for position in range(0, len(entry), max(len(entry) // 150, 1)):
            flipped = bytearray(entry)
            flipped[position] ^= 1 << (position % 8)
            corrupted.append(bytes(flipped))
            eight = bytearray(entry)
            eight[position : position + 8] = bytes(
                b ^ 0xFF for b in eight[position : position + 8]
            )
            corrupted.append(bytes(eight))
        for n, data in enumerate(corrupted, 1):
            path.write_bytes(data)
            assert cache.get(key) is None
            assert not path.exists()
            assert (cache.evictions, cache.misses, cache.hits) == (n, n, 0)
        cache.put(key, table)
        assert cache.get(key) == table

    def test_crafted_entry_never_runs_code(self, tmp_path):
        """An entry whose envelope and digest are right but whose
        payload is a pickle is an evicted miss: nothing on disk is
        unpickled, so the payload's code never runs."""
        cache = AlarmCache(tmp_path / "cache")
        key = AlarmCache.make_key("arch", "day", "ens")
        marker = tmp_path / "ran"
        payload = pickle.dumps(_Crafted(str(marker)))
        cache.path_for(key).write_bytes(
            _ENTRY_MAGIC + hashlib.sha256(payload).digest() + payload
        )
        assert cache.get(key) is None
        assert (cache.evictions, cache.misses) == (1, 1)
        assert not cache.path_for(key).exists()
        assert not marker.exists()
        pickle.loads(payload)  # the payload does run when unpickled
        assert marker.exists()


class _Crafted:
    """Unpickles into a call that creates the directory ``path``."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


class TestBatchRunner:
    """The batch workload: archive days sharded by a session's pool."""

    def test_parallel_matches_serial_byte_identical(
        self, small_archive, tmp_path
    ):
        serial_dir = tmp_path / "serial"
        pool_dir = tmp_path / "pool"
        serial = _label_archive(
            small_archive, DATES, workers=1, out_dir=str(serial_dir)
        )
        pooled = _label_archive(
            small_archive, DATES, workers=4, out_dir=str(pool_dir)
        )
        assert [r.date for r in serial.reports] == DATES
        assert [r.date for r in pooled.reports] == DATES
        assert [r.csv_sha256 for r in serial.reports] == [
            r.csv_sha256 for r in pooled.reports
        ]
        assert _csv_bytes(serial_dir, DATES) == _csv_bytes(pool_dir, DATES)

    def test_matches_direct_pipeline_run(self, small_archive):
        from repro.labeling.mawilab import labels_to_csv

        batch = _label_archive(small_archive, DATES[:1])
        pipeline = PipelineConfig().build_pipeline()
        result = pipeline.run(small_archive.day(DATES[0]).trace)
        expected = hashlib.sha256(
            labels_to_csv(result.labels).encode()
        ).hexdigest()
        assert batch.reports[0].csv_sha256 == expected

    def test_cache_miss_then_hit_across_combiners(
        self, small_archive, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        first = _label_archive(small_archive, DATES, cache_dir=cache_dir)
        assert first.cache_hits == 0
        assert first.cache_misses == len(DATES)

        # Different combiner + granularity: Step 1 output is reused.
        relabel = _label_archive(
            small_archive,
            DATES,
            config=PipelineConfig(strategy="average", granularity="packet"),
            cache_dir=cache_dir,
        )
        assert relabel.cache_hits == len(DATES)
        assert all(r.ok for r in relabel.reports)

        # Cached alarms must label identically to a cache-less run.
        fresh = _label_archive(
            small_archive,
            DATES,
            config=PipelineConfig(strategy="average", granularity="packet"),
        )
        assert [r.csv_sha256 for r in relabel.reports] == [
            r.csv_sha256 for r in fresh.reports
        ]

    def test_different_ensemble_does_not_share_cache(
        self, small_archive, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        _label_archive(small_archive, DATES[:1], cache_dir=cache_dir)
        trimmed = _label_archive(
            small_archive,
            DATES[:1],
            config=PipelineConfig(detectors=("kl", "pca")),
            cache_dir=cache_dir,
        )
        assert trimmed.cache_hits == 0

    def test_worker_failure_is_isolated_and_resume_completes(
        self, small_archive, tmp_path, monkeypatch
    ):
        out_dir = str(tmp_path / "out")
        real_inner = worker_module._run_task_inner

        def flaky(task):
            if task.date == DATES[1]:
                raise RuntimeError("simulated worker crash")
            return real_inner(task)

        monkeypatch.setattr(worker_module, "_run_task_inner", flaky)
        crashed = _label_archive(small_archive, DATES, out_dir=out_dir)
        assert [r.status for r in crashed.reports] == ["ok", "failed", "ok"]
        assert "simulated worker crash" in crashed.failures()[0].error
        assert not csv_path_for(out_dir, DATES[1]).exists()

        # Resume after the "crash" recomputes only the failed shard.
        monkeypatch.setattr(worker_module, "_run_task_inner", real_inner)
        resumed = _label_archive(
            small_archive, DATES, out_dir=out_dir, resume=True
        )
        assert [r.status for r in resumed.reports] == [
            "skipped",
            "ok",
            "skipped",
        ]

        # The resumed output set is byte-identical to a clean full run.
        clean_dir = str(tmp_path / "clean")
        clean = _label_archive(small_archive, DATES, out_dir=clean_dir)
        assert [r.csv_sha256 for r in resumed.reports] == [
            r.csv_sha256 for r in clean.reports
        ]
        assert _csv_bytes(out_dir, DATES) == _csv_bytes(clean_dir, DATES)

    def test_resume_requires_out_dir(self):
        with pytest.raises(ValueError):
            LabelingSession(resume=True)

    def test_duplicate_dates_rejected(self, small_archive):
        with pytest.raises(ValueError):
            _label_archive(small_archive, [DATES[0], DATES[0]])

    def test_run_traces_matches_archive_path(self, small_archive):
        by_date = _label_archive(small_archive, DATES[:2])
        traces = [small_archive.day(date).trace for date in DATES[:2]]
        with LabelingSession() as session:
            by_trace = session.label_traces(traces)
        # Label content is trace-derived only, so the CSVs agree even
        # though the shard keys differ (trace names vs ISO dates).
        assert sorted(r.csv_sha256 for r in by_trace.reports) == sorted(
            r.csv_sha256 for r in by_date.reports
        )

    def test_report_json_and_describe(self, small_archive):
        import json

        batch = _label_archive(small_archive, DATES[:1])
        payload = json.loads(batch.to_json())
        assert payload["n_completed"] == 1
        assert payload["traces"][0]["date"] == DATES[0]
        assert payload["totals"]["n_communities"] > 0
        assert DATES[0] in batch.describe()

    def test_progress_reports_each_shard(self, small_archive):
        seen = []
        _label_archive(
            small_archive,
            DATES[:2],
            progress=lambda done, total, report: seen.append(
                (done, total, report.status)
            ),
        )
        assert seen == [(1, 2, "ok"), (2, 2, "ok")]

    def test_tasks_are_picklable(self, small_archive):
        task = worker_module.TraceTask(
            date=DATES[0], config=PipelineConfig(strategy="majority")
        )
        assert pickle.loads(pickle.dumps(task)) == task

    def test_inline_trace_fingerprint_is_content_derived(
        self, small_archive, monkeypatch
    ):
        import numpy as np

        from repro.net.table import COLUMNS, PacketTable
        from repro.net.trace import Trace, TraceMetadata

        day = small_archive.day(DATES[0])
        table = day.trace.table
        metadata = TraceMetadata(name=day.trace.metadata.name)

        def fingerprint(columns: dict) -> str:
            trace = Trace.from_table(PacketTable(**columns), metadata)
            return worker_module.fingerprint_trace(trace)

        def no_packets(trace):
            raise AssertionError("fingerprint_trace built Packet objects")

        # The digest reads the table's columns, never Packet objects.
        monkeypatch.setattr(Trace, "packets", property(no_packets))
        columns = {name: getattr(table, name).copy() for name in COLUMNS}
        base = fingerprint(columns)
        # Equal content, built separately: equal fingerprints.
        assert worker_module.fingerprint_trace(day.trace) == base
        assert fingerprint({k: v.copy() for k, v in columns.items()}) == base
        # Same name and packet count: one changed row in any one column
        # must still change the alarm-cache fingerprint.
        row = len(table) // 2
        for name in COLUMNS:
            column = columns[name].copy()
            if name == "time":
                column[row] = np.nextafter(column[row], np.inf)
            elif name == "proto":  # TCP <-> UDP: both valid
                column[row] = 17 if column[row] == 6 else 6
            else:
                column[row] ^= 1
            assert fingerprint({**columns, name: column}) != base, name
