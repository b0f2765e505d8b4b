"""LabelingSession: one configuration, every run mode, one output.

The unification contract: offline, archive, batch (in-process and
over shared memory) and full-coverage streaming runs of the same session configuration
produce byte-identical label CSVs.  Plus the engine-agnostic alarm
cache: entries written under one engine hit under any other.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.labeling.mawilab import labels_to_csv
from repro.mawi.archive import SyntheticArchive
from repro.runner.config import PipelineConfig
from repro.session import LabelingSession

DATE = "2004-06-01"


@pytest.fixture(scope="module")
def archive() -> SyntheticArchive:
    return SyntheticArchive(seed=7, trace_duration=12.0)


@pytest.fixture(scope="module")
def day_trace(archive):
    return archive.day(DATE).trace


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestModeParity:
    def test_archive_and_batch_transports_match_offline(
        self, archive, day_trace
    ):
        session = LabelingSession()
        offline = _sha(labels_to_csv(session.label_trace(day_trace).labels))

        by_archive = session.label_archive(archive, [DATE])
        assert [r.status for r in by_archive.reports] == ["ok"]
        assert by_archive.reports[0].csv_sha256 == offline

        for workers in (1, 2):
            with LabelingSession(workers=workers) as shipping:
                shipped = shipping.label_traces([day_trace])
            assert [r.status for r in shipped.reports] == ["ok"]
            assert shipped.reports[0].csv_sha256 == offline, workers

    def test_full_window_stream_matches_offline(self, day_trace):
        from repro.stream import chunk_table

        session = LabelingSession()
        offline = labels_to_csv(session.label_trace(day_trace).labels)
        streamed = session.label_stream(
            chunk_table(day_trace.table, 500),
            window=1e9,
            metadata=day_trace.metadata,
        )
        assert streamed.to_csv() == offline

    def test_engines_agree_through_the_session(self, day_trace):
        outputs = {
            engine: labels_to_csv(
                LabelingSession(engine=engine).label_trace(day_trace).labels
            )
            for engine in ("numpy", "python")
        }
        assert outputs["numpy"] == outputs["python"]

    def test_pooled_shm_matches_serial(self, archive):
        dates = [DATE, "2004-06-02"]
        traces = [archive.day(d).trace for d in dates]
        serial = LabelingSession(workers=1).label_traces(traces)
        with LabelingSession(workers=2) as session:
            pooled = session.label_traces(traces)
        assert [r.csv_sha256 for r in serial.reports] == [
            r.csv_sha256 for r in pooled.reports
        ]


class TestSessionConfig:
    def test_engine_override_replaces_config_engine(self):
        session = LabelingSession(
            config=PipelineConfig(engine="numpy"), engine="python"
        )
        assert session.engine.name == "python"
        assert session.config.engine == "python"

    def test_unknown_transport_rejected(self):
        # Shared memory is the only pool transport; there is no knob.
        with pytest.raises(TypeError, match="transport"):
            LabelingSession(transport="shm")

    def test_resume_requires_out_dir(self):
        with pytest.raises(ValueError, match="out_dir"):
            LabelingSession(resume=True)

    def test_pipeline_is_built_once(self):
        session = LabelingSession()
        assert session.pipeline is session.pipeline

    def test_export_formats(self, day_trace):
        session = LabelingSession()
        labels = session.label_trace(day_trace).labels
        assert session.export(labels, fmt="csv").startswith("community,")
        assert session.export(labels, fmt="xml").startswith("<?xml")
        with pytest.raises(ValueError, match="format"):
            session.export(labels, fmt="yaml")


def _step1_pipeline(engine: str):
    """A pipeline of every KL, entropy and Hough configuration."""
    from repro.detectors.entropy import ENTROPY_TUNINGS, EntropyDetector
    from repro.detectors.hough import HOUGH_TUNINGS, HoughDetector
    from repro.detectors.kl import KL_TUNINGS, KLDetector
    from repro.labeling.mawilab import MAWILabPipeline

    return MAWILabPipeline(
        ensemble=[
            cls(tuning=tuning, engine=engine, **params)
            for cls, tunings in (
                (KLDetector, KL_TUNINGS),
                (EntropyDetector, ENTROPY_TUNINGS),
                (HoughDetector, HOUGH_TUNINGS),
            )
            for tuning, params in tunings.items()
        ],
        engine=engine,
    )


class TestEngineAgnosticCache:
    def test_scores_agree_across_engines_and_through_the_cache(self, tmp_path):
        """On the benchmark's archive day 2005-02-28 every KL, entropy
        and Hough configuration emits the same alarms on both engines,
        scores included, so an alarm-cache entry written by a numpy run
        is what the python engine computes."""
        from repro.runner.cache import AlarmCache, cached_alarms

        day_archive = SyntheticArchive(seed=2010, trace_duration=30.0)
        trace = day_archive.day("2005-02-28").trace
        pipelines = {
            engine: _step1_pipeline(engine) for engine in ("numpy", "python")
        }
        raised = set()
        for fast, reference in zip(*(p.ensemble for p in pipelines.values())):
            alarms = fast.analyze(trace)
            assert alarms == reference.analyze(trace), fast.config_name
            raised.update(a.config for a in alarms)
        assert {"kl/optimal", "kl/sensitive", "entropy/optimal"} <= raised

        cache = AlarmCache(tmp_path / "cache")
        fingerprint = day_archive.fingerprint()
        written, hit = cached_alarms(
            cache, pipelines["numpy"], trace, fingerprint, "2005-02-28"
        )
        assert not hit
        key = AlarmCache.make_key(
            fingerprint, "2005-02-28", pipelines["python"].ensemble_fingerprint()
        )
        entry = cache.get(key)
        assert entry is not None
        assert list(entry) == list(pipelines["python"].detect(trace))
        assert list(entry) == list(written)

    def test_cache_written_under_one_engine_hits_under_the_other(
        self, archive, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        first = LabelingSession(
            config=PipelineConfig(engine="numpy"), cache_dir=cache_dir
        ).label_archive(archive, [DATE])
        assert first.cache_hits == 0

        second = LabelingSession(
            config=PipelineConfig(engine="python"), cache_dir=cache_dir
        ).label_archive(archive, [DATE])
        assert second.cache_hits == 1
        assert (
            second.reports[0].csv_sha256 == first.reports[0].csv_sha256
        )

    def test_cache_hits_across_transports(self, archive, tmp_path):
        """A cache warmed by regenerating days in the workers hits when
        the same archive days are shipped as pregenerated traces,
        in-process or over shared memory (given the archive
        fingerprint)."""
        from repro.net.trace import Trace, TraceMetadata

        cache_dir = str(tmp_path / "cache")
        warmed = LabelingSession(cache_dir=cache_dir).label_archive(
            archive, [DATE]
        )
        assert warmed.cache_misses == 1

        day = archive.day(DATE).trace
        shipped_trace = Trace.from_table(
            day.table, TraceMetadata(name=DATE, date=DATE)
        )
        for workers in (1, 2):
            with LabelingSession(
                cache_dir=cache_dir, workers=workers
            ) as session:
                shipped = session.label_traces(
                    [shipped_trace], fingerprints=[archive.fingerprint()]
                )
            assert shipped.cache_hits == 1, workers
            assert (
                shipped.reports[0].csv_sha256
                == warmed.reports[0].csv_sha256
            )

    def test_shm_segments_bounded_and_freed(self, archive):
        """Shard exports recycle a bounded arena pool — segments are
        pinned and reused across shards, not created per shard — and
        close() unlinks every segment."""
        from multiprocessing import shared_memory

        from repro.net.trace import Trace, TraceMetadata

        # Equal-sized tables, so a recycled segment never has to grow.
        table = archive.day(DATE).trace.table
        traces = [
            Trace.from_table(table, TraceMetadata(name=f"copy-{i}"))
            for i in range(3)
        ]
        session = LabelingSession(workers=2)
        for _ in range(2):
            batch = session.label_traces(traces)
            assert all(r.ok for r in batch.reports)
        # At most one arena per shard in flight, and the second batch
        # exported into the first batch's segments.
        arenas = session._arenas.arenas
        assert 1 <= len(arenas) <= len(traces)
        assert sum(a.allocations for a in arenas) == len(arenas)
        names = [a.name for a in arenas if a.name]
        assert names, "arena should hold a live recycled segment"
        session.close()
        # close() unlinks every arena segment — nothing leaks.
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        assert session._arenas.arenas == []

    def test_engines_emit_identical_alarm_sets(self, day_trace):
        """The premise the shared key rests on, asserted directly."""
        from repro.labeling.mawilab import MAWILabPipeline

        fast = MAWILabPipeline(engine="numpy")
        reference = MAWILabPipeline(engine="python")
        assert [
            (a.config, a.t0, a.t1, a.filters, a.flow_keys)
            for a in fast.detect(day_trace)
        ] == [
            (a.config, a.t0, a.t1, a.filters, a.flow_keys)
            for a in reference.detect(day_trace)
        ]
