"""The single labeling orchestrator: one configuration, every run mode.

:class:`LabelingSession` is the one entry point for every labeling
workload — one closed trace, archive fan-out, and sliding-window
labeling.  One session owns one
:class:`~repro.runner.config.PipelineConfig` (and therefore one
execution engine, one strategy, one granularity, one similarity
measure) and exposes every workload as a *run mode* of that single
configuration:

``label_trace``
    The offline 4-step method on one trace (Step 1-4, annotations
    welcome).  With a pool, Step 1 runs one task per detector
    configuration — the ensemble's independent configurations are the
    axis that splits one trace — and the merged alarms feed Steps 2-4
    here, byte-identical to the serial run.
``label_archive``
    Archive days sharded across a process pool, one task per day;
    workers regenerate each day locally, Step 1 alarms go through the
    shared :class:`~repro.runner.cache.AlarmCache`.
``label_traces``
    Arbitrary traces sharded across the pool, one task per trace,
    shipped to workers over zero-copy shared memory
    (:mod:`repro.runner.shm`); an inline pool (``workers <= 1``) hands
    the trace objects over in-process.
``label_stream``
    The same configuration run online over a sliding window, with
    cross-window alarm dedup and label merging; with ``workers > 1``
    every window's Step 1 runs in ``min(workers, configurations)``
    configuration groups on the session's persistent pool.

All modes share label export (:meth:`export`), and a full-coverage
stream or a one-day archive run reproduces ``label_trace`` output
byte-for-byte — the parity anchors the test suite pins.

Execution architecture (see ``docs/architecture-fanout.md``): the
session owns one persistent :class:`~repro.runner.pool.WorkerPool`
(workers spawn once, pin attached segments across shards in their
:class:`~repro.runner.shm.SegmentRegistry`) and an
:class:`~repro.runner.shm.ArenaPool` of segments recycled across
exports, so steady-state transport cost is one memcpy per shard;
shard export is double-buffered against worker compute via
:meth:`~repro.runner.pool.WorkerPool.map_pipelined`.  Call
:meth:`close` (or use the session as a context manager) to stop the
workers and unlink the arenas; an unclosed session cleans up when
garbage-collected.
"""

from __future__ import annotations

import hashlib
import time
import weakref
from dataclasses import replace as _dc_replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.engine import Engine, EngineSpec, resolve_engine
from repro.net.table import PacketTable
from repro.net.trace import Trace, TraceMetadata
from repro.runner import worker
from repro.runner.config import PipelineConfig, _strategy_for
from repro.runner.pool import (
    ProgressCallback,
    WorkerPool,
    register_signal_cleanup,
)
from repro.runner.report import BatchReport, TraceReport
from repro.runner.shm import ArenaPool, TableArena


def _finalize_session(pool: WorkerPool, arenas: ArenaPool) -> None:
    """GC/exit hook: stop workers, unlink arena segments."""
    arenas.close()
    pool.shutdown()


class LabelingSession:
    """One labeling configuration, runnable in every mode.

    Parameters
    ----------
    config:
        The pipeline description shared by all modes; defaults to the
        paper's configuration.
    engine:
        Optional engine override (any
        :func:`repro.engine.resolve_engine` spec); replaces
        ``config.engine``.
    workers:
        Process-pool size for the pooled modes; ``<= 1`` labels
        serially in-process.  The pool is persistent: workers spawn on
        first pooled call and survive until :meth:`close`.  Each call
        picks its own unit of work: a trace for :meth:`label_traces`
        and :meth:`label_archive`, a detector configuration for
        :meth:`label_trace`, a configuration group for a stream window.
    cache_dir:
        Optional directory for the Step 1 alarm cache shared by all
        workers (and by later runs with other combiners).  Keys are
        engine-agnostic — see :class:`~repro.runner.cache.AlarmCache`.
    out_dir:
        Optional directory receiving one ``labels-<date>.csv`` per
        trace in pooled modes; required for ``resume``.
    resume:
        Skip dates whose label CSV already exists in ``out_dir``.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        *,
        engine: EngineSpec = None,
        workers: int = 1,
        cache_dir: Optional[str] = None,
        out_dir: Optional[str] = None,
        resume: bool = False,
    ) -> None:
        if resume and not out_dir:
            raise ValueError("resume=True requires an out_dir")
        config = config or PipelineConfig()
        if engine is not None:
            name = engine.name if isinstance(engine, Engine) else engine
            config = _dc_replace(config, engine=name)
        self.config = config
        #: The resolved execution engine every mode runs on.
        self.engine = resolve_engine(config.engine, what="session")
        self.workers = workers
        self.cache_dir = cache_dir
        self.out_dir = out_dir
        self.resume = resume
        self._pipeline = None
        #: The persistent pool every pooled mode runs on.
        self.pool = WorkerPool(workers=workers)
        #: Reusable export segments (packet tables and feature planes),
        #: recycled shard to shard; grown on demand up to the
        #: pipelining depth, unlinked at close.
        self._arenas = ArenaPool()
        self._finalizer = weakref.finalize(
            self, _finalize_session, self.pool, self._arenas
        )
        # A daemon dying on SIGTERM/SIGINT (see
        # :func:`repro.runner.pool.install_signal_handlers`) runs the
        # same finalizer, so arenas unlink and workers stop even when
        # close() never gets to run.  finalize objects run at most
        # once and don't keep the session alive.
        self._signal_unregister = register_signal_cleanup(self._finalizer)
        if out_dir:
            Path(out_dir).mkdir(parents=True, exist_ok=True)

    # -- shared wiring -------------------------------------------------

    @property
    def pipeline(self):
        """The in-process :class:`~repro.labeling.mawilab.MAWILabPipeline`.

        Built once from :attr:`config` and reused across
        :meth:`label_trace` calls; pooled modes rebuild the identical
        pipeline inside each worker from the same config.
        """
        if self._pipeline is None:
            self._pipeline = self.config.build_pipeline()
        return self._pipeline

    def streaming_pipeline(
        self,
        window: float,
        hop: Optional[float] = None,
        max_ring_packets: Optional[int] = None,
    ):
        """A streaming twin of :attr:`pipeline` (same Step 1-4 wiring).

        With ``workers > 1`` the streaming pipeline ships every
        window's Step 1 to this session's persistent pool, in
        configuration groups over one shared window segment.
        ``max_ring_packets`` caps the pipeline's ingest ring for
        serving-layer backpressure.
        """
        from repro.net.flow import Granularity
        from repro.stream import StreamingPipeline

        return StreamingPipeline(
            window=window,
            hop=hop,
            max_ring_packets=max_ring_packets,
            granularity=Granularity(self.config.granularity),
            strategy=_strategy_for(self.config.strategy),
            measure=self.config.measure,
            edge_threshold=self.config.edge_threshold,
            rule_support_pct=self.config.rule_support_pct,
            seed=self.config.seed,
            engine=self.engine,
            pool=self.pool if self.workers > 1 else None,
            config=self.config,
        )

    def close(self) -> None:
        """Stop pool workers and unlink arena segments (idempotent)."""
        self._arenas.close()
        self.pool.shutdown()
        self._signal_unregister()

    def __enter__(self) -> "LabelingSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- run modes -----------------------------------------------------

    def label_trace(self, trace: Trace, annotations: Sequence = ()):
        """Offline mode: the 4-step method on one closed trace.

        With ``workers > 1``, Step 1 runs one pool task per detector
        configuration against one shared packet-table segment (and the
        feature planes the parent computed for the whole ensemble),
        and Steps 2-4 run here on the merged table.  Output is
        byte-identical to the serial run on every engine.
        """
        if not self.pool.parallel:
            return self.pipeline.run(trace, annotations=annotations)
        from repro.detectors.planes import merge_plane_specs, plane_cache_for

        planes = plane_cache_for(trace, self.engine)
        for spec in merge_plane_specs(self.pipeline.ensemble):
            planes.get(trace, spec)
        n_configs = len(self.pipeline.ensemble)
        alarms, _ = worker.detect_groups(
            self.pool,
            self._arenas,
            self.config,
            trace,
            worker.config_groups(n_configs, n_configs),
            planes=planes,
        )
        return self.pipeline.run_with_alarms(
            trace, alarms, annotations=annotations
        )

    def label_archive(
        self,
        archive,
        dates: Sequence[str],
        progress: Optional[ProgressCallback] = None,
    ) -> BatchReport:
        """Archive mode: pool workers regenerate and label each day."""
        tasks = [
            worker.TraceTask(
                date=date,
                config=self.config,
                archive_seed=archive.seed,
                trace_duration=archive.trace_duration,
                cache_dir=self.cache_dir,
                out_dir=self.out_dir,
            )
            for date in dates
        ]
        return self._run_shards(tasks, progress)

    def label_traces(
        self,
        traces: Iterable[Trace],
        progress: Optional[ProgressCallback] = None,
        fingerprints: Optional[Sequence[Optional[str]]] = None,
        profile: Optional[dict] = None,
    ) -> BatchReport:
        """Batch mode: arbitrary traces sharded across the pool.

        Each trace is keyed by its metadata name (falling back to the
        date field), which names its output CSV and resume marker.
        With ``workers > 1``, each trace's packet table is exported
        into a recycled :class:`~repro.runner.shm.TableArena` segment
        workers attach zero-copy (and keep pinned, so recycled segments
        map once per worker); exports are double-buffered against
        worker compute, and peak shared memory is bounded by the shards
        in flight, not the corpus.  An inline pool passes the trace
        objects themselves and creates no segment.  A batch with fewer
        traces than workers leaves the spare workers idle; one big
        trace is :meth:`label_trace`'s job.

        ``fingerprints`` optionally names each trace's provenance for
        the alarm cache (index-aligned; ``None`` entries fall back to a
        content digest) — pass the archive fingerprint when shipping
        pregenerated archive days so their cache keys match the
        regenerate-in-worker path's.

        ``profile``, when a dict, receives per-phase wall seconds
        summed over the run — ``export`` (parent-side segment
        packing), ``attach`` / ``compute`` (worker-side), ``idle``
        (estimated worker idle: pool capacity minus busy time) plus
        ``wall`` and ``workers`` — the pool profile the ``archive``
        workload of ``benchmarks/perf`` reports as ``info.profile``.
        """
        traces = list(traces)
        if fingerprints is None:
            fingerprints = [None] * len(traces)
        elif len(fingerprints) != len(traces):
            raise ValueError("fingerprints must align with traces")
        tasks = [
            worker.TraceTask(
                date=trace.metadata.name or trace.metadata.date,
                config=self.config,
                trace=trace,
                metadata=trace.metadata,
                fingerprint=fingerprint,
                cache_dir=self.cache_dir,
                out_dir=self.out_dir,
            )
            for trace, fingerprint in zip(traces, fingerprints)
        ]
        return self._run_shards(tasks, progress, profile)

    def label_stream(
        self,
        chunks: Iterable[PacketTable],
        *,
        window: float,
        hop: Optional[float] = None,
        metadata: Optional[TraceMetadata] = None,
    ):
        """Streaming mode: sliding-window labeling of a packet stream."""
        return self.streaming_pipeline(window, hop).run(
            chunks, metadata=metadata
        )

    # -- label export ---------------------------------------------------

    @staticmethod
    def export(labels, fmt: str = "csv", trace_name: str = "trace") -> str:
        """Render labels in the public database format (csv / xml)."""
        from repro.labeling.mawilab import labels_to_csv, labels_to_xml

        if fmt == "csv":
            return labels_to_csv(labels)
        if fmt == "xml":
            return labels_to_xml(labels, trace_name=trace_name)
        raise ValueError(f"unknown label format {fmt!r}; known: csv, xml")

    # -- pooled execution ----------------------------------------------

    def _resume_report(self, name: str) -> Optional[TraceReport]:
        """The ``skipped`` report for an already-labeled trace, if any."""
        if not self.resume:
            return None
        existing = worker.csv_path_for(self.out_dir, name)
        if not existing.is_file():
            return None
        text = existing.read_text()
        return TraceReport(
            date=name,
            status="skipped",
            csv_path=str(existing),
            csv_sha256=hashlib.sha256(text.encode()).hexdigest(),
        )

    def _run_shards(
        self,
        tasks: list[worker.TraceTask],
        progress: Optional[ProgressCallback],
        profile: Optional[dict] = None,
    ) -> BatchReport:
        """One :func:`~repro.runner.worker.run_task` per trace.

        Rejects duplicate names, skips resumed traces, and on a
        parallel pool swaps each in-process trace for a shared-memory
        export as the task is submitted, recycling its arena when the
        report lands.  ``profile`` is :meth:`label_traces`'.
        """
        seen: set[str] = set()
        for task in tasks:
            if task.date in seen:
                raise ValueError(f"duplicate trace name {task.date!r}")
            seen.add(task.date)

        reports: list[TraceReport] = []
        pending: list[worker.TraceTask] = []
        for task in tasks:
            skipped = self._resume_report(task.date)
            if skipped is not None:
                reports.append(skipped)
            else:
                pending.append(task)

        wall_started = time.perf_counter()
        phases = {"export": 0.0, "attach": 0.0, "compute": 0.0}
        arena_of: dict[str, TableArena] = {}
        n_skipped = len(reports)

        def shipped():
            for task in pending:
                if task.trace is not None and self.pool.parallel:
                    started = time.perf_counter()
                    arena = self._arenas.take(TableArena)
                    arena_of[task.date] = arena
                    task = _dc_replace(
                        task, trace=None, shm=arena.export(task.trace.table)
                    )
                    phases["export"] += time.perf_counter() - started
                yield task

        def landed(done: int, _total: int, report: TraceReport) -> None:
            # The worker is done reading, so the next export may
            # overwrite the shard's segment.
            self._arenas.give(arena_of.pop(report.date, None))
            for key in ("attach", "compute"):
                phases[key] += report.phases.get(key, 0.0)
            if progress is not None:
                progress(done + n_skipped, len(tasks), report)

        try:
            reports.extend(
                self.pool.map_pipelined(
                    worker.run_task,
                    shipped(),
                    total=len(pending),
                    progress=landed,
                )
            )
        finally:
            for arena in arena_of.values():
                self._arenas.give(arena)
        reports.sort(key=lambda r: r.date)

        if profile is not None:
            wall = time.perf_counter() - wall_started
            busy = phases["attach"] + phases["compute"]
            profile.update(
                {key: round(value, 6) for key, value in phases.items()},
                idle=round(max(max(self.workers, 1) * wall - busy, 0.0), 6),
                wall=round(wall, 6),
                workers=self.workers,
            )
        return BatchReport(reports=reports)


__all__ = ["LabelingSession"]
