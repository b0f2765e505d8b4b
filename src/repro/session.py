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
    welcome).  With a pool and an intra-trace fan-out mode
    (``fanout="detector"|"trace"``), Step 1 fans the independent
    detector configurations across workers and the merged alarms feed
    Steps 2-4 — byte-identical to the serial run.
``label_archive``
    Archive days sharded across a process pool; workers regenerate
    each day locally, Step 1 alarms go through the shared
    :class:`~repro.runner.cache.AlarmCache`.
``label_traces``
    Arbitrary traces fanned out across the pool, shipped over the
    zero-copy shared-memory transport (:mod:`repro.runner.shm`) by
    default, or pickled on request.
``label_stream``
    The same configuration run online over a sliding window, with
    cross-window alarm dedup and label merging; with ``workers > 1``
    every window's Step 1 fans across the session's persistent pool.

All modes share label export (:meth:`export`), and a full-coverage
stream or a one-day archive run reproduces ``label_trace`` output
byte-for-byte — the parity anchors the test suite pins.

Execution architecture (see ``docs/architecture-fanout.md``): the
session owns one persistent :class:`~repro.runner.pool.WorkerPool`
(workers spawn once, pin attached segments across shards in their
:class:`~repro.runner.shm.SegmentRegistry`) and a small pool of
:class:`~repro.runner.shm.TableArena` segments recycled across
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
from dataclasses import dataclass, field
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
from repro.runner.shm import PlaneArena, TableArena, export_table

#: Accepted trace transports for pooled modes.  ``"auto"`` picks the
#: shared-memory transport whenever tasks actually cross a process
#: boundary (``workers > 1``) and in-process pickling-free hand-off
#: otherwise.
TRANSPORTS = ("auto", "shm", "pickle")

#: Accepted fan-out modes for pooled modes.  ``"shard"`` makes whole
#: traces the unit of parallelism; ``"detector"`` fans each trace's
#: independent detector configurations across the pool (one task per
#: configuration); ``"trace"`` does the same at pool granularity (the
#: configuration list is sliced into ``workers`` balanced contiguous
#: groups, fewer tasks / less merge overhead).  All modes label
#: byte-identically — the fan-out axis is the ensemble's
#: per-configuration independence, the premise the paper's combination
#: step rests on.
FANOUTS = ("shard", "detector", "trace")


@dataclass
class _FanoutShard:
    """One trace mid-flight through the intra-trace fan-out pipeline."""

    name: str
    trace: Trace
    fingerprint: Optional[str]
    cache_key: str = ""
    cache_hit: bool = False
    alarms: object = None
    arena: Optional[TableArena] = None
    plane_arena: Optional[PlaneArena] = None
    futures: list = field(default_factory=list)
    export_seconds: float = 0.0
    plane_seconds: float = 0.0
    started: float = 0.0


def _finalize_session(pool: WorkerPool, arenas: list) -> None:
    """GC/exit hook: stop workers, unlink arena segments."""
    for arena in arenas:
        arena.close()
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
        first pooled call and survive until :meth:`close`.
    cache_dir:
        Optional directory for the Step 1 alarm cache shared by all
        workers (and by later runs with other combiners).  Keys are
        engine-agnostic — see :class:`~repro.runner.cache.AlarmCache`.
    out_dir:
        Optional directory receiving one ``labels-<date>.csv`` per
        trace in pooled modes; required for ``resume``.
    resume:
        Skip dates whose label CSV already exists in ``out_dir``.
    transport:
        How pooled traces reach workers: ``"shm"`` (zero-copy shared
        memory), ``"pickle"``, or ``"auto"``.  Archive days always use
        the cheaper regenerate-in-worker path.
    fanout:
        Unit of pooled parallelism (see :data:`FANOUTS`).  ``"shard"``
        parallelizes across traces; ``"detector"`` / ``"trace"``
        parallelize *within* each trace by fanning detector
        configurations, with Steps 2-4 run once in the parent over the
        merged alarm table.
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
        transport: str = "auto",
        fanout: str = "shard",
    ) -> None:
        if resume and not out_dir:
            raise ValueError("resume=True requires an out_dir")
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; known: {list(TRANSPORTS)}"
            )
        if fanout not in FANOUTS:
            raise ValueError(
                f"unknown fanout {fanout!r}; known: {list(FANOUTS)}"
            )
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
        self.transport = transport
        self.fanout = fanout
        self._pipeline = None
        #: The persistent pool every pooled mode runs on.
        self.pool = WorkerPool(workers=workers)
        #: Reusable export segments (packet tables and feature planes),
        #: recycled shard to shard; grown on demand up to the
        #: pipelining depth, unlinked at close.
        self._arenas: list = []
        self._free_arenas: list[TableArena] = []
        self._free_plane_arenas: list[PlaneArena] = []
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
        window's Step 1 to this session's persistent pool (detector
        fan-out over one shared window segment).  ``max_ring_packets``
        caps the pipeline's ingest ring for serving-layer backpressure.
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
        self._free_arenas.clear()
        self._free_plane_arenas.clear()
        while self._arenas:
            self._arenas.pop().close()
        self.pool.shutdown()
        self._signal_unregister()

    def __enter__(self) -> "LabelingSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _take_arena(self) -> TableArena:
        if self._free_arenas:
            return self._free_arenas.pop()
        arena = TableArena()
        self._arenas.append(arena)
        return arena

    def _return_arena(self, arena: Optional[TableArena]) -> None:
        if arena is not None:
            self._free_arenas.append(arena)

    def _take_plane_arena(self) -> PlaneArena:
        if self._free_plane_arenas:
            return self._free_plane_arenas.pop()
        arena = PlaneArena()
        self._arenas.append(arena)
        return arena

    def _return_plane_arena(self, arena: Optional[PlaneArena]) -> None:
        if arena is not None:
            self._free_plane_arenas.append(arena)

    # -- run modes -----------------------------------------------------

    def label_trace(self, trace: Trace, annotations: Sequence = ()):
        """Offline mode: the 4-step method on one closed trace.

        With ``workers > 1`` and an intra-trace fan-out mode
        (``fanout="detector"|"trace"``), Step 1 runs across the pool —
        the independent detector configurations are sliced over the
        workers against one shared packet-table segment — and Steps
        2-4 run here on the merged table.  Output is byte-identical to
        the serial run in every mode and on every engine.
        """
        if self.fanout == "shard":
            return self.pipeline.run(trace, annotations=annotations)
        alarms, _phases = self._detect_fanout(trace)
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
        return self._execute(tasks, progress)

    def label_traces(
        self,
        traces: Iterable[Trace],
        progress: Optional[ProgressCallback] = None,
        fingerprints: Optional[Sequence[Optional[str]]] = None,
        collect_alarms: bool = False,
        profile: Optional[dict] = None,
    ) -> BatchReport:
        """Batch mode: arbitrary traces fanned out across the pool.

        Each trace is keyed by its metadata name (falling back to the
        date field), which names its output CSV and resume marker.
        With the shared-memory transport (the default whenever
        ``workers > 1``), each trace's packet table is exported into a
        recycled :class:`~repro.runner.shm.TableArena` segment workers
        attach zero-copy (and keep pinned, so recycled segments map
        once per worker); exports are double-buffered against worker
        compute, and peak shared memory is bounded by the shards in
        flight, not the corpus.

        ``fingerprints`` optionally names each trace's provenance for
        the alarm cache (index-aligned; ``None`` entries fall back to a
        content digest) — pass the archive fingerprint when shipping
        pregenerated archive days so cache keys stay
        transport-independent.

        ``collect_alarms=True`` returns every trace's Step 1 alarm
        table in ``BatchReport.alarm_tables`` (keyed by trace name):
        shard-mode workers export theirs over the zero-copy shm result
        transport; intra-trace fan-out modes already merge the table in
        the parent.

        ``profile``, when a dict, receives per-phase wall seconds
        summed over the run — ``export`` (parent-side segment packing),
        ``planes`` (parent-side feature-plane compute + export in
        fan-out modes), ``attach`` / ``compute`` (worker-side),
        ``merge`` (parent-side
        alarm merging + Steps 2-4 in fan-out modes), ``idle``
        (estimated worker idle: pool capacity minus busy time) plus
        ``wall`` and ``workers`` — the evidence `repro bench
        --profile` reports.
        """
        traces = list(traces)
        if fingerprints is None:
            fingerprints = [None] * len(traces)
        elif len(fingerprints) != len(traces):
            raise ValueError("fingerprints must align with traces")
        transport = self.transport
        if transport == "auto":
            transport = "shm" if self.workers > 1 else "pickle"

        names: list[str] = []
        seen: set[str] = set()
        for trace in traces:
            name = trace.metadata.name or trace.metadata.date
            if name in seen:
                raise ValueError(f"duplicate trace name {name!r}")
            seen.add(name)
            names.append(name)

        reports: list[TraceReport] = []
        pending: list[tuple[str, Trace, Optional[str]]] = []
        for name, trace, fingerprint in zip(names, traces, fingerprints):
            skipped = self._resume_report(name)
            if skipped is not None:
                reports.append(skipped)
            else:
                pending.append((name, trace, fingerprint))

        wall_started = time.perf_counter()
        phases = {
            "export": 0.0,
            "planes": 0.0,
            "attach": 0.0,
            "compute": 0.0,
            "merge": 0.0,
        }
        if self.fanout == "shard":
            fresh = self._label_traces_shard(
                pending,
                transport=transport,
                collect_alarms=collect_alarms,
                progress=progress,
                done_offset=len(reports),
                total=len(traces),
                phases=phases,
            )
        else:
            fresh = self._label_traces_fanout(
                pending,
                transport=transport,
                collect_alarms=collect_alarms,
                progress=progress,
                done_offset=len(reports),
                total=len(traces),
                phases=phases,
            )
        alarm_tables = fresh.alarm_tables
        reports.extend(fresh.reports)
        reports.sort(key=lambda r: r.date)

        if profile is not None:
            wall = time.perf_counter() - wall_started
            busy = sum(
                r.phases.get("attach", 0.0) + r.phases.get("compute", 0.0)
                for r in reports
            )
            capacity = max(self.workers, 1) * wall
            profile.update(
                {k: round(v, 6) for k, v in phases.items()},
                idle=round(max(capacity - busy - phases["merge"], 0.0), 6),
                wall=round(wall, 6),
                workers=self.workers,
                fanout=self.fanout,
                transport=transport,
            )
        batch = BatchReport(reports=reports)
        batch.alarm_tables.update(alarm_tables)
        return batch

    # -- shard-mode fan-out (one task per trace) -----------------------

    def _label_traces_shard(
        self,
        pending: Sequence[tuple[str, Trace, Optional[str]]],
        transport: str,
        collect_alarms: bool,
        progress: Optional[ProgressCallback],
        done_offset: int,
        total: int,
        phases: dict,
    ) -> BatchReport:
        arena_of: dict[str, TableArena] = {}
        alarm_tables: dict[str, object] = {}

        def make_tasks():
            for name, trace, fingerprint in pending:
                common = dict(
                    date=name,
                    config=self.config,
                    cache_dir=self.cache_dir,
                    out_dir=self.out_dir,
                    metadata=trace.metadata,
                    fingerprint=fingerprint,
                    return_alarms=collect_alarms,
                )
                if transport == "shm":
                    started = time.perf_counter()
                    arena = self._take_arena()
                    handle = arena.export(trace.table)
                    phases["export"] += time.perf_counter() - started
                    arena_of[name] = arena
                    yield worker.TraceTask(
                        shm=handle, pin_segment=True, **common
                    )
                else:
                    yield worker.TraceTask(trace=trace, **common)

        def tracked_progress(done: int, _total: int, report) -> None:
            # Recycle the shard's arena the moment its report lands —
            # the worker is done reading, so the next export may
            # overwrite the segment.
            self._return_arena(arena_of.pop(getattr(report, "date", None), None))
            for key, value in getattr(report, "phases", {}).items():
                if key in phases:
                    phases[key] += value
            result_handle = getattr(report, "alarms_shm", None)
            if result_handle is not None:
                # Pull the worker's alarm table out of its result
                # segment, then free it; the handle never outlives
                # this callback.
                try:
                    alarm_tables[report.date] = result_handle.to_table()
                finally:
                    result_handle.unlink()
                report.alarms_shm = None
            if progress is not None:
                progress(done + done_offset, total, report)

        try:
            reports = self.pool.map_pipelined(
                worker.run_task,
                make_tasks(),
                total=len(pending),
                progress=tracked_progress,
            )
        finally:
            for arena in list(arena_of.values()):
                self._return_arena(arena)
            arena_of.clear()
        batch = BatchReport(reports=reports)
        batch.alarm_tables.update(alarm_tables)
        return batch

    # -- intra-trace fan-out (tasks per detector-config group) ---------

    def _config_groups(self) -> list[tuple[int, ...]]:
        """Ensemble indices sliced into fan-out task groups.

        Groups are contiguous in ensemble order, so concatenating group
        results in group order reproduces the row order of
        ``MAWILabPipeline.detect`` — the byte-identity anchor.
        """
        n_configs = len(self.pipeline.ensemble)
        if self.fanout == "detector":
            return [(i,) for i in range(n_configs)]
        n_groups = max(min(self.workers, n_configs), 1)
        bounds = [
            round(i * n_configs / n_groups) for i in range(n_groups + 1)
        ]
        return [
            tuple(range(lo, hi))
            for lo, hi in zip(bounds, bounds[1:])
            if hi > lo
        ]

    def _detect_fanout(
        self,
        trace: Trace,
        shard: Optional[_FanoutShard] = None,
    ):
        """Step 1 fanned across the pool for one trace (blocking).

        Returns ``(alarms, phases)``.  The non-blocking two-stage
        variant used by :meth:`label_traces` goes through
        :meth:`_submit_fanout` / :meth:`_collect_fanout`; this helper
        simply runs both stages back to back for :meth:`label_trace`.
        """
        shard = shard or _FanoutShard(
            name=trace.metadata.name or trace.metadata.date,
            trace=trace,
            fingerprint=None,
        )
        self._submit_fanout(shard, transport="shm", use_cache=False)
        return self._collect_fanout(shard)

    def _submit_fanout(
        self, shard: _FanoutShard, transport: str, use_cache: bool = True
    ) -> None:
        """Stage 1: consult the cache, else export + submit the groups."""
        from repro.runner.cache import AlarmCache

        shard.started = time.perf_counter()
        if use_cache and self.cache_dir:
            cache = AlarmCache(self.cache_dir)
            fingerprint = shard.fingerprint or worker.fingerprint_trace(
                shard.trace
            )
            shard.cache_key = AlarmCache.make_key(
                fingerprint, shard.name, self.pipeline.ensemble_fingerprint()
            )
            cached = cache.get(shard.cache_key)
            if cached is not None:
                shard.cache_hit = True
                shard.alarms = cached
                return

        common = dict(
            config=self.config,
            metadata=shard.trace.metadata,
            stream_states=None,
        )
        if transport == "shm":
            export_started = time.perf_counter()
            shard.arena = self._take_arena()
            handle = shard.arena.export(shard.trace.table)
            shard.export_seconds = time.perf_counter() - export_started
            common.update(shm=handle, pin_segment=True)
            if self.engine.vectorized:
                # Compute the ensemble's shared feature planes once in
                # the parent and export them next to the packet table,
                # so every sibling group attaches them zero-copy
                # instead of recomputing per worker.
                planes_started = time.perf_counter()
                from repro.detectors.planes import (
                    merge_plane_specs,
                    plane_cache_for,
                )

                cache = plane_cache_for(shard.trace, self.engine)
                for spec in merge_plane_specs(self.pipeline.ensemble):
                    cache.get(shard.trace, spec)
                shard.plane_arena = self._take_plane_arena()
                common.update(
                    planes=shard.plane_arena.export(
                        cache.exportable_items()
                    )
                )
                shard.plane_seconds = time.perf_counter() - planes_started
        else:
            common.update(trace=shard.trace)
        shard.futures = [
            self.pool.submit(
                worker.run_detect,
                worker.DetectTask(config_indices=group, **common),
            )
            for group in self._config_groups()
        ]

    def _collect_fanout(self, shard: _FanoutShard):
        """Stage 2: gather group results, merge, recycle the arena.

        Raises ``RuntimeError`` when any group failed (callers fold it
        into a failed :class:`TraceReport`); the arena is recycled
        either way.
        """
        from repro.core.alarm_table import AlarmTable
        from repro.runner.cache import AlarmCache

        phases = {
            "export": shard.export_seconds,
            "planes": shard.plane_seconds,
            "attach": 0.0,
            "compute": 0.0,
            "merge": 0.0,
        }
        try:
            if shard.cache_hit:
                return shard.alarms, phases
            results = [future.result() for future in shard.futures]
        finally:
            self._return_arena(shard.arena)
            shard.arena = None
            self._return_plane_arena(shard.plane_arena)
            shard.plane_arena = None
            shard.futures = []
        failures = [r for r in results if not r.ok]
        if failures:
            raise RuntimeError(
                f"detector fan-out failed for {shard.name!r}: "
                + "; ".join(f.error for f in failures)
            )
        for result in results:
            phases["attach"] += result.phases.get("attach", 0.0)
            phases["compute"] += result.phases.get("compute", 0.0)
        merge_started = time.perf_counter()
        merged = AlarmTable.concatenate(r.alarms for r in results)
        if shard.cache_key and self.cache_dir:
            AlarmCache(self.cache_dir).put(shard.cache_key, merged)
        phases["merge"] = time.perf_counter() - merge_started
        return merged, phases

    def _label_traces_fanout(
        self,
        pending: Sequence[tuple[str, Trace, Optional[str]]],
        transport: str,
        collect_alarms: bool,
        progress: Optional[ProgressCallback],
        done_offset: int,
        total: int,
        phases: dict,
    ) -> BatchReport:
        """Intra-trace fan-out over many traces, double-buffered.

        Trace ``i + 1``'s detector groups are submitted *before* trace
        ``i``'s results are merged and labeled, so the pool never
        drains while the parent runs Steps 2-4 — transport and merge
        overlap compute.
        """
        from repro.labeling.mawilab import labels_to_csv

        reports: list[TraceReport] = []
        alarm_tables: dict[str, object] = {}
        shards = [
            _FanoutShard(name=name, trace=trace, fingerprint=fingerprint)
            for name, trace, fingerprint in pending
        ]
        try:
            if shards:
                self._submit_fanout(shards[0], transport)
            for index, shard in enumerate(shards):
                if index + 1 < len(shards):
                    self._submit_fanout(shards[index + 1], transport)
                report = self._finalize_fanout_shard(
                    shard,
                    collect_alarms=collect_alarms,
                    alarm_tables=alarm_tables,
                    labels_to_csv=labels_to_csv,
                    phases=phases,
                )
                reports.append(report)
                if progress is not None:
                    progress(done_offset + index + 1, total, report)
        finally:
            for shard in shards:
                self._return_arena(shard.arena)
                shard.arena = None
                self._return_plane_arena(shard.plane_arena)
                shard.plane_arena = None
        batch = BatchReport(reports=reports)
        batch.alarm_tables.update(alarm_tables)
        return batch

    def _finalize_fanout_shard(
        self,
        shard: _FanoutShard,
        collect_alarms: bool,
        alarm_tables: dict,
        labels_to_csv,
        phases: dict,
    ) -> TraceReport:
        """Merge one shard's groups and run Steps 2-4 in the parent."""
        try:
            alarms, shard_phases = self._collect_fanout(shard)
            merge_started = time.perf_counter()
            result = self.pipeline.run_with_alarms(shard.trace, alarms)
            csv_text = labels_to_csv(result.labels)
            shard_phases["merge"] += time.perf_counter() - merge_started
        except Exception as exc:  # noqa: BLE001 - shard isolation
            return TraceReport(
                date=shard.name,
                status="failed",
                error=f"{type(exc).__name__}: {exc}",
                elapsed=time.perf_counter() - shard.started,
            )
        for key, value in shard_phases.items():
            phases[key] += value
        if collect_alarms:
            alarm_tables[shard.name] = alarms
        csv_path = ""
        if self.out_dir:
            out_path = worker.csv_path_for(self.out_dir, shard.name)
            out_path.parent.mkdir(parents=True, exist_ok=True)
            worker._write_atomic(out_path, csv_text)
            csv_path = str(out_path)
        return TraceReport(
            date=shard.name,
            status="ok",
            n_alarms=len(result.alarms),
            n_communities=len(result.community_set.communities),
            n_anomalous=len(result.anomalous()),
            n_suspicious=len(result.suspicious()),
            n_notice=len(result.notice()),
            cache_hit=shard.cache_hit,
            csv_path=csv_path,
            csv_sha256=hashlib.sha256(csv_text.encode()).hexdigest(),
            elapsed=time.perf_counter() - shard.started,
            phases={
                key: round(value, 6)
                for key, value in shard_phases.items()
                if key in ("attach", "compute")
            },
        )

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

    def _execute(
        self,
        tasks: list[worker.TraceTask],
        progress: Optional[ProgressCallback],
    ) -> BatchReport:
        seen: set[str] = set()
        for task in tasks:
            if task.date in seen:
                raise ValueError(f"duplicate trace name {task.date!r}")
            seen.add(task.date)

        pending: list[worker.TraceTask] = []
        reports: list[TraceReport] = []
        for task in tasks:
            skipped = self._resume_report(task.date)
            if skipped is not None:
                reports.append(skipped)
            else:
                pending.append(task)

        reports.extend(
            self.pool.map(worker.run_task, pending, progress=progress)
        )
        reports.sort(key=lambda r: r.date)
        return BatchReport(reports=reports)


__all__ = ["LabelingSession", "TRANSPORTS", "FANOUTS", "export_table"]
