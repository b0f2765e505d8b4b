"""The per-trace and per-detector tasks executed inside pool workers.

Two task shapes share the worker process:

* :func:`run_task` labels one whole trace (Steps 1-4 + CSV export) —
  the unit of ``label_traces`` and ``label_archive``, one task per
  trace;
* :func:`run_detect` runs Step 1 for a *subset of detector
  configurations* against a shared packet table — the unit that
  splits one trace.  :func:`detect_groups` is its parent side: it
  ships one :class:`DetectTask` per configuration group and merges the
  group alarm tables with
  :meth:`~repro.core.alarm_table.AlarmTable.concatenate`, for
  ``label_trace`` (one group per configuration) and for a pooled
  streamed window (``min(workers, configurations)`` groups); Steps
  2-4 then run once in the parent.

Both tasks must stay module-level functions (pickled by reference into
pool workers) and must never raise: every failure is folded into a
``status="failed"`` report so one bad shard cannot take down a batch.

A task's packets reach the worker in one of three ways:

* **regenerate** — the worker rebuilds the archive day from
  ``(archive_seed, trace_duration, date)``; nothing but a date string
  crosses the process boundary;
* **shm** — on a multi-process pool, a
  :class:`~repro.runner.shm.SharedTableHandle` names a recycled
  shared-memory segment the worker attaches zero-copy through its
  pinned :class:`~repro.runner.shm.SegmentRegistry`, so successive
  tasks against the same segment skip the map;
* **in-process** — on an inline pool (``workers <= 1``) the task
  carries the :class:`~repro.net.trace.Trace` object itself; nothing
  is copied and no segment is created.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import wait
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.ioutil import write_atomic
from repro.net.table import COLUMNS
from repro.net.trace import Trace, TraceMetadata
from repro.runner.config import PipelineConfig
from repro.runner.pool import WorkerPool
from repro.runner.report import TraceReport
from repro.runner.shm import (
    ArenaPool,
    PlaneArena,
    SharedPlanesHandle,
    SharedTableHandle,
    TableArena,
    segment_registry,
)


@dataclass(frozen=True)
class TraceTask:
    """One shard: label one trace (generated, in-process, or shared).

    When both ``trace`` and ``shm`` are ``None`` the worker regenerates
    the archive day from ``(archive_seed, trace_duration, date)``.  A
    shared-memory ``shm`` handle (pool workers) or an in-process
    ``trace`` (inline pools) supports labeling arbitrary traces (e.g.
    loaded pcaps).
    """

    date: str
    config: PipelineConfig = PipelineConfig()
    archive_seed: int = 2010
    trace_duration: float = 60.0
    trace: Optional[Trace] = None
    shm: Optional[SharedTableHandle] = None
    metadata: Optional[TraceMetadata] = None
    #: Trace-source fingerprint for alarm-cache keys.  Callers that
    #: know the provenance (e.g. an archive day shipped over shm) pass
    #: it so the cache key matches the regenerate path's; ``None``
    #: falls back to a content digest of the packets.
    fingerprint: Optional[str] = None
    cache_dir: Optional[str] = None
    out_dir: Optional[str] = None


def csv_path_for(out_dir: str | Path, date: str) -> Path:
    """Where one trace's label CSV lands inside ``out_dir``."""
    return Path(out_dir) / f"labels-{date}.csv"


#: Process-local pipeline per config.  Persistent workers run many
#: tasks; rebuilding the pipeline per task would discard the detector
#: instances' memoized deterministic state (sketch hash seeds), which
#: warm reuse keeps.  Configs are frozen/hashable and pipelines are
#: stateless across runs, so reuse is observationally identical.
_pipelines: dict = {}


def _pipeline_for(config: PipelineConfig):
    pipeline = _pipelines.get(config)
    if pipeline is None:
        pipeline = config.build_pipeline()
        _pipelines[config] = pipeline
    return pipeline


def fingerprint_trace(trace: Trace) -> str:
    """Content-derived digest of an inline trace.

    Cache keys for embedded traces must reflect the packets themselves
    — two different traces sharing a name/length/duration must not
    share Step 1 alarms.  The digest reads the table's columns (name,
    dtype and bytes of each), so no ``Packet`` object is built.
    """
    table = trace.table
    hasher = hashlib.sha256()
    hasher.update(f"{trace.metadata.name}:{len(table)}".encode())
    for name in COLUMNS:
        column = np.ascontiguousarray(getattr(table, name))
        hasher.update(f";{name}:{column.dtype.str}:".encode())
        hasher.update(column.data)
    return f"inline:{hasher.hexdigest()[:16]}"


def run_task(task: TraceTask) -> TraceReport:
    """Label one trace; never raises (failures become reports)."""
    started = time.perf_counter()
    try:
        report = _run_task_inner(task)
    except Exception as exc:  # noqa: BLE001 - shard isolation is the point
        report = TraceReport(
            date=task.date,
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
        )
    report.elapsed = time.perf_counter() - started
    return report


def _run_task_inner(task: TraceTask) -> TraceReport:
    if task.shm is not None:
        # Registry attach: the mapping is pinned across tasks, so a
        # recycled arena segment maps once per worker lifetime.
        attach_started = time.perf_counter()
        table = segment_registry().view(task.shm)
        attach = time.perf_counter() - attach_started
        trace = Trace.from_table(table, task.metadata)
        return _label_trace(
            task, trace, fingerprint=task.fingerprint, attach=attach
        )
    if task.trace is not None:
        return _label_trace(task, task.trace, fingerprint=task.fingerprint)
    from repro.mawi.archive import SyntheticArchive

    archive = SyntheticArchive(
        seed=task.archive_seed, trace_duration=task.trace_duration
    )
    trace = archive.day(task.date).trace
    return _label_trace(task, trace, fingerprint=archive.fingerprint())


def _label_trace(
    task: TraceTask,
    trace: Trace,
    fingerprint: Optional[str],
    attach: float = 0.0,
) -> TraceReport:
    """Shared Step 1-4 body behind every way a trace arrives.

    ``fingerprint`` identifies the trace source for the alarm cache;
    ``None`` means content-derived (embedded/shared traces), computed
    only when a cache is actually configured — it hashes every column.
    ``attach`` is the shared-memory attach time, folded into
    the report's phase breakdown.
    """
    from repro.labeling.mawilab import labels_to_csv
    from repro.runner.cache import AlarmCache, cached_alarms

    pipeline = _pipeline_for(task.config)
    compute_started = time.perf_counter()
    cache = AlarmCache(task.cache_dir) if task.cache_dir else None
    if cache is not None and fingerprint is None:
        fingerprint = fingerprint_trace(trace)
    alarms, cache_hit = cached_alarms(
        cache, pipeline, trace, fingerprint, task.date
    )
    result = pipeline.run_with_alarms(trace, alarms)
    csv_text = labels_to_csv(result.labels)
    compute = time.perf_counter() - compute_started

    csv_path = ""
    if task.out_dir:
        out_path = csv_path_for(task.out_dir, task.date)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(out_path, csv_text)
        csv_path = str(out_path)

    return TraceReport(
        date=task.date,
        status="ok",
        n_alarms=len(result.alarms),
        n_communities=len(result.community_set.communities),
        n_anomalous=len(result.anomalous()),
        n_suspicious=len(result.suspicious()),
        n_notice=len(result.notice()),
        cache_hit=cache_hit,
        csv_path=csv_path,
        csv_sha256=hashlib.sha256(csv_text.encode()).hexdigest(),
        phases={
            "attach": round(attach, 6),
            "compute": round(compute, 6),
        },
    )


# -- one trace split by detector configuration -------------------------


@dataclass(frozen=True)
class DetectTask:
    """Step 1 for a subset of detector configurations on one table.

    The unit that splits one trace: :func:`detect_groups` exports one
    packet table (``shm``; an inline pool passes the ``trace``
    itself), and ships one ``DetectTask`` per group of
    :func:`config_groups`.  Each worker rebuilds only its
    configurations (``config_indices`` into
    ``config.build_pipeline().ensemble`` order), analyzes the shared
    table, and returns its alarms; concatenating group results in
    group order reproduces ``MAWILabPipeline.detect``'s row order
    exactly — the byte-identity anchor for every group count.

    ``stream_states``, when given (index-aligned with
    ``config_indices``), switches the configurations into streaming
    analysis: each detector runs ``analyze_stream`` with its carried
    state and the updated state returns in the result — which is what
    lets :class:`~repro.stream.pipeline.StreamingPipeline` fan every
    window across the same persistent pool.
    """

    config: PipelineConfig
    config_indices: tuple[int, ...]
    shm: Optional[SharedTableHandle] = None
    trace: Optional[Trace] = None
    metadata: Optional[TraceMetadata] = None
    stream_states: Optional[tuple[dict, ...]] = None
    #: Feature planes the parent already computed for this trace,
    #: exported as one shared segment.  The worker seeds its trace's
    #: :class:`~repro.detectors.planes.PlaneCache` from the zero-copy
    #: views before analyzing, so sibling groups of one trace share
    #: the ensemble's planes instead of recomputing them per worker.
    planes: Optional[SharedPlanesHandle] = None


@dataclass
class DetectResult:
    """Outcome of one :class:`DetectTask` (never an exception)."""

    config_indices: tuple[int, ...]
    status: str = "ok"
    error: str = ""
    #: The group's Step 1 alarms (rows in per-configuration emission
    #: order).  Alarm tables are ~1000x smaller than packet tables, so
    #: they ride the result pipe as-is rather than through a segment.
    alarms: object = None
    #: Updated per-configuration streaming states (streaming tasks).
    states: Optional[tuple[dict, ...]] = None
    n_alarms: int = 0
    worker_pid: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def run_detect(task: DetectTask) -> DetectResult:
    """Run Step 1 for one configuration group; never raises."""
    try:
        return _run_detect_inner(task)
    except Exception as exc:  # noqa: BLE001 - group isolation, as run_task
        return DetectResult(
            config_indices=task.config_indices,
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
            worker_pid=os.getpid(),
        )


def _run_detect_inner(task: DetectTask) -> DetectResult:
    from repro.core.alarm_table import AlarmTable

    if task.shm is not None:
        trace = Trace.from_table(
            segment_registry().view(task.shm), task.metadata
        )
    elif task.trace is not None:
        trace = task.trace
    else:
        raise ValueError("DetectTask carries neither shm nor trace")
    if task.planes is not None:
        # Seed the trace-attached plane cache from the parent's
        # exported planes; detectors resolve the same cache via
        # plane_cache_for, so no analyze call-site changes are needed.
        from repro.detectors.planes import plane_cache_for

        pipeline = _pipeline_for(task.config)
        cache = plane_cache_for(trace, pipeline.engine)
        for spec, value in segment_registry().view(task.planes).items():
            cache.seed(spec, value)

    ensemble = _pipeline_for(task.config).ensemble
    tables = []
    states: Optional[list[dict]] = (
        [] if task.stream_states is not None else None
    )
    for position, index in enumerate(task.config_indices):
        detector = ensemble[index]
        if task.stream_states is None:
            tables.append(detector.analyze_table(trace))
        else:
            state = dict(task.stream_states[position])
            alarms = detector.analyze_stream(trace, state)
            tables.append(
                AlarmTable.from_alarms(list(alarms), engine=detector.engine)
            )
            states.append(state)
    # Alarm tables own their arrays (emission re-encodes), so the
    # result outlives the packet-table views safely.
    merged = AlarmTable.concatenate(tables)
    return DetectResult(
        config_indices=task.config_indices,
        alarms=merged,
        states=tuple(states) if states is not None else None,
        n_alarms=len(merged),
        worker_pid=os.getpid(),
    )


def config_groups(n_configs: int, n_groups: int) -> list[tuple[int, ...]]:
    """``range(n_configs)`` cut into ``n_groups`` balanced groups.

    Groups are contiguous and in ensemble order, so concatenating their
    alarm tables in group order reproduces ``MAWILabPipeline.detect``.
    """
    n_groups = max(min(n_groups, n_configs), 1)
    bounds = [round(i * n_configs / n_groups) for i in range(n_groups + 1)]
    return [
        tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    ]


def detect_groups(
    pool: WorkerPool,
    arenas: ArenaPool,
    config: PipelineConfig,
    trace: Trace,
    groups: Sequence[tuple[int, ...]],
    planes=None,
    stream_states: Optional[Sequence[dict]] = None,
):
    """Step 1 of one trace, one :class:`DetectTask` per group.

    The parent side of :func:`run_detect`.  On a parallel pool the
    trace's table is exported into a :class:`TableArena` taken from
    ``arenas``, and so are ``planes`` (a filled
    :class:`~repro.detectors.planes.PlaneCache`) when given, into a
    :class:`PlaneArena`; an inline pool gets the trace itself.
    ``stream_states`` (one carried state per configuration, ensemble
    order) switches the groups to streaming analysis.

    Returns ``(alarms, states)``: the group alarm tables concatenated
    in group order, and the updated states in the same order (``None``
    without ``stream_states``).  Raises
    :class:`~repro.errors.DetectorError` naming every failed group.
    The arenas go back to ``arenas`` on every path, once no group can
    still read them.
    """
    from repro.core.alarm_table import AlarmTable
    from repro.errors import DetectorError

    taken: list = []
    futures: list = []
    try:
        common: dict = dict(config=config, metadata=trace.metadata)
        if pool.parallel:
            taken.append(arenas.take(TableArena))
            common["shm"] = taken[-1].export(trace.table)
            if planes is not None:
                taken.append(arenas.take(PlaneArena))
                common["planes"] = taken[-1].export(
                    planes.exportable_items()
                )
        else:
            common["trace"] = trace
        for group in groups:
            states = None
            if stream_states is not None:
                states = tuple(stream_states[i] for i in group)
            futures.append(
                pool.submit(
                    run_detect,
                    DetectTask(
                        config_indices=group, stream_states=states, **common
                    ),
                )
            )
        results = [future.result() for future in futures]
    finally:
        # Recycle the segments only once no group can still read them.
        wait(futures)
        for arena in taken:
            arenas.give(arena)
    failed = [result for result in results if not result.ok]
    if failed:
        raise DetectorError(
            "Step 1 failed in "
            + "; ".join(
                f"configurations {list(r.config_indices)}: {r.error}"
                for r in failed
            )
        )
    alarms = AlarmTable.concatenate(result.alarms for result in results)
    if stream_states is None:
        return alarms, None
    return alarms, [state for result in results for state in result.states]
