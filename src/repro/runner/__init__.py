"""Batch archive labeling: shard traces across a process pool.

The paper's whole point is *longitudinal* labeling — running the
4-step method over years of daily MAWI traces.  This package provides
the production machinery for that workload:

* :class:`~repro.runner.config.PipelineConfig` — a picklable pipeline
  description shared by the CLI and pool workers;
* :class:`~repro.runner.cache.AlarmCache` — an on-disk Step 1 cache so
  re-labeling with a different combiner or granularity skips detection;
* :mod:`~repro.runner.shm` — the zero-copy shared-memory transport:
  packet tables exported once per trace, attached by workers without
  pickling;
* :mod:`~repro.runner.worker` — the per-trace and per-detector tasks
  pool workers execute.

Orchestration lives in :class:`repro.session.LabelingSession`, which
shards an archive (or any iterable of traces) across workers, tracks
per-shard progress and failures, supports resuming an interrupted
run, and aggregates the per-trace label counts into a longitudinal
report.
"""

from repro.runner.cache import AlarmCache
from repro.runner.config import PipelineConfig
from repro.runner.pool import parallel_map
from repro.runner.report import BatchReport, TraceReport
from repro.runner.shm import SharedTableHandle, export_table
from repro.runner.worker import TraceTask, run_task

__all__ = [
    "AlarmCache",
    "BatchReport",
    "PipelineConfig",
    "SharedTableHandle",
    "TraceReport",
    "TraceTask",
    "export_table",
    "parallel_map",
    "run_task",
]
