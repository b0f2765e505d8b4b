"""Detector sensitivity sweeps (ROC-style curves).

The paper motivates confidence scores by the detectors' parameter
sensitivity: "running a detector with several parameter sets and
measuring the variability of its output quantifies its parameter
sensitivity" (Section 2.2.2).  This module measures that variability
directly: sweep one parameter of a detector over a grid and score each
setting against ground truth, yielding the recall/precision trade-off
curve that the optimal/sensitive/conservative tunings sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.eval.groundtruth import score_detector
from repro.mawi.anomalies import GroundTruthEvent
from repro.net.flow import Granularity
from repro.net.trace import Trace


@dataclass
class SweepPoint:
    """One parameter setting's aggregate score."""

    value: float
    recall: float
    precision: float
    n_alarms: int


@dataclass
class SweepResult:
    """A full sensitivity sweep of one detector parameter."""

    detector: str
    parameter: str
    points: list[SweepPoint] = field(default_factory=list)

    def best_by_f1(self) -> SweepPoint:
        """The sweep point with the best F1 score."""
        if not self.points:
            raise ValueError("empty sweep")

        def f1(point: SweepPoint) -> float:
            if point.recall + point.precision == 0:
                return 0.0
            return (
                2 * point.recall * point.precision
                / (point.recall + point.precision)
            )

        return max(self.points, key=f1)

    def to_rows(self) -> list[list]:
        return [
            [p.value, p.recall, p.precision, p.n_alarms] for p in self.points
        ]


def _score_grid_chunk(payload: tuple) -> list[SweepPoint]:
    """Score a chunk of grid values (module-level for pool workers).

    Chunking keeps per-chunk payloads small; pooled sweeps additionally
    ship each workload trace as a zero-copy shared-memory handle
    (attached here, once per chunk) instead of pickling the packet
    arrays into every chunk's task.
    """
    (
        detector_cls,
        parameter,
        values,
        fixed_params,
        engine,
        workloads,
        shipped,
        granularity,
        min_overlap,
    ) = payload
    attachments = []
    if shipped is not None:
        from repro.net.trace import Trace

        workloads = []
        for handle, metadata, events in shipped:
            attached = handle.attach()
            attachments.append(attached)
            workloads.append(
                (Trace.from_table(attached.view, metadata), events)
            )
    try:
        points = []
        for value in values:
            params = dict(fixed_params)
            params[parameter] = value
            detector = detector_cls(engine=engine, **params)
            recalls, precisions, alarms = [], [], 0
            for trace, events in workloads:
                score = score_detector(
                    detector,
                    trace,
                    events,
                    granularity=granularity,
                    min_overlap=min_overlap,
                )
                recalls.append(score.recall)
                precisions.append(score.precision)
                alarms += score.n_objects
            n = max(len(workloads), 1)
            points.append(
                SweepPoint(
                    value=float(value),
                    recall=sum(recalls) / n,
                    precision=sum(precisions) / n,
                    n_alarms=alarms,
                )
            )
        return points
    finally:
        del workloads
        for attached in attachments:
            attached.close()


def sweep_parameter(
    detector_cls,
    parameter: str,
    values: Sequence[float],
    workloads: Sequence[tuple[Trace, Sequence[GroundTruthEvent]]],
    granularity: Granularity = Granularity.UNIFLOW,
    min_overlap: float = 0.2,
    workers: int = 1,
    engine: str = "auto",
    **fixed_params,
) -> SweepResult:
    """Sweep ``parameter`` of ``detector_cls`` over ``values``.

    Parameters
    ----------
    detector_cls:
        A :class:`~repro.detectors.base.Detector` subclass.
    parameter:
        Name of the parameter to sweep (must exist in the detector's
        defaults).
    values:
        Grid of values.
    workloads:
        ``(trace, events)`` pairs; scores are averaged over them.
    workers:
        Process-pool size for scoring grid values concurrently
        (``<= 1`` keeps the sweep in-process).  Grid points are
        independent, so results are identical at any pool size.  With
        a pool, each workload trace is exported once to a shared-memory
        segment and every chunk attaches it zero-copy — chunk payloads
        stay O(grid), not O(grid x corpus).
    engine:
        Execution-engine spec applied to every swept detector.
    fixed_params:
        Other parameter overrides held constant during the sweep.

    Returns
    -------
    SweepResult
        One :class:`SweepPoint` per grid value.
    """
    from repro.runner.pool import parallel_map

    workloads = [(trace, list(events)) for trace, events in workloads]
    values = list(values)
    n_chunks = min(max(workers, 1), len(values)) or 1
    chunks = [values[i::n_chunks] for i in range(n_chunks)]

    shipped = None
    handles = []
    if workers > 1:
        from repro.runner.shm import export_table

        shipped = []
        for trace, events in workloads:
            handle = export_table(trace.table)
            handles.append(handle)
            shipped.append((handle, trace.metadata, events))
    payloads = [
        (
            detector_cls,
            parameter,
            chunk,
            fixed_params,
            engine,
            None if shipped is not None else workloads,
            shipped,
            granularity,
            min_overlap,
        )
        for chunk in chunks
    ]
    try:
        chunk_points = parallel_map(
            _score_grid_chunk, payloads, workers=workers
        )
    finally:
        for handle in handles:
            handle.unlink()
    # Unstripe back to input order (chunk i holds values[i::n_chunks]).
    points: list[SweepPoint] = [None] * len(values)  # type: ignore[list-item]
    for i, chunk_result in enumerate(chunk_points):
        points[i::n_chunks] = chunk_result
    return SweepResult(
        detector=detector_cls.name, parameter=parameter, points=points
    )
