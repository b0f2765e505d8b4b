"""Evaluation against the synthetic archive's ground truth.

The real MAWILab has no ground truth (the whole point of the paper's
heuristic-based evaluation); the synthetic archive, however, knows
exactly what it injected.  This module measures a pipeline run — or a
single detector — against the injected
:class:`~repro.mawi.anomalies.GroundTruthEvent` records, yielding the
event-recall / precision numbers the paper could only approximate with
Table-1 heuristics.

Matching uses the same machinery as everything else: a ground-truth
event is expressed as a pseudo-alarm, its traffic extracted at the
evaluation granularity, and an overlap above ``min_overlap`` (Simpson
coefficient) counts as a match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.extractor import TrafficExtractor
from repro.detectors.base import Alarm
from repro.mawi.anomalies import GroundTruthEvent
from repro.net.flow import Granularity
from repro.net.trace import Trace


@dataclass
class EventMatch:
    """Match outcome for one injected event."""

    event: GroundTruthEvent
    detected: bool
    matched_by: tuple[str, ...] = ()  # community ids or detector configs
    best_overlap: float = 0.0


@dataclass
class GroundTruthScore:
    """Aggregate event-level evaluation."""

    matches: list[EventMatch] = field(default_factory=list)
    n_positives: int = 0  # objects (communities/alarms) matching any event
    n_objects: int = 0

    @property
    def recall(self) -> float:
        if not self.matches:
            return 0.0
        return sum(1 for m in self.matches if m.detected) / len(self.matches)

    @property
    def precision(self) -> float:
        """Fraction of evaluated objects overlapping some event."""
        if self.n_objects == 0:
            return 0.0
        return self.n_positives / self.n_objects

    def recall_by_kind(self) -> dict[str, float]:
        """Per-anomaly-kind recall (e.g. 'sasser' -> 1.0)."""
        by_kind: dict[str, list[bool]] = {}
        for match in self.matches:
            by_kind.setdefault(match.event.kind, []).append(match.detected)
        return {
            kind: sum(hits) / len(hits) for kind, hits in by_kind.items()
        }


def _event_traffic(event: GroundTruthEvent, extractor: TrafficExtractor):
    pseudo = Alarm(
        detector="groundtruth",
        config="groundtruth/injected",
        t0=event.t0,
        t1=event.t1,
        filters=tuple(event.filters),
    )
    return extractor.extract(pseudo)


def _simpson(a, b) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


def score_traffic_sets(
    trace: Trace,
    events: Sequence[GroundTruthEvent],
    traffic_sets: Sequence,
    names: Sequence[str],
    granularity: Granularity = Granularity.UNIFLOW,
    min_overlap: float = 0.2,
    extractor: TrafficExtractor | None = None,
) -> GroundTruthScore:
    """Score arbitrary traffic sets (communities or alarms) vs events."""
    if extractor is None:
        extractor = TrafficExtractor(trace, granularity)
    event_traffic = [_event_traffic(e, extractor) for e in events]
    matched_objects = [False] * len(traffic_sets)
    matches: list[EventMatch] = []
    for event, traffic in zip(events, event_traffic):
        matched_by = []
        best = 0.0
        for i, candidate in enumerate(traffic_sets):
            overlap = _simpson(traffic, candidate)
            if overlap >= min_overlap:
                matched_by.append(names[i])
                matched_objects[i] = True
            best = max(best, overlap)
        matches.append(
            EventMatch(
                event=event,
                detected=bool(matched_by),
                matched_by=tuple(matched_by),
                best_overlap=best,
            )
        )
    return GroundTruthScore(
        matches=matches,
        n_positives=sum(matched_objects),
        n_objects=len(traffic_sets),
    )


def score_pipeline_result(
    result,
    events: Sequence[GroundTruthEvent],
    accepted_only: bool = True,
    min_overlap: float = 0.2,
) -> GroundTruthScore:
    """Score a :class:`PipelineResult` against injected events.

    With ``accepted_only`` (default) only SCANN-accepted communities
    count — i.e. the score answers "would the published *anomalous*
    labels cover the injected anomalies?".
    """
    community_set = result.community_set
    selected = [
        (community, decision)
        for community, decision in zip(
            community_set.communities, result.decisions
        )
        if decision.accepted or not accepted_only
    ]
    traffic_sets = [community.traffic for community, _ in selected]
    names = [f"community#{community.id}" for community, _ in selected]
    return score_traffic_sets(
        result.trace,
        events,
        traffic_sets,
        names,
        extractor=community_set.extractor,
        min_overlap=min_overlap,
    )


def score_detector(
    detector,
    trace: Trace,
    events: Sequence[GroundTruthEvent],
    granularity: Granularity = Granularity.UNIFLOW,
    min_overlap: float = 0.2,
) -> GroundTruthScore:
    """Score a standalone detector's alarms against injected events."""
    alarms = detector.analyze(trace)
    extractor = TrafficExtractor(trace, granularity)
    traffic_sets = extractor.extract_all(alarms).traffic_sets
    names = [alarm.config for alarm in alarms]
    return score_traffic_sets(
        trace,
        events,
        traffic_sets,
        names,
        extractor=extractor,
        min_overlap=min_overlap,
    )
