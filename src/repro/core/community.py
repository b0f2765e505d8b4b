"""Community model.

A community is a set of similar alarms found by Louvain in the
similarity graph (paper Section 2.1.3).  Isolated alarms form *single
communities* — the estimator's failure mode the evaluation counts
(Fig. 3a).

A community is an *index vector* over the run's
:class:`~repro.core.alarm_table.AlarmTable`: member ids plus the table
reference, on every engine.  :class:`Alarm` objects are materialized
lazily through the table only when object-level code asks for
:attr:`Community.alarms`; the hot consumers —
:meth:`Community.detectors` / :meth:`Community.configs` feeding the
combiner vote tables — read the table's dense code columns directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.core.alarm_table import AlarmTable
from repro.detectors.base import Alarm


class Community:
    """One community of similar alarms.

    Parameters
    ----------
    id:
        Community label (contiguous ints within one estimator run).
    alarm_ids:
        Indices of member alarms into the run's alarm table.
    table:
        The run's :class:`~repro.core.alarm_table.AlarmTable`;
        ``alarm_ids`` index its rows.
    traffic:
        Union of the members' extracted traffic sets (packet indices or
        flow keys, per the estimator's granularity).
    t0, t1:
        Envelope of the member alarms' time windows.
    """

    __slots__ = ("id", "alarm_ids", "table", "traffic", "t0", "t1")

    def __init__(
        self,
        id: int,
        alarm_ids: tuple[int, ...],
        table: AlarmTable,
        traffic: FrozenSet = frozenset(),
        t0: float = 0.0,
        t1: float = 0.0,
    ) -> None:
        self.id = id
        self.alarm_ids = tuple(alarm_ids)
        self.table = table
        self.traffic = traffic
        self.t0 = t0
        self.t1 = t1

    @property
    def alarms(self) -> tuple[Alarm, ...]:
        """Member alarms as objects (lazy table views)."""
        return tuple(self.table.alarm(i) for i in self.alarm_ids)

    @property
    def size(self) -> int:
        """Number of member alarms (the paper's community size)."""
        return len(self.alarm_ids)

    @property
    def is_single(self) -> bool:
        """True for single communities (one alarm, no relations found)."""
        return self.size == 1

    def detectors(self) -> set[str]:
        """Detector families with at least one alarm in the community."""
        return self.table.detector_names_at(list(self.alarm_ids))

    def configs(self) -> set[str]:
        """Configurations with at least one alarm in the community."""
        return self.table.config_names_at(list(self.alarm_ids))

    def describe(self) -> str:
        detectors = ",".join(sorted(self.detectors()))
        return (
            f"community#{self.id} size={self.size} detectors=[{detectors}] "
            f"window={self.t0:.1f}-{self.t1:.1f}s traffic={len(self.traffic)}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Community(id={self.id}, size={self.size}, "
            f"window=[{self.t0}, {self.t1}))"
        )


@dataclass
class CommunitySet:
    """Output of one similarity-estimator run on one trace.

    ``alarms`` is the run's alarm population; every community's
    ``alarm_ids`` index its rows.
    """

    communities: list[Community]
    alarms: AlarmTable
    traffic_sets: list[FrozenSet]
    granularity: object = None  # repro.net.flow.Granularity
    graph: Optional[object] = None  # repro.core.graph.SimilarityGraph
    extractor: Optional[object] = None  # repro.core.extractor.TrafficExtractor

    @property
    def n_single(self) -> int:
        """Number of single communities (Fig. 3a metric)."""
        return sum(1 for c in self.communities if c.is_single)

    def non_single(self) -> list[Community]:
        return [c for c in self.communities if not c.is_single]

    def sizes(self) -> list[int]:
        return [c.size for c in self.communities]

    def by_id(self, community_id: int) -> Community:
        for community in self.communities:
            if community.id == community_id:
                return community
        raise KeyError(f"no community with id {community_id}")
