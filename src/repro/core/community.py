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
Likewise, on every engine a community's traffic is a sorted code
array (:attr:`Community.codes`), and the public
:attr:`Community.traffic` set is decoded from it on first access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Optional, Sequence

import numpy as np

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
    t0, t1:
        Envelope of the member alarms' time windows.
    codes, decode:
        The union of the members' traffic as sorted codes of the run's
        trace (packet rows or flow codes), and the function that turns
        them into the public traffic set (packet indices or flow keys,
        per the estimator's granularity).  A streamed community's flow
        codes index the window's flow table extended with the flows its
        alarms carry into the window
        (:meth:`~repro.net.table.FlowTable.extended`): a code past the
        window's own flows is a flow with no packet in the window.
    """

    __slots__ = (
        "id",
        "alarm_ids",
        "table",
        "t0",
        "t1",
        "codes",
        "_traffic",
        "_decode",
    )

    def __init__(
        self,
        id: int,
        alarm_ids: tuple[int, ...],
        table: AlarmTable,
        t0: float = 0.0,
        t1: float = 0.0,
        *,
        codes: np.ndarray,
        decode: Callable[[np.ndarray], FrozenSet],
    ) -> None:
        self.id = id
        self.alarm_ids = tuple(alarm_ids)
        self.table = table
        self.t0 = t0
        self.t1 = t1
        self.codes = codes
        self._traffic: Optional[FrozenSet] = None
        self._decode = decode

    @property
    def traffic(self) -> FrozenSet:
        """Union of the members' traffic sets (decoded on first access)."""
        if self._traffic is None:
            self._traffic = self._decode(self.codes)
        return self._traffic

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
    ``alarm_ids`` index its rows.  ``traffic_sets`` holds each alarm's
    traffic set, index-aligned with those rows (a
    :class:`~repro.core.extractor.TrafficSets` over the extraction's
    code arrays, decoded on access).
    """

    communities: list[Community]
    alarms: AlarmTable
    traffic_sets: Sequence[FrozenSet]
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
