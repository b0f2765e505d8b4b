"""The similarity estimator: alarms in, communities out.

Orchestrates Step 2 of the paper's method:

1. :class:`~repro.core.extractor.TrafficExtractor` retrieves the
   traffic designated by each alarm at the chosen granularity;
2. :func:`~repro.core.graph.build_similarity_graph` connects alarms
   whose traffic intersects, weighted by a similarity measure
   (Simpson by default);
3. :func:`~repro.core.louvain.louvain` clusters the graph into
   communities; alarms left alone become *single communities*.

The alarms travel as one :class:`~repro.core.alarm_table.AlarmTable`
on every engine, and communities are index vectors over it.  The
engine only picks the kernels: the extraction strategy (and with it
the graph input it hands over) and the similarity-graph kernel.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.alarm_table import AlarmTable, as_alarm_table
from repro.core.community import Community, CommunitySet
from repro.core.extractor import TrafficExtractor
from repro.core.graph import build_similarity_graph
from repro.core.louvain import louvain
from repro.detectors.base import Alarm
from repro.engine import EngineSpec, resolve_engine
from repro.net.flow import Granularity
from repro.net.trace import Trace


class SimilarityEstimator:
    """Groups similar alarms into communities.

    Parameters
    ----------
    granularity:
        Traffic granularity for alarm association (uniflow by default —
        the paper's final choice, Section 5).
    measure:
        Similarity measure name ("simpson" / "jaccard" / "constant") or
        a callable.
    edge_threshold:
        Minimum edge weight kept in the graph.
    seed:
        Louvain shuffle seed (fixes the partition).
    resolution:
        Louvain modularity resolution.
    engine:
        Execution-engine spec (resolved through
        :func:`repro.engine.resolve_engine`) for traffic extraction and
        similarity-graph construction.  All engines build identical
        graphs and communities.
    """

    def __init__(
        self,
        granularity: Granularity = Granularity.UNIFLOW,
        measure: str = "simpson",
        edge_threshold: float = 0.0,
        seed: int = 0,
        resolution: float = 1.0,
        engine: EngineSpec = "auto",
    ) -> None:
        self.granularity = granularity
        self.measure = measure
        self.edge_threshold = edge_threshold
        self.seed = seed
        self.resolution = resolution
        self.engine = resolve_engine(engine, what="estimator")

    def build(
        self,
        trace: Trace,
        alarms: Union[AlarmTable, Sequence[Alarm]],
        timings: Optional[dict] = None,
    ) -> CommunitySet:
        """Run the estimator on one trace's alarms.

        ``alarms`` is an :class:`~repro.core.alarm_table.AlarmTable`;
        a plain alarm list is encoded into one first.  The resulting
        communities are index vectors over the table.  ``timings``,
        when given, accumulates per-stage wall seconds under the keys
        ``"extract"``, ``"graph"`` and ``"combine"`` (Louvain
        clustering) — the ``repro bench`` instrumentation.
        """
        clock = time.perf_counter
        table = as_alarm_table(alarms, engine=self.engine)
        started = clock()
        extractor = TrafficExtractor(
            trace, self.granularity, engine=self.engine
        )
        graph_input, traffic_sets = extractor.extract_all(table)
        if timings is not None:
            timings["extract"] = timings.get("extract", 0.0) + clock() - started
        started = clock()
        graph = build_similarity_graph(
            graph_input,
            measure=self.measure,
            edge_threshold=self.edge_threshold,
            engine=self.engine,
        )
        if timings is not None:
            timings["graph"] = timings.get("graph", 0.0) + clock() - started
        started = clock()
        partition = louvain(
            graph, resolution=self.resolution, seed=self.seed
        )
        communities = self._materialize(table, traffic_sets, partition)
        if timings is not None:
            timings["combine"] = timings.get("combine", 0.0) + clock() - started
        return CommunitySet(
            communities=communities,
            alarms=table,
            traffic_sets=traffic_sets,
            granularity=self.granularity,
            graph=graph,
            extractor=extractor,
        )

    @staticmethod
    def _materialize(
        table: AlarmTable,
        traffic_sets: list,
        partition: dict[int, int],
    ) -> list[Community]:
        """Build Community objects from the Louvain partition.

        Communities stay index vectors over the table: their time
        envelopes come from vectorized column reductions and their
        member alarms are lazy table views.
        """
        members: dict[int, list[int]] = {}
        for alarm_id, label in partition.items():
            members.setdefault(label, []).append(alarm_id)
        communities: list[Community] = []
        for new_id, label in enumerate(sorted(members)):
            alarm_ids = tuple(sorted(members[label]))
            traffic = frozenset().union(
                *(traffic_sets[i] for i in alarm_ids)
            )
            ids = np.fromiter(alarm_ids, np.int64, count=len(alarm_ids))
            communities.append(
                Community(
                    id=new_id,
                    alarm_ids=alarm_ids,
                    table=table,
                    traffic=traffic,
                    t0=float(table.t0[ids].min()),
                    t1=float(table.t1[ids].max()),
                )
            )
        return communities
