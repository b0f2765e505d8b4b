"""The similarity graph of the streaming engine's live alarms.

A sliding window sees its alarm population change by *deltas*: each
window contributes the alarms detected in it and retires the ones
that slid out.  :class:`DynamicSimilarityGraph` keeps that population
as integer traffic:

* one sorted int64 code array per live alarm;
* one ``(M, 5)`` table of flow key columns that the codes index.

The codes are flow codes of the current window's
:class:`~repro.net.table.FlowTable`.  When the next window arrives,
:meth:`DynamicSimilarityGraph.recode` looks up the distinct flows the
live alarms reference in its flow table, with one
:meth:`~repro.net.table.FlowTable.lookup`, and moves every array onto
the new codes with one gather.  A carried flow with no packet in the
window gets a code past the window's flows: the returned table is the
window's, :meth:`~repro.net.table.FlowTable.extended` with those flows,
which have key columns but no rows.  Fresh alarms then join with the
window's codes, as the columnar extractor hands them over.

:meth:`DynamicSimilarityGraph.build` is one ``"similarity_graph"``
kernel call over the live arrays, in ascending id order.  It is the
offline graph of the live alarms by construction: the same nodes,
weights and ordered adjacency, so Louvain tie-breaking (and therefore
community numbering) matches the offline pipeline when the window
covers the whole trace.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.graph import SimilarityGraph, resolve_measure
from repro.core.similarity import SimilarityMeasure
from repro.engine import EngineSpec, resolve_engine
from repro.errors import GraphError
from repro.net.table import FlowTable


class DynamicSimilarityGraph:
    """Similarity graph over a *mutating* population of alarms.

    Alarm ids are monotonically increasing ints assigned at insertion;
    they are stable for the alarm's whole residency, across any number
    of expirations of other alarms.

    Parameters
    ----------
    measure:
        Similarity measure name ("simpson" / "jaccard" / "constant")
        or a callable ``(intersection, |A|, |B|) -> weight``.
    edge_threshold:
        Edges with weight <= this value are dropped, exactly like the
        offline builder.
    engine:
        Engine spec (see :func:`repro.engine.resolve_engine`);
        :meth:`build` runs its ``"similarity_graph"`` kernel.
    """

    def __init__(
        self,
        measure: SimilarityMeasure | str = "simpson",
        edge_threshold: float = 0.0,
        engine: EngineSpec = "auto",
    ) -> None:
        self._measure_fn, self._batch_fn = resolve_measure(measure)
        self.edge_threshold = edge_threshold
        self.engine = resolve_engine(engine, what="graph")
        self._next_id = 0
        #: Live alarm id -> its sorted int64 traffic codes, in
        #: insertion (= ascending id) order.
        self._codes: dict[int, np.ndarray] = {}
        #: The flow key columns the codes index.
        self._keys = np.empty((0, 5), dtype=np.int64)

    # -- delta API -----------------------------------------------------

    def add_alarms(self, code_arrays: Iterable[np.ndarray]) -> list[int]:
        """Insert alarms; return their ids in order.

        Each alarm is its traffic as sorted unique codes of the table
        the last :meth:`recode` returned.
        """
        ids = []
        for codes in code_arrays:
            self._codes[self._next_id] = np.asarray(codes, dtype=np.int64)
            ids.append(self._next_id)
            self._next_id += 1
        return ids

    def expire_alarms(self, alarm_ids: Iterable[int]) -> None:
        """Remove alarms."""
        for alarm_id in alarm_ids:
            if self._codes.pop(alarm_id, None) is None:
                raise GraphError(f"alarm {alarm_id} is not live")

    def recode(self, flows: FlowTable) -> FlowTable:
        """Move the live alarms onto the flow codes of a new window.

        Returns ``flows`` extended with the carried flows that have no
        packet in it (``flows`` itself when every one has).  The live
        arrays, and the alarms :meth:`add_alarms` inserts next, index
        the returned table.
        """
        arrays = list(self._codes.values())
        sizes = np.fromiter(map(len, arrays), np.int64, len(arrays))
        flat = np.concatenate(arrays) if arrays else np.empty(0, np.int64)
        referenced = np.zeros(len(self._keys), dtype=bool)
        referenced[flat] = True
        used = np.flatnonzero(referenced)
        found = flows.lookup(self._keys[used])
        absent = found < 0
        found[absent] = len(flows) + np.arange(int(absent.sum()))
        extended = (
            flows.extended(self._keys[used[absent]]) if absent.any() else flows
        )
        new_code = np.empty(len(self._keys), dtype=np.int64)
        new_code[used] = found
        # One gather moves every array; one sort of (alarm, code) keys
        # puts each array back in code order.
        n_codes = len(extended.key_columns)
        owner = np.repeat(np.arange(len(arrays), dtype=np.int64), sizes)
        keyed = owner * n_codes + new_code[flat]
        keyed.sort()
        keyed -= owner * n_codes
        for alarm_id, codes in zip(
            list(self._codes), np.split(keyed, np.cumsum(sizes)[:-1])
        ):
            self._codes[alarm_id] = codes
        self._keys = extended.key_columns
        return extended

    # -- inspection ----------------------------------------------------

    @property
    def n_live(self) -> int:
        return len(self._codes)

    def live_ids(self) -> list[int]:
        """Live alarm ids in insertion (= ascending) order."""
        return list(self._codes)

    def live_codes(self) -> list[np.ndarray]:
        """The live alarms' code arrays, in :meth:`live_ids` order."""
        return list(self._codes.values())

    # -- compaction ----------------------------------------------------

    def build(self) -> tuple[SimilarityGraph, dict[int, int]]:
        """The similarity graph of the live alarms.

        Returns ``(graph, node_of)`` where ``node_of`` maps live alarm
        id -> node index ``0..n-1`` (ascending id order).  One
        ``"similarity_graph"`` kernel call over the live arrays builds
        the graph :func:`~repro.core.graph.build_similarity_graph`
        builds offline from the same alarms, edges inserted in sorted
        ``(u, v)`` node order.
        """
        node_of = {alarm_id: node for node, alarm_id in enumerate(self._codes)}
        graph = self.engine.kernel("similarity_graph")(
            self.live_codes(),
            self._measure_fn,
            self._batch_fn,
            self.edge_threshold,
        )
        return graph, node_of
