"""Traffic extractor (the "oracle" of the predecessor paper).

Retrieves the traffic described by each alarm at a chosen granularity
(paper Section 2.1.1).  The extracted traffic of an alarm is a set:

* packet granularity — a set of packet indices into the trace;
* uniflow / biflow granularity — a set of flow keys.

The granularity choice is the estimator's central trade-off (Fig. 1 and
Fig. 3): packets give precise but fragmented associations, flows relate
alarms that touch different packets of the same conversation.

Two interchangeable strategies implement the retrieval, registered as
the per-engine ``"traffic_extractor"`` kernels.  Each implements one
method, ``extract_table``, which reads an
:class:`~repro.core.alarm_table.AlarmTable` and returns an
:class:`Extraction`: the engine's similarity-graph input together with
the public traffic sets.

* :class:`ColumnarTrafficExtraction` — traffic is a sorted array of
  integer codes per alarm: packet rows, or flow codes of the trace's
  :class:`~repro.net.table.FlowTable`.  Each filter is evaluated over
  the rows of its time window only, found with one ``searchsorted``
  on the time-sorted trace; every flow key of the table is mapped to
  its uniflow code in one vectorized lookup, and its rows come from
  the flow table's code -> rows index.  The codes feed the similarity
  graph, the communities, the Table-1 heuristics and the rule blocks
  directly; :class:`TrafficSets` builds the public sets from them
  only for the elements a caller reads.
* :class:`ReferenceTrafficExtraction` — the original per-packet
  predicate loop, kept as the readable reference; its traffic sets are
  also its graph input.  The engine parity suite asserts both
  strategies extract identical traffic sets.

Both keep one window rule: flow-key traffic includes packets at
exactly the alarm's ``t1`` when that is the trace's last timestamp,
while a filter's window stays half-open.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, FrozenSet, NamedTuple, Union

import numpy as np

from repro.core.alarm_table import FLOW_COLUMNS, AlarmTable, as_alarm_table
from repro.detectors.base import Alarm
from repro.engine import Engine, EngineSpec, resolve_engine
from repro.errors import TraceError
from repro.net.flow import FlowKey, Granularity, biflow_key, uniflow_key
from repro.net.trace import Trace

#: Filter fields in :class:`~repro.core.alarm_table.AlarmTable` column
#: order (``f_src``, ``f_dst``, ...).
_FILTER_FIELDS = ("src", "dst", "sport", "dport", "proto")

_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_ROWS.flags.writeable = False


class TrafficSets(Sequence):
    """Per-alarm traffic sets, decoded from code arrays on first access.

    Element ``i`` is ``decode(codes[i])``, built when a caller first
    reads it and then kept.  Equal to any sequence holding the same
    sets in the same order.
    """

    def __init__(
        self,
        codes: list[np.ndarray],
        decode: Callable[[np.ndarray], FrozenSet],
    ) -> None:
        self.codes = codes
        self.decode = decode
        self._sets: list = [None] * len(codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        traffic = self._sets[index]
        if traffic is None:
            traffic = self._sets[index] = self.decode(self.codes[index])
        return traffic

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def union(self, ids: Sequence[int]) -> np.ndarray:
        """Sorted codes of the union of elements ``ids``."""
        if len(ids) == 1:
            return self.codes[ids[0]]
        return np.unique(np.concatenate([self.codes[i] for i in ids]))


class ReferenceTrafficExtraction:
    """Pure-Python extraction strategy (the correctness oracle)."""

    def __init__(
        self, trace: Trace, granularity: Granularity, engine: Engine
    ) -> None:
        self.trace = trace
        self.granularity = granularity
        self.engine = engine
        # Per-packet flow keys (lazy by granularity need).
        self._uniflow_of: list[FlowKey] = [uniflow_key(p) for p in trace]
        if granularity is Granularity.BIFLOW:
            self._biflow_of: list[FlowKey] = [biflow_key(p) for p in trace]
        else:
            self._biflow_of = []
        # Uniflow key -> packet indices, for flow-key alarms.
        self._uniflow_index: dict[FlowKey, list[int]] = {}
        for i, key in enumerate(self._uniflow_of):
            self._uniflow_index.setdefault(key, []).append(i)

    def _packet_indices(self, alarm: Alarm) -> set[int]:
        """Packet indices designated by the alarm (filters + flow keys)."""
        trace = self.trace
        indices: set[int] = set()
        for feature_filter in alarm.filters:
            t0 = feature_filter.t0 if feature_filter.t0 is not None else alarm.t0
            t1 = feature_filter.t1 if feature_filter.t1 is not None else alarm.t1
            for i in trace.time_slice(t0, t1):
                if feature_filter.matches(trace[i]):
                    indices.add(i)
        if alarm.flow_keys:
            for key in alarm.flow_keys:
                for i in self._uniflow_index.get(key, ()):
                    if alarm.t0 <= trace[i].time < alarm.t1 or (
                        trace[i].time == alarm.t1 == trace.end_time
                    ):
                        indices.add(i)
        return indices

    def _traffic(self, alarm: Alarm) -> FrozenSet:
        indices = self._packet_indices(alarm)
        if self.granularity is Granularity.PACKET:
            return frozenset(indices)
        if self.granularity is Granularity.UNIFLOW:
            return frozenset(self._uniflow_of[i] for i in indices)
        return frozenset(self._biflow_of[i] for i in indices)

    def extract_table(self, table: AlarmTable) -> tuple[list, list[FrozenSet]]:
        """Traffic sets of every row; they double as the graph input."""
        traffic_sets = [self._traffic(table.alarm(i)) for i in range(len(table))]
        return traffic_sets, traffic_sets

    def packets_of(self, traffic: FrozenSet) -> list[int]:
        if self.granularity is Granularity.PACKET:
            return sorted(int(i) for i in traffic)
        if self.granularity is Granularity.UNIFLOW:
            result: list[int] = []
            for key in traffic:
                result.extend(self._uniflow_index.get(key, ()))
            return sorted(result)
        # Biflow: collect both directions via the biflow key map.
        wanted = set(traffic)
        return sorted(
            i for i, key in enumerate(self._biflow_of) if key in wanted
        )


class ColumnarTrafficExtraction:
    """Vectorized extraction strategy over the trace's packet table."""

    def __init__(
        self, trace: Trace, granularity: Granularity, engine: Engine
    ) -> None:
        self.trace = trace
        self.granularity = granularity
        self.engine = engine
        self._scratch = engine.scratch()

    def traffic_of(self, codes: np.ndarray) -> FrozenSet:
        """The public traffic set of a code array."""
        if self.granularity is Granularity.PACKET:
            return frozenset(codes.tolist())
        return frozenset(self.trace.flow_table(self.granularity).keys_of(codes))

    def extract_table(
        self, table: AlarmTable
    ) -> tuple[list[np.ndarray], TrafficSets]:
        """Per-row code arrays (the graph input) and their traffic sets.

        Designations are read from the table's filter and flow-key
        columns; no :class:`Alarm`, filter or flow-key view is built.
        Element ``i`` of the codes holds the sorted unique traffic
        codes (flow ids, or packet indices at packet granularity) of
        row ``i``: the integer alphabet the ``"similarity_graph"``
        kernel consumes without per-element Python work.
        """
        time = self.trace.table.time
        # Every filter's window [t0, t1): its own bounds, else its
        # alarm's; two searchsorted calls bound all their row ranges.
        owner = np.repeat(np.arange(len(table)), np.diff(table.filter_bounds))
        t0s = np.where(np.isnan(table.f_t0), table.t0[owner], table.f_t0)
        t1s = np.where(np.isnan(table.f_t1), table.t1[owner], table.f_t1)
        empty = np.flatnonzero(t1s < t0s)
        if empty.size:
            # Mirror Trace.time_slice on the reference path.
            j = int(empty[0])
            raise TraceError(f"empty interval [{float(t0s[j])}, {float(t1s[j])})")
        filter_lo = np.searchsorted(time, t0s).tolist()
        filter_hi = np.searchsorted(time, t1s).tolist()
        tests = self._filter_tests(table)
        flow_bounds = table.flow_bounds.tolist()
        if flow_bounds[-1]:
            uniflows = self.trace.flow_table(Granularity.UNIFLOW)
            key_codes = uniflows.lookup(
                np.stack([table.column(name) for name in FLOW_COLUMNS], axis=1)
            )
            key_lo = np.searchsorted(time, table.t0).tolist()
            key_hi = np.searchsorted(time, table.t1).tolist()
            # A flow-key window ending at the trace's last timestamp
            # includes the packets there.
            at_end = (table.t1 == time[-1]).tolist() if len(time) else []
        filter_bounds = table.filter_bounds.tolist()
        traffic_codes = (
            None
            if self.granularity is Granularity.PACKET
            else self.trace.flow_table(self.granularity).codes
        )
        codes = []
        for i in range(len(table)):
            windows = [
                (filter_lo[j], filter_hi[j], tests[j])
                for j in range(filter_bounds[i], filter_bounds[i + 1])
                if filter_hi[j] > filter_lo[j]
            ]
            rows = _NO_ROWS
            if flow_bounds[i + 1] > flow_bounds[i]:
                wanted = key_codes[flow_bounds[i] : flow_bounds[i + 1]]
                wanted = wanted[wanted >= 0]
                if wanted.size:
                    lo, hi = key_lo[i], key_hi[i]
                    if at_end[i]:
                        lo, hi = min(lo, hi), len(time)
                    rows = uniflows.rows_of(wanted)
                    rows = rows[(rows >= lo) & (rows < hi)]
            bounds = [(lo, hi) for lo, hi, _ in windows]
            if rows.size:
                bounds.append((int(rows.min()), int(rows.max()) + 1))
            if not bounds:
                codes.append(_NO_ROWS)
                continue
            start = min(lo for lo, _ in bounds)
            stop = max(hi for _, hi in bounds)
            mask = self._scratch.zeros(stop - start, dtype=bool)
            for lo, hi, window_tests in windows:
                window = mask[lo - start : hi - start]
                if not window_tests:
                    window[:] = True
                    continue
                (column, value), *more = window_tests
                hits = column[lo:hi] == value
                for column, value in more:
                    hits &= column[lo:hi] == value
                window |= hits
            mask[rows - start] = True
            codes.append(
                np.flatnonzero(mask) + start
                if traffic_codes is None
                else np.unique(traffic_codes[start:stop][mask])
            )
        return codes, TrafficSets(codes, self.traffic_of)

    def _filter_tests(self, table: AlarmTable) -> list[list[tuple]]:
        """The ``(column, value)`` tests of each filter row.

        ``-1`` in a filter column is the wildcard ``None``.
        """
        packets = self.trace.table
        return [
            [
                (packets.column(name), value)
                for name, value in zip(_FILTER_FIELDS, row)
                if value >= 0
            ]
            for row in zip(
                *(table.column(f"f_{name}").tolist() for name in _FILTER_FIELDS)
            )
        ]

    def packets_of(self, traffic: FrozenSet) -> list[int]:
        if self.granularity is Granularity.PACKET:
            return sorted(int(i) for i in traffic)
        flows = self.trace.flow_table(self.granularity)
        return np.sort(flows.rows_of(flows.codes_of([traffic])[0])).tolist()


class Extraction(NamedTuple):
    """One batch extraction: per-alarm graph input and traffic sets."""

    #: What the engine's ``"similarity_graph"`` kernel ingests, one
    #: element per alarm (code arrays on the columnar engine, the
    #: traffic sets themselves on the reference engine).
    graph_input: list
    #: The public per-alarm traffic sets (packet indices or flow keys):
    #: a :class:`TrafficSets` over the code arrays on the columnar
    #: engine, a list on the reference engine.
    traffic_sets: Sequence[FrozenSet]


class TrafficExtractor:
    """Extracts, per alarm, the associated traffic set.

    The extractor precomputes per-packet flow keys (or, on a
    vectorized engine, reads the trace's cached flow tables) so that
    each alarm extraction costs only its own time window.

    Parameters
    ----------
    trace:
        The trace alarms refer to.
    granularity:
        Traffic granularity of the extracted sets.
    engine:
        Engine spec (see :func:`repro.engine.resolve_engine`); the
        engine's ``"traffic_extractor"`` kernel picks the strategy.
        All strategies produce identical traffic sets.
    """

    def __init__(
        self,
        trace: Trace,
        granularity: Granularity = Granularity.UNIFLOW,
        engine: EngineSpec = "auto",
    ) -> None:
        self.trace = trace
        self.granularity = granularity
        self.engine = resolve_engine(engine, what="extractor")
        self._impl = self.engine.kernel("traffic_extractor")(
            trace, granularity, self.engine
        )

    # -- public API ----------------------------------------------------

    def extract_all(
        self, alarms: Union[AlarmTable, Sequence[Alarm]]
    ) -> Extraction:
        """Extract every alarm's traffic (index-aligned with the rows).

        ``alarms`` is an :class:`~repro.core.alarm_table.AlarmTable`; a
        plain alarm list is encoded into one first.
        """
        table = as_alarm_table(alarms, engine=self.engine)
        return Extraction(*self._impl.extract_table(table))

    def extract(self, alarm: Alarm) -> FrozenSet:
        """Traffic set of one alarm at this extractor's granularity."""
        return self.extract_all([alarm]).traffic_sets[0]

    def packets_of(self, traffic: FrozenSet) -> list[int]:
        """Expand a traffic set back to sorted packet indices.

        For packet granularity this is the identity; for flow
        granularities it returns every packet of every listed flow.
        The reference heuristics use it to gather their packets.
        """
        return self._impl.packets_of(traffic)
