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
:class:`~repro.core.alarm_table.AlarmTable` and returns the engine's
similarity-graph input together with the public traffic sets — the
strategies are the only place the engines differ:

* :class:`ColumnarTrafficExtraction` — alarm filters become boolean
  masks over the trace's :class:`~repro.net.table.PacketTable` (via
  the ``"filter_mask"`` kernel), flows are dense integer codes
  (``"flow_codes"``), and the per-alarm code arrays feed the
  vectorized similarity-graph kernel directly.  The per-alarm mask
  accumulator comes from the engine's scratch allocator instead of a
  fresh allocation per alarm.
* :class:`ReferenceTrafficExtraction` — the original per-packet
  predicate loop, kept as the readable reference; its traffic sets are
  also its graph input.  The engine parity suite asserts both
  strategies extract identical traffic sets.
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple, Sequence, Union

import numpy as np

from repro.core.alarm_table import AlarmTable, as_alarm_table
from repro.detectors.base import Alarm
from repro.engine import Engine, EngineSpec, resolve_engine
from repro.errors import TraceError
from repro.net.flow import FlowKey, Granularity, biflow_key, uniflow_key
from repro.net.trace import Trace


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

    def packet_index_array(self, traffic: FrozenSet) -> np.ndarray:
        return np.array(self.packets_of(traffic), dtype=np.int64)


class ColumnarTrafficExtraction:
    """Vectorized extraction strategy over the trace's packet table."""

    def __init__(
        self, trace: Trace, granularity: Granularity, engine: Engine
    ) -> None:
        self.trace = trace
        self.granularity = granularity
        self.engine = engine
        self._filter_mask = engine.kernel("filter_mask")
        self._scratch = engine.scratch()
        self._codes, self._keys = trace.flow_code_table(Granularity.UNIFLOW)
        self._key_to_code = dict(zip(self._keys, range(len(self._keys))))
        if granularity is Granularity.BIFLOW:
            self._bicodes, self._bikeys = trace.flow_code_table(
                Granularity.BIFLOW
            )
            self._bikey_to_code = dict(
                zip(self._bikeys, range(len(self._bikeys)))
            )
        else:
            self._bicodes = np.empty(0, dtype=np.int64)
            self._bikeys = []
            self._bikey_to_code = {}

    def _mask_for(
        self, filters, flow_keys, alarm_t0: float, alarm_t1: float
    ) -> np.ndarray:
        """Boolean packet mask designated by one alarm row's fields.

        The accumulator is a scratch buffer — valid only until the next
        call, which :meth:`extract_table` respects by consuming each
        mask into codes before building the next.
        """
        table = self.trace.table
        mask = self._scratch.zeros(len(table), dtype=bool)
        for feature_filter in filters:
            t0 = feature_filter.t0 if feature_filter.t0 is not None else alarm_t0
            t1 = feature_filter.t1 if feature_filter.t1 is not None else alarm_t1
            if t1 < t0:
                # Mirror Trace.time_slice on the reference path.
                raise TraceError(f"empty interval [{t0}, {t1})")
            mask |= self._filter_mask(table, feature_filter, t0=t0, t1=t1)
        if flow_keys:
            wanted = [
                self._key_to_code[key]
                for key in flow_keys
                if key in self._key_to_code
            ]
            if wanted:
                in_flows = np.isin(self._codes, np.array(wanted, dtype=np.int64))
                time = table.time
                in_window = (time >= alarm_t0) & (time < alarm_t1)
                if alarm_t1 == self.trace.end_time:
                    in_window |= time == alarm_t1
                mask |= in_flows & in_window
        return mask

    def _codes_for_mask(self, mask: np.ndarray) -> np.ndarray:
        """Sorted unique traffic codes (or packet indices) of a mask."""
        if self.granularity is Granularity.PACKET:
            return np.nonzero(mask)[0]
        if self.granularity is Granularity.UNIFLOW:
            return np.unique(self._codes[mask])
        return np.unique(self._bicodes[mask])

    def _codes_to_traffic(self, codes: np.ndarray) -> FrozenSet:
        """Materialize a code array as the public traffic set."""
        if self.granularity is Granularity.PACKET:
            return frozenset(int(i) for i in codes)
        keys = (
            self._keys
            if self.granularity is Granularity.UNIFLOW
            else self._bikeys
        )
        return frozenset(keys[int(c)] for c in codes)

    def extract_table(
        self, table: AlarmTable
    ) -> tuple[list[np.ndarray], list[FrozenSet]]:
        """Per-row code arrays (the graph input) and their traffic sets.

        Designations are read from the table's pooled filter and
        flow-key views — the detectors' own objects when the table
        was encoded from them — and no :class:`Alarm` view is built.
        Element ``i`` of the codes holds the sorted unique traffic
        codes (flow ids, or packet indices at packet granularity) of
        row ``i``: the integer alphabet the ``"similarity_graph"``
        kernel consumes without per-element Python work.
        """
        filter_bounds = table.filter_bounds
        flow_bounds = table.flow_bounds
        t0s, t1s = table.t0, table.t1
        codes = []
        for i in range(len(table)):
            filters = [
                table.filter_at(j)
                for j in range(
                    int(filter_bounds[i]), int(filter_bounds[i + 1])
                )
            ]
            flow_keys = [
                table.flow_key_at(j)
                for j in range(int(flow_bounds[i]), int(flow_bounds[i + 1]))
            ]
            mask = self._mask_for(
                filters, flow_keys, float(t0s[i]), float(t1s[i])
            )
            codes.append(self._codes_for_mask(mask))
        return codes, [self._codes_to_traffic(c) for c in codes]

    def packets_of(self, traffic: FrozenSet) -> list[int]:
        return [int(i) for i in self.packet_index_array(traffic)]

    def packet_index_array(self, traffic: FrozenSet) -> np.ndarray:
        if self.granularity is Granularity.PACKET:
            return np.array(sorted(int(i) for i in traffic), dtype=np.int64)
        if self.granularity is Granularity.UNIFLOW:
            key_to_code: dict = self._key_to_code
            codes = self._codes
        else:
            key_to_code = self._bikey_to_code
            codes = self._bicodes
        wanted = [key_to_code[key] for key in traffic if key in key_to_code]
        if not wanted:
            return np.empty(0, dtype=np.int64)
        mask = np.isin(codes, np.array(wanted, dtype=np.int64))
        return np.nonzero(mask)[0].astype(np.int64)


class Extraction(NamedTuple):
    """One batch extraction: per-alarm graph input and traffic sets."""

    #: What the engine's ``"similarity_graph"`` kernel ingests, one
    #: element per alarm (code arrays on the columnar engine, the
    #: traffic sets themselves on the reference engine).
    graph_input: list
    #: The public per-alarm traffic sets (packet indices or flow keys).
    traffic_sets: list[FrozenSet]


class TrafficExtractor:
    """Extracts, per alarm, the associated traffic set.

    The extractor precomputes per-packet flow keys (or dense flow
    codes, on a vectorized engine) once per trace so that each alarm
    extraction costs only its own time window.

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
        """Expand a traffic set back to packet indices.

        For packet granularity this is the identity; for flow
        granularities it returns every packet of every listed flow.
        Used by the heuristics and the rule miner, which need packets.
        """
        return self._impl.packets_of(traffic)

    def packet_index_array(self, traffic: FrozenSet) -> np.ndarray:
        """:meth:`packets_of` as a sorted int64 array.

        The heuristics use it to label community traffic without
        materializing packet objects.
        """
        return self._impl.packet_index_array(traffic)
