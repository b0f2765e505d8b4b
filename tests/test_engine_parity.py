"""Table-driven kernel parity: every paired kernel, one hypothesis suite.

The engine layer registers paired implementations per operation
(:data:`repro.engine.KERNEL_OPS`); this suite replaces the former
per-layer parity tests with one table: each :class:`KernelCase` names
an operation, a hypothesis strategy for its inputs, and a runner that
executes the operation on a given engine.  The test then walks
:func:`repro.engine.engine_pairs` and asserts the vectorized and
reference engines agree element-for-element — including ordering
(Louvain breaks modularity ties in adjacency insertion order, Counter
tie-breaks by first appearance), not merely set equality.

Adding a kernel = adding one row to ``KERNEL_CASES``.
"""

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import extractor as extraction
from repro.core.alarm_table import AlarmTable
from repro.core.community import Community
from repro.core.extractor import TrafficExtractor
from repro.core.graph import build_similarity_graph
from repro.detectors.base import Alarm
from repro.detectors.sketch import SketchHasher, dominant_keys
from repro.engine import KERNEL_OPS, engine_pairs
from repro.net.filters import FeatureFilter
from repro.net.flow import FlowKey, Granularity, uniflow_key
from repro.net.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP, Packet
from repro.net.table import COLUMNS, PacketTable, flow_codes
from repro.net.trace import Trace, merge_traces
from repro.rules import columnar
from repro.rules.apriori import (
    FrequentItemset,
    apriori,
    coverage,
    min_support_count,
)
from repro.rules.itemsets import FIELDS, ranked_maximal, transactions_from_block

# -- strategies -------------------------------------------------------
#
# Small value alphabets so filters, flows and histograms actually
# collide; ICMP packets keep ports/flags zero like real traffic.

_small_addr = st.integers(0, 5)
_small_port = st.integers(0, 3)
_times = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


def _packet(time, src, dst, sport, dport, proto, size, flags):
    if proto == PROTO_ICMP:
        sport = dport = 0
    return Packet(
        time=time,
        src=src,
        dst=dst,
        sport=sport,
        dport=dport,
        proto=proto,
        size=size,
        tcp_flags=flags if proto == PROTO_TCP else 0,
        icmp_type=8 if proto == PROTO_ICMP else 0,
    )


packets = st.builds(
    _packet,
    time=_times,
    src=_small_addr,
    dst=_small_addr,
    sport=_small_port,
    dport=_small_port,
    proto=st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP]),
    size=st.integers(40, 1500),
    flags=st.integers(0, 63),
)

packet_lists = st.lists(packets, min_size=1, max_size=40)
traces = packet_lists.map(Trace)

filters = st.builds(
    FeatureFilter,
    src=st.none() | _small_addr,
    dst=st.none() | _small_addr,
    sport=st.none() | _small_port,
    dport=st.none() | _small_port,
    proto=st.none() | st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP]),
    t0=st.none() | st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    t1=st.none() | st.floats(min_value=5.0, max_value=10.0, allow_nan=False),
)


#: Filters that test no header field: their whole window matches.
wildcard_filters = st.builds(
    FeatureFilter,
    t0=st.none() | st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    t1=st.none() | st.floats(min_value=5.0, max_value=10.0, allow_nan=False),
)


@st.composite
def traces_and_alarms(draw, max_alarms=4):
    trace = draw(traces)
    alarms = []
    for _ in range(draw(st.integers(1, max_alarms))):
        t0 = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
        t1 = draw(st.floats(min_value=5.0, max_value=11.0, allow_nan=False))
        alarm_filters = tuple(
            draw(st.lists(filters | wildcard_filters, max_size=2))
        )
        if draw(st.booleans()):
            # A window ending at the trace's last timestamp: flow keys
            # include the packets there, filters do not.
            t0, t1 = min(t0, trace.end_time), trace.end_time
            alarm_filters = tuple(
                dataclasses.replace(f, t0=None, t1=None) for f in alarm_filters
            )
        flow_keys = set()
        if draw(st.booleans()):
            index = draw(st.integers(0, len(trace) - 1))
            flow_keys.add(uniflow_key(trace[index]))
        if draw(st.booleans()):
            # A key absent from the trace must be silently ignored.
            flow_keys.add(uniflow_key(trace[0])._replace(src=999))
        if not alarm_filters and not flow_keys:
            alarm_filters = (FeatureFilter(src=draw(_small_addr)),)
        alarms.append(
            Alarm(
                detector="t",
                config="t/x",
                t0=t0,
                t1=t1,
                filters=alarm_filters,
                flow_keys=frozenset(flow_keys),
            )
        )
    return trace, alarms


@st.composite
def binning_inputs(draw):
    trace = draw(traces)
    n_bins = draw(st.integers(2, 8))
    t_start = trace.start_time
    span = max(trace.end_time - t_start, 1e-9)
    bin_idx = np.minimum(
        ((trace.table.time - t_start) / span * n_bins).astype(np.int64),
        n_bins - 1,
    )
    feature = draw(st.sampled_from(["src", "dst", "sport", "dport"]))
    return trace, feature, bin_idx, n_bins


@st.composite
def dominant_inputs(draw):
    """A trace, one of its fields and a row range: empty ranges, the
    whole trace, and sketches with no row in the range included."""
    trace = draw(traces)
    start = draw(st.integers(0, len(trace)))
    stop = draw(
        st.sampled_from([start, len(trace)]) | st.integers(start, len(trace))
    )
    n_sketches = draw(st.integers(1, 4))
    return (
        trace,
        draw(st.sampled_from(["src", "dst", "sport", "dport"])),
        range(start, stop),
        SketchHasher(n_sketches, seed=draw(st.integers(0, 3))),
        draw(st.integers(0, n_sketches - 1)),
        draw(st.integers(1, 4)),
    )


def _plane_specs(field, n_bins, n_sketches, seed):
    """One spec of every plane kind the parity suite compares."""
    return [
        ("column", field, "uint64"),
        ("column", "time", None),
        ("time_bins", n_bins),
        ("bin_members", n_bins),
        ("value_codes", field),
        ("binned_histogram", field, n_bins),
        ("kl_divergence", field, n_bins, 1e-4),
        ("entropy_series", field, n_bins),
        ("sketch_buckets", field, n_sketches, seed),
        ("key_ranks", field, seed, seed + n_bins),
        ("hough_x", n_bins),
        ("hough_rows", field, n_bins, n_sketches, seed),
        ("hough_pixels", field, n_bins, n_sketches, 2, seed),
        ("pca_residual", field, n_sketches, seed, n_bins, 2),
        ("gamma_deviations", field, n_sketches, seed, 0.5, 2),
    ]


#: Every plane kind of :func:`_plane_specs`.
PLANE_KINDS = sorted({spec[0] for spec in _plane_specs("src", 2, 1, 0)})


@st.composite
def feature_plane_inputs(draw, kind=None):
    """A trace plus one feature-plane spec (of ``kind`` when given).

    Every kind here is either engine-split with exact integer outputs
    or computed by shared vectorized helpers from such planes on both
    engines, so the two kernels agree exactly, floats included.
    """
    trace = draw(traces)
    specs = _plane_specs(
        field=draw(st.sampled_from(["src", "dst", "sport", "dport"])),
        n_bins=draw(st.integers(2, 6)),
        n_sketches=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 5)),
    )
    return trace, draw(
        st.sampled_from([s for s in specs if kind in (None, s[0])])
    )


traffic_sets = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=25), max_size=12),
    max_size=24,
)


@st.composite
def graph_inputs(draw):
    return (
        draw(traffic_sets),
        draw(st.sampled_from(["simpson", "jaccard", "constant"])),
        draw(st.sampled_from([0.0, 0.1, 0.5])),
    )


@st.composite
def community_inputs(draw):
    """A run's alarms and communities over them, at any granularity.

    A community is a list of alarm ids.  Communities overlap when they
    share an alarm or a flow, are empty when they hold no alarm or only
    alarms that designate nothing, and hold one row when their alarms
    designate one packet or flow (one-packet traces included).
    ``past_the_table`` gives them, at flow granularity and on both
    engines, codes of the trace's flow table extended with one flow
    that has no packet in the trace, the streaming engine's way; every
    community holds that flow's code, past the table's own flows.
    """
    trace, alarms = draw(traces_and_alarms())
    ids = st.integers(0, len(alarms) - 1)
    groups = draw(
        st.lists(
            st.lists(ids, min_size=1, max_size=3, unique=True),
            min_size=1,
            max_size=4,
        )
    )
    if draw(st.booleans()):
        # Communities sharing an alarm share its traffic.
        groups.append(sorted(set(groups[0]) | set(groups[-1])))
    if draw(st.booleans()):
        groups.insert(draw(st.integers(0, len(groups))), [])
    granularity = draw(st.sampled_from(list(Granularity)))
    return trace, alarms, granularity, groups, draw(st.booleans())


#: Small name alphabet so codes actually repeat.
alarm_code_inputs = st.lists(
    st.sampled_from(["pca/a", "pca/b", "kl/a", "hough/x", "gamma/z"]),
    max_size=30,
)


@st.composite
def label_assign_inputs(draw):
    n = draw(st.integers(0, 12))
    accepted = []
    distance = []
    mu = []
    for _ in range(n):
        is_accepted = draw(st.booleans())
        has_distance = draw(st.booleans())
        accepted.append(is_accepted)
        distance.append(
            draw(st.floats(0.0, 3.0, allow_nan=False))
            if has_distance
            else np.nan
        )
        # Rejected decisions without a distance metric must keep mu at
        # or below the 0.5 threshold — above it both kernels raise.
        high = 1.0 if (is_accepted or has_distance) else 0.5
        mu.append(draw(st.floats(0.0, high, allow_nan=False)))
    return (
        np.array(accepted, dtype=bool),
        np.array(distance, dtype=np.float64),
        np.array(mu, dtype=np.float64),
        draw(st.sampled_from([0.25, 0.5, 1.0])),
    )


@st.composite
def warehouse_select_inputs(draw):
    """Mapped-column shapes plus a random predicate set.

    Ragged rules are modeled as parallel flat arrays with a
    rule->record map, exactly the layout
    :meth:`repro.labeling.warehouse.Warehouse.query` hands the kernel;
    -1 encodes a wildcard rule field, so -1 is excluded from the value
    alphabet drawn for predicates.
    """
    n = draw(st.integers(0, 12))
    t0s, t1s = [], []
    for _ in range(n):
        lo = draw(st.floats(0.0, 8.0, allow_nan=False))
        t0s.append(lo)
        t1s.append(lo + draw(st.floats(0.0, 4.0, allow_nan=False)))
    n_rules = draw(st.integers(0, 3 * n)) if n else 0
    rule_field = st.sampled_from([-1, 0, 1, 2, 3])
    columns = {
        "taxonomy_code": np.array(
            draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
            dtype=np.int64,
        ),
        "t0": np.array(t0s, dtype=np.float64),
        "t1": np.array(t1s, dtype=np.float64),
        "rule_record": np.array(
            sorted(
                draw(
                    st.lists(
                        st.integers(0, n - 1),
                        min_size=n_rules,
                        max_size=n_rules,
                    )
                )
            )
            if n_rules
            else [],
            dtype=np.int64,
        ),
        **{
            f"rule_{field}": np.array(
                draw(
                    st.lists(
                        rule_field, min_size=n_rules, max_size=n_rules
                    )
                ),
                dtype=np.int64,
            )
            for field in ("src", "dst", "sport", "dport")
        },
    }
    maybe_value = st.none() | st.integers(0, 3)
    predicates = dict(
        taxonomy_code=draw(st.none() | st.integers(0, 2)),
        src=draw(maybe_value),
        dst=draw(maybe_value),
        sport=draw(maybe_value),
        dport=draw(maybe_value),
        t0=draw(st.none() | st.floats(0.0, 12.0, allow_nan=False)),
        t1=draw(st.none() | st.floats(0.0, 12.0, allow_nan=False)),
    )
    return columns, predicates


@st.composite
def itemset_inputs(draw):
    """A rule-mining block, a support percentage and a rule limit.

    0 to a few hundred rows drawn from a small alphabet (so itemsets
    are frequent), optionally repeating a few rows, copying sport into
    dport (equal values in different fields), using the extreme
    address and port values, or giving one field a distinct value per
    row (no frequent value above one row's support).  Or 21-40
    distinct rows twice each at a support of at most two rows: more
    maximal itemsets than any rule limit keeps.
    """
    limit = draw(st.sampled_from([None, 0, 1, 6, 20]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 7)) == 0:
        k = draw(st.integers(21, 40))
        rows = rng.integers(0, 2**16, size=(k, 4))
        rows[:, 0] = rng.permutation(k)
        block = np.repeat(rows, 2, axis=0)
        pct = draw(st.floats(min_value=0.01, max_value=100.0 / k))
        return block, pct, limit
    n = draw(
        st.sampled_from([0, 1, 2, 5, 6, 31, 32, 63, 64, 65])
        | st.integers(0, 300)
    )
    block = rng.integers(0, draw(st.integers(1, 6)), size=(n, 4))
    if n and draw(st.booleans()):
        block = block[rng.integers(0, min(n, 3), size=n)]
    if draw(st.booleans()):
        block[:, 3] = block[:, 1]
    if draw(st.booleans()):
        block[:, 0] = np.where(block[:, 0] % 2, 0xFFFFFFFF, block[:, 0])
        block[:, 1] = np.where(block[:, 1] % 2, 0xFFFF, block[:, 1])
    if draw(st.booleans()):
        block[:, draw(st.integers(0, 3))] = rng.permutation(n)
    pct = draw(
        st.sampled_from([10.0, 15.0, 20.0, 25.0, 100.0])
        | st.floats(min_value=0.01, max_value=100.0)
    )
    return block, pct, limit


# -- the parity table --------------------------------------------------


def _ordered_adjacency(graph):
    return {
        node: list(neighbours.items())
        for node, neighbours in graph.adjacency.items()
    }


def _run_flow_codes(engine, payload):
    trace, granularity = payload
    codes, keys = engine.kernel("flow_codes")(trace.table, granularity)
    return codes.tolist(), keys


def _run_binned_histogram(engine, payload):
    trace, feature, bin_idx, n_bins = payload
    histogram = engine.kernel("binned_histogram")(
        trace.table, feature, bin_idx, n_bins
    )
    return (
        histogram.feature,
        histogram.values.tolist(),
        histogram.codes.tolist(),
        histogram.counts.tolist(),
    )


def _run_dominant_keys(engine, payload):
    trace, field, rows, hasher, sketch, top = payload
    return dominant_keys(
        trace, field, rows, hasher, sketch, top=top, engine=engine
    )


def _run_similarity_graph(engine, payload):
    sets, measure, threshold = payload
    graph = build_similarity_graph(
        sets, measure=measure, edge_threshold=threshold, engine=engine
    )
    # Ordered equality, not just dict equality: Louvain breaks
    # modularity ties in adjacency iteration order, so engines must
    # agree on edge insertion order for identical community numbering.
    return _ordered_adjacency(graph)


def _run_extractor(engine, payload):
    trace, alarms, granularity = payload
    extractor = TrafficExtractor(trace, granularity, engine=engine)
    codes, sets = extractor.extract_all(alarms)
    return (
        [(str(c.dtype), c.tolist()) for c in codes],
        list(sets),
        [extractor.extract(alarm) for alarm in alarms],
        [extractor.packets_of(traffic) for traffic in sets],
    )


def _run_community_label(engine, payload):
    trace, alarms, granularity, groups, past_the_table = payload
    carried = np.empty(0, dtype=np.int64)
    if past_the_table and granularity is not Granularity.PACKET:
        flows = trace.flow_table(granularity)
        extended = flows.extended([uniflow_key(trace[0])._replace(src=999)])
        trace = trace.with_flow_table(extended)
        carried = np.array([len(flows)], dtype=np.int64)
    extractor = TrafficExtractor(trace, granularity, engine=engine)
    sets = extractor.extract_all(alarms).traffic_sets
    table = AlarmTable.from_alarms(alarms)
    communities = [
        Community(
            community_id,
            ids,
            table,
            codes=np.unique(
                np.concatenate([sets.codes[i] for i in ids] + [carried])
            ),
            decode=sets.decode,
        )
        for community_id, ids in enumerate(groups)
    ]
    return engine.kernel("community_label")(extractor, communities)


def _run_column_values(engine, payload):
    trace, field, dtype = payload
    return engine.kernel("column_values")(trace, field, dtype).tolist()


def _run_alarm_codes(engine, payload):
    codes, pool = engine.kernel("alarm_codes")(payload)
    return codes.tolist(), tuple(pool)


def _normalize_plane(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_normalize_plane(v) for v in value]
    if hasattr(value, "counts"):  # BinnedHistogram
        return (
            value.feature,
            value.values.tolist(),
            value.codes.tolist(),
            value.counts.tolist(),
        )
    return value


def _run_feature_plane(engine, payload):
    from repro.detectors.planes import PlaneCache

    trace, spec = payload
    plane = engine.kernel("feature_plane")(trace, spec, PlaneCache(engine))
    return _normalize_plane(plane)


def _run_warehouse_select(engine, payload):
    columns, predicates = payload
    return engine.kernel("warehouse_select")(columns, **predicates).tolist()


def _run_maximal_itemsets(engine, payload):
    block, pct, limit = payload
    return engine.kernel("maximal_itemsets")(block, pct, limit)


def _run_label_assign(engine, payload):
    accepted, distance, mu, suspicious_distance = payload
    return engine.kernel("label_assign")(
        accepted, distance, mu, suspicious_distance
    ).tolist()


@dataclass(frozen=True)
class KernelCase:
    """One row of the parity table."""

    op: str
    inputs: object  # hypothesis strategy
    run: Callable  # (engine, drawn payload) -> comparable result


KERNEL_CASES = [
    KernelCase(
        "flow_codes",
        st.tuples(
            traces,
            st.sampled_from([Granularity.UNIFLOW, Granularity.BIFLOW]),
        ),
        _run_flow_codes,
    ),
    KernelCase("binned_histogram", binning_inputs(), _run_binned_histogram),
    KernelCase("dominant_keys", dominant_inputs(), _run_dominant_keys),
    KernelCase("similarity_graph", graph_inputs(), _run_similarity_graph),
    KernelCase(
        "traffic_extractor",
        st.tuples(
            traces_and_alarms(), st.sampled_from(list(Granularity))
        ).map(lambda ta: (ta[0][0], ta[0][1], ta[1])),
        _run_extractor,
    ),
    KernelCase("community_label", community_inputs(), _run_community_label),
    KernelCase(
        "column_values",
        st.tuples(
            traces,
            st.sampled_from(["time", "src", "dst", "sport", "dport"]),
            st.sampled_from([None, np.uint64]),
        ).map(
            lambda p: (p[0], p[1], None if p[1] == "time" else np.uint64)
        ),
        _run_column_values,
    ),
    KernelCase("alarm_codes", alarm_code_inputs, _run_alarm_codes),
    KernelCase("label_assign", label_assign_inputs(), _run_label_assign),
    KernelCase("feature_plane", feature_plane_inputs(), _run_feature_plane),
    KernelCase(
        "warehouse_select",
        warehouse_select_inputs(),
        _run_warehouse_select,
    ),
    KernelCase("maximal_itemsets", itemset_inputs(), _run_maximal_itemsets),
]


def test_table_covers_every_registered_kernel_family():
    """A kernel family without a parity row is untested — fail loudly."""
    assert sorted(c.op for c in KERNEL_CASES) == sorted(KERNEL_OPS)


@pytest.mark.parametrize("case", KERNEL_CASES, ids=lambda c: c.op)
@given(data=st.data())
@settings(
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
def test_kernel_parity(case, data):
    payload = data.draw(case.inputs)
    pairs = list(engine_pairs(case.op))
    assert pairs, f"no engine pair registered for {case.op!r}"
    for vectorized, reference in pairs:
        assert case.run(vectorized, payload) == case.run(reference, payload)


@pytest.mark.parametrize("kind", PLANE_KINDS)
@given(data=st.data())
@settings(
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
def test_feature_plane_parity_per_kind(kind, data):
    """Every plane kind on its own examples: the ``feature_plane`` row
    above draws one kind per example, so each kind would meet only a
    few traces a run."""
    payload = data.draw(feature_plane_inputs(kind))
    for vectorized, reference in engine_pairs("feature_plane"):
        assert _run_feature_plane(vectorized, payload) == _run_feature_plane(
            reference, payload
        )


@pytest.mark.parametrize("budget", [1, 7, extraction.SLICE_ROWS])
@given(data=st.data())
@settings(
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
def test_traffic_extractor_parity_in_slices(budget, data):
    """The ``traffic_extractor`` row on its own examples: tables of up
    to 30 alarms (wildcard-only and two-filter alarms, present and
    absent flow keys, windows ending at the trace's end), taken one
    alarm a slice, in slices of at most 7 candidate rows, and in the
    default slices."""
    trace, alarms = data.draw(traces_and_alarms(max_alarms=30))
    payload = (trace, alarms, data.draw(st.sampled_from(list(Granularity))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extraction, "SLICE_ROWS", budget)
        for vectorized, reference in engine_pairs("traffic_extractor"):
            assert _run_extractor(vectorized, payload) == _run_extractor(
                reference, payload
            )


@given(traces, filters, st.none() | _times, st.none() | _times)
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_filter_mask_matches_per_packet_loop(trace, feature_filter, t0, t1):
    """``FeatureFilter.mask`` equals a per-packet ``matches`` loop, with
    ``t0``/``t1`` filling the filter's wildcard time bounds the way the
    alarm window does."""
    reference = dataclasses.replace(
        feature_filter,
        t0=t0 if feature_filter.t0 is None else feature_filter.t0,
        t1=t1 if feature_filter.t1 is None else feature_filter.t1,
    )
    table = trace.table
    expected = [reference.matches(table.packet(i)) for i in range(len(table))]
    assert feature_filter.mask(table, t0=t0, t1=t1).tolist() == expected


# -- cross-kernel composition ------------------------------------------


@given(traces_and_alarms())
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_extract_all_codes_feed_same_graph(trace_and_alarms):
    """Code arrays from the columnar extractor build the *same ordered*
    graph as frozensets through the reference kernel — the fused
    fast path of the estimator."""
    trace, alarms = trace_and_alarms
    extractor = TrafficExtractor(trace, Granularity.UNIFLOW, engine="numpy")
    codes, sets = extractor.extract_all(alarms)
    from_codes = build_similarity_graph(codes, engine="numpy")
    from_sets = build_similarity_graph(sets, engine="python")
    assert _ordered_adjacency(from_codes) == _ordered_adjacency(from_sets)


@given(packet_lists)
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_trace_flows_match_reference_aggregation(packet_list):
    from repro.net.flow import aggregate_flows

    trace = Trace(packet_list)
    for granularity in (Granularity.UNIFLOW, Granularity.BIFLOW):
        assert trace.flows(granularity) == aggregate_flows(
            trace.packets, granularity
        )


@given(itemset_inputs())
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_columnar_miner_matches_apriori_at_every_size(payload):
    """The columnar miner at every block size: the ranked maximal
    itemsets Apriori finds (same itemsets, counts, supports and order),
    and the rows they cover by the reference coverage and by the rule
    masks."""
    block, pct, limit = payload
    transactions = transactions_from_block(block)
    if len(block):
        # Steps 1-2: the rows grouped on their frequent values, an
        # infrequent one read as a wildcard.
        min_count = min_support_count(len(block), pct, len(FIELDS))
        counts = [Counter(column) for column in block.T.tolist()]
        rows = Counter(
            (*(v if counts[j][v] >= min_count else None for j, v in enumerate(row)), None)
            for row in block.tolist()
        )
        assert columnar._distinct_rows(block, min_count) == rows
    itemsets, covered = columnar.maximal_itemsets(block, pct, limit)
    assert itemsets == ranked_maximal(apriori(transactions, pct), limit)
    assert type(covered) is int
    assert (covered / len(block) if len(block) else 0.0) == coverage(
        transactions, itemsets
    )
    mask = np.zeros(len(block), dtype=bool)
    for itemset in itemsets:
        mask |= columnar.itemset_mask(block, itemset.items)
    assert int(mask.sum()) == covered


def test_columnar_miner_groups_rows_whose_packed_keys_overflow():
    """56,000 distinct values in every field: the product of the field
    radices passes 2**63, so the rows are grouped by a sort on their
    code columns.  At one row's support every distinct row is a rule,
    repeated rows first."""
    n = 56_000
    rng = np.random.default_rng(7)
    block = np.stack([rng.permutation(n) for _ in FIELDS], axis=1)
    block[:, 2] |= 0xFFFF0000
    block = np.concatenate([block, block[[40_000, 17, 40_000, 123]]])
    assert math.prod([n + 1] * 4) >= 1 << 63
    rows = Counter(map(tuple, block.tolist()))
    ranked = sorted(rows.items(), key=lambda row: (-row[1], row[0]))
    itemsets, covered = columnar.maximal_itemsets(block, 0.001, 20)
    assert itemsets == [
        FrequentItemset(
            frozenset(zip(FIELDS, row)), count, count / len(block)
        )
        for row, count in ranked[:20]
    ]
    assert [s.count for s in itemsets[:3]] == [3, 2, 2]
    assert covered == 3 + 2 + 2 + 17
    itemsets, covered = columnar.maximal_itemsets(block, 0.001)
    assert len(itemsets) == n and covered == len(block)


def test_flow_codes_of_empty_and_one_row_tables():
    for granularity in (Granularity.UNIFLOW, Granularity.BIFLOW):
        codes, keys = flow_codes(PacketTable.empty(), granularity)
        assert codes.dtype == np.int64 and codes.tolist() == []
        assert keys == []
    row = Trace([_packet(1.0, 9, 4, 80, 1234, PROTO_TCP, 60, 2)]).table
    codes, keys = flow_codes(row, Granularity.UNIFLOW)
    assert codes.tolist() == [0]
    assert keys == [FlowKey(src=9, sport=80, dst=4, dport=1234, proto=6)]
    assert all(type(value) is int for value in keys[0])
    codes, keys = flow_codes(row, Granularity.BIFLOW)
    assert codes.tolist() == [0]
    assert keys == [FlowKey(src=4, sport=1234, dst=9, dport=80, proto=6)]


def test_engine_pairs_exist_for_all_ops():
    for op in KERNEL_OPS:
        assert list(engine_pairs(op)), op


# -- trace algebra (streaming relies on it) ----------------------------


@given(
    packet_lists,
    packet_lists,
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_slicing_a_merge_equals_merging_slices(list_a, list_b, t_lo, t_hi):
    """``time_slice(merge(A, B)) == merge(time_slice(A), time_slice(B))``.

    The streaming engine relies on this algebra: chunks are merged
    into windows and windows are sliced at hop boundaries, in either
    order.  Compared column-for-column on the packet table.
    """
    t0, t1 = min(t_lo, t_hi), max(t_lo, t_hi)
    trace_a, trace_b = Trace(list_a), Trace(list_b)

    merged = merge_traces([trace_a, trace_b])
    window = merged.time_slice(t0, t1)
    sliced_merge = merged.table.take(
        np.arange(window.start, window.stop)
    )

    def slice_one(trace):
        part = trace.time_slice(t0, t1)
        return Trace.from_table(
            trace.table.take(np.arange(part.start, part.stop))
        )

    if len(slice_one(trace_a)) + len(slice_one(trace_b)) == 0:
        assert len(sliced_merge) == 0
        return
    merged_slices = merge_traces(
        [slice_one(trace_a), slice_one(trace_b)]
    ).table
    assert len(sliced_merge) == len(merged_slices)
    for column in COLUMNS:
        assert np.array_equal(
            getattr(sliced_merge, column), getattr(merged_slices, column)
        ), column
