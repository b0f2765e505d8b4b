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

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.extractor import TrafficExtractor
from repro.core.graph import build_similarity_graph
from repro.detectors.base import Alarm
from repro.detectors.sketch import SketchHasher, dominant_keys
from repro.engine import KERNEL_OPS, engine_pairs, get_engine
from repro.net.filters import FeatureFilter
from repro.net.flow import Granularity, uniflow_key
from repro.net.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP, Packet
from repro.net.table import COLUMNS
from repro.net.trace import Trace, merge_traces

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


@st.composite
def traces_and_alarms(draw):
    trace = draw(traces)
    alarms = []
    for _ in range(draw(st.integers(1, 4))):
        t0 = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
        t1 = draw(st.floats(min_value=5.0, max_value=11.0, allow_nan=False))
        alarm_filters = tuple(draw(st.lists(filters, max_size=2)))
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
def sketch_inputs(draw):
    keys = np.array(
        draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50)),
        dtype=np.uint64,
    )
    hasher = SketchHasher(draw(st.integers(1, 8)), seed=draw(st.integers(0, 5)))
    return hasher, keys


@st.composite
def dominant_inputs(draw):
    keys = np.array(
        draw(st.lists(st.integers(0, 6), min_size=1, max_size=60)),
        dtype=np.uint64,
    )
    n_sketches = draw(st.integers(1, 4))
    return (
        keys,
        np.ones(len(keys), dtype=bool),
        SketchHasher(n_sketches, seed=draw(st.integers(0, 3))),
        draw(st.integers(0, n_sketches - 1)),
        draw(st.integers(1, 4)),
    )


@st.composite
def feature_plane_inputs(draw):
    """A trace plus one engine-split-safe feature-plane spec.

    ``kl_divergence`` and ``entropy_series`` are deliberately absent:
    their engines sum in different orders (dense rows vs Counter
    insertion), so their floats agree only to the last ulp — exactly
    like the detector paths they serve.  Every kind here is either
    engine-split with exact integer/bool outputs or computed by shared
    vectorized helpers on both engines.
    """
    trace = draw(traces)
    n_bins = draw(st.integers(2, 6))
    field = draw(st.sampled_from(["src", "dst", "sport", "dport"]))
    n_sketches = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 5))
    spec = draw(
        st.sampled_from(
            [
                ("column", field, "uint64"),
                ("column", "time", None),
                ("time_bins", n_bins),
                ("bin_members", n_bins),
                ("binned_histogram", field, n_bins),
                ("sketch_buckets", field, n_sketches, seed),
                ("hough_x", n_bins),
                ("hough_pixels", field, n_bins, n_sketches, 2, seed),
                ("pca_residual", field, n_sketches, seed, n_bins, 2),
                ("gamma_deviations", field, n_sketches, seed, 0.5, 2),
            ]
        )
    )
    return trace, spec


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
    trace, alarms = draw(traces_and_alarms())
    granularity = draw(st.sampled_from(list(Granularity)))
    return trace, alarms[0], granularity


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


# -- the parity table --------------------------------------------------


def _ordered_adjacency(graph):
    return {
        node: list(neighbours.items())
        for node, neighbours in graph.adjacency.items()
    }


def _run_filter_mask(engine, payload):
    trace, feature_filter = payload
    mask = engine.kernel("filter_mask")(trace.table, feature_filter)
    return mask.tolist()


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


def _run_sketch_buckets(engine, payload):
    hasher, keys = payload
    return engine.kernel("sketch_buckets")(hasher, keys).tolist()


def _run_dominant_keys(engine, payload):
    keys, mask, hasher, sketch, top = payload
    return dominant_keys(keys, mask, hasher, sketch, top=top, engine=engine)


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
    sets = extractor.extract_all(alarms).traffic_sets
    return (
        sets,
        [extractor.extract(alarm) for alarm in alarms],
        [extractor.packets_of(traffic) for traffic in sets],
    )


def _run_community_label(engine, payload):
    trace, alarm, granularity = payload
    extractor = TrafficExtractor(trace, granularity, engine=engine)
    community = SimpleNamespace(traffic=extractor.extract(alarm))
    return engine.kernel("community_label")(extractor, community)


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
    KernelCase("filter_mask", st.tuples(traces, filters), _run_filter_mask),
    KernelCase(
        "flow_codes",
        st.tuples(
            traces,
            st.sampled_from([Granularity.UNIFLOW, Granularity.BIFLOW]),
        ),
        _run_flow_codes,
    ),
    KernelCase("binned_histogram", binning_inputs(), _run_binned_histogram),
    KernelCase("sketch_buckets", sketch_inputs(), _run_sketch_buckets),
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


def test_engine_pairs_exist_for_all_ops():
    for op in KERNEL_OPS:
        assert list(engine_pairs(op)), op


def test_scratch_buffers_are_reused_and_rezeroed():
    scratch = get_engine("numpy").scratch()
    first = scratch.zeros(8, dtype=bool)
    first[:] = True
    second = scratch.zeros(4, dtype=bool)
    assert not second.any()
    assert second.base is first.base or second.base is first


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
