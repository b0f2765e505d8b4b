"""The shared feature-plane cache: sharing, parity, transport.

Three angles on :mod:`repro.detectors.planes`:

* **cache mechanics** — hit/miss/seed/export accounting, and the
  module-level :func:`~repro.detectors.sketch.shared_hasher` memo that
  lets two configurations share one sketch hasher;
* **cached == uncached** (hypothesis) — ``analyze_table`` with one
  cache shared across an ensemble of overlapping configurations is
  identical to fully uncached analysis, on both engines;
* **shared-memory transport** — planes exported through a
  :class:`~repro.runner.shm.PlaneArena` attach element-identical and
  read-only.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.detectors.features import unique_codes
from repro.detectors.gamma import GammaDetector
from repro.detectors.hough import HoughDetector, _pixel_rows, time_pixels
from repro.detectors.kl import KLDetector
from repro.detectors.pca import PCADetector
from repro.detectors.planes import (
    PlaneCache,
    merge_plane_specs,
    plane_cache_for,
    plane_nbytes,
)
from repro.detectors.sketch import shared_hasher
from repro.engine import get_engine
from repro.net.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP, Packet
from repro.net.trace import Trace
from repro.runner.shm import PlaneArena, segment_registry

# -- strategies (the parity suite's small alphabets) -------------------


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
    time=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    src=st.integers(0, 5),
    dst=st.integers(0, 5),
    sport=st.integers(0, 3),
    dport=st.integers(0, 3),
    proto=st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP]),
    size=st.integers(40, 1500),
    flags=st.integers(0, 63),
)

packet_lists = st.lists(packets, min_size=1, max_size=40)
traces = packet_lists.map(Trace)


def _overlapping_ensemble(engine):
    """Configurations that deliberately share plane keys.

    Two tunings per family with identical structural parameters
    (thresholds differ), so every derived plane — residual matrices,
    deviation vectors, lit pixels, divergence series — is requested by
    at least two configurations.
    """
    return [
        PCADetector(tuning="optimal", engine=engine),
        PCADetector(tuning="sensitive", threshold=2.0, engine=engine),
        GammaDetector(tuning="optimal", engine=engine),
        GammaDetector(tuning="sensitive", threshold=2.5, engine=engine),
        HoughDetector(tuning="optimal", engine=engine),
        KLDetector(tuning="optimal", engine=engine),
        KLDetector(tuning="sensitive", threshold=2.0, engine=engine),
    ]


# -- shared hasher (module-level memo) ---------------------------------


def test_shared_hasher_is_memoized():
    assert shared_hasher(16, 11) is shared_hasher(16, 11)
    assert shared_hasher(16, 11) is not shared_hasher(16, 12)
    assert shared_hasher(8, 11) is not shared_hasher(16, 11)


def test_two_configs_share_one_hasher():
    """Sibling configurations resolve the *same* hasher instance."""
    optimal = PCADetector(tuning="optimal")
    sensitive = PCADetector(tuning="sensitive", threshold=2.0)
    n = optimal.params["n_sketches"]
    seed = optimal.params["hash_seed"]
    assert optimal._hasher(n, seed) is sensitive._hasher(n, seed)


# -- cache mechanics ---------------------------------------------------


def test_cache_counts_hits_and_misses():
    trace = Trace([_packet(float(i), i % 3, 1, 1, 2, PROTO_TCP, 100, 16) for i in range(10)])
    cache = PlaneCache("numpy")
    spec = ("time_bins", 4)
    first = cache.get(trace, spec)
    second = cache.get(trace, spec)
    assert first is second
    assert cache.hits == 1 and cache.misses == 1
    assert len(cache) == 1 and cache.nbytes > 0
    assert cache.counters()["planes"] == 1


def test_byte_counter_counts_arrays_without_walking_lists():
    """A plane's bytes are its arrays' ``nbytes``: a list it holds (one
    Python object per flow, say) is counted without being iterated."""
    from repro.net.flow import FlowKey

    class Unwalkable(list):
        def __iter__(self):
            raise AssertionError("the byte counter walked a list")

    codes = np.arange(6, dtype=np.int64)
    keys = Unwalkable([FlowKey(1, 2, 3, 4, 6)] * 3)
    cache = PlaneCache("numpy")
    cache.seed(("codes_and_keys",), (codes, keys))
    cache.seed(("keys",), keys)
    assert len(cache) == 2
    assert cache.nbytes == codes.nbytes
    trace = Trace([_packet(float(i), i % 3, 1, 1, 2, PROTO_TCP, 100, 16) for i in range(10)])
    flows = cache.get(trace, ("flow_codes", "UNIFLOW"))
    assert cache.nbytes == codes.nbytes + flows.nbytes > codes.nbytes


def test_disabled_cache_recomputes():
    trace = Trace([_packet(float(i), 1, 2, 1, 2, PROTO_UDP, 100, 0) for i in range(6)])
    cache = PlaneCache("numpy", enabled=False)
    spec = ("time_bins", 3)
    a = cache.get(trace, spec)
    b = cache.get(trace, spec)
    assert a is not b
    np.testing.assert_array_equal(a, b)
    assert cache.hits == 0 and cache.misses == 2 and len(cache) == 0


def test_exportable_items_skip_object_planes():
    trace = Trace([_packet(float(i), i % 2, 3, 1, 2, PROTO_TCP, 80, 16) for i in range(8)])
    cache = PlaneCache("numpy")
    cache.get(trace, ("column", "src", "uint64"))
    cache.get(trace, ("flow_codes", "UNIFLOW"))
    cache.get(trace, ("time_bins", 4))
    cache.get(trace, ("binned_histogram", "src", 4))
    kinds = {spec[0] for spec, _value in cache.exportable_items()}
    # The histogram's value codes are a plane of their own, and ship.
    assert kinds == {"time_bins", "value_codes", "binned_histogram"}


def test_line_sequence_plane_is_never_exported(archive_day):
    """A picture's line sequence is grown on demand by the tunings: the
    planes it reads ship, the sequence itself does not, and its vote
    arrays count in the cache's bytes."""
    trace = archive_day.trace
    cache = PlaneCache("numpy")
    HoughDetector(tuning="optimal").analyze(trace, planes=cache)
    sequences = [v for s, v in cache._planes.items() if s[0] == "hough_lines"]
    assert len(sequences) == 2
    assert all(plane_nbytes(sequence) > 0 for sequence in sequences)
    kinds = {spec[0] for spec, _value in cache.exportable_items()}
    assert "hough_lines" not in kinds
    assert {"hough_rows", "hough_pixels", "value_codes"} <= kinds


def test_plane_cache_for_is_per_trace_and_engine():
    trace = Trace([_packet(0.0, 1, 2, 1, 2, PROTO_TCP, 80, 16)])
    other = Trace([_packet(0.0, 1, 2, 1, 2, PROTO_TCP, 80, 16)])
    cache = plane_cache_for(trace, "numpy")
    assert plane_cache_for(trace, "numpy") is cache
    assert plane_cache_for(trace, "python") is not cache
    assert plane_cache_for(other, "numpy") is not cache


# -- cached == uncached (both engines) ---------------------------------


@pytest.mark.parametrize("engine_name", ["numpy", "python"])
@given(trace=traces)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_cached_analysis_identical_to_uncached(engine_name, trace):
    engine = get_engine(engine_name)
    ensemble = _overlapping_ensemble(engine)
    shared = PlaneCache(engine)
    for detector in ensemble:
        uncached = detector.analyze_table(
            trace, planes=PlaneCache(engine, enabled=False)
        )
        cached = detector.analyze_table(trace, planes=shared)
        assert list(cached) == list(uncached)
    # The sharing actually happened: fewer misses than total requests.
    assert shared.hits > 0 or shared.misses == 0


# -- value codes -------------------------------------------------------


port_columns = st.one_of(
    st.lists(st.sampled_from([0, 1, 80, 65534, 65535]) | st.integers(0, 65535)),
    st.integers(0, 65535).flatmap(lambda v: st.lists(st.just(v), max_size=20)),
).map(lambda values: np.array(values, dtype=np.uint16))

_ADDRESS_EDGES = [0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFE, 0xFFFFFFFF]

address_columns = st.one_of(
    st.lists(st.sampled_from(_ADDRESS_EDGES) | st.integers(0, 0xFFFFFFFF)),
    st.integers(0, 0xFFFFFFFF).flatmap(lambda v: st.lists(st.just(v), max_size=20)),
).map(lambda values: np.array(values, dtype=np.uint32))


@given(column=port_columns | address_columns)
@example(column=np.array([], dtype=np.uint32))
@example(column=np.array([0xFFFFFFFF], dtype=np.uint32))
@example(column=np.array([7] * 5, dtype=np.uint32))
@example(column=np.array([0xFFFFFFFF, 0, 5, 0xFFFFFFFF, 0, 5, 0], dtype=np.uint32))
@settings(max_examples=300, deadline=None)
def test_value_codes_match_np_unique(column):
    """A ``uint16`` column coded by one ``bincount``, and a ``uint32``
    column by one sort of packed ``value << 32 | row`` keys, give the
    values, dtype included, and the codes of ``np.unique``: empty,
    one-row and all-equal columns, both ends of the range and ties."""
    values, codes = unique_codes(column)
    expected_values, expected_codes = np.unique(column, return_inverse=True)
    assert values.dtype == expected_values.dtype == column.dtype
    assert codes.dtype == np.int64
    np.testing.assert_array_equal(values, expected_values)
    np.testing.assert_array_equal(codes, expected_codes)


# -- Hough's pixel index ------------------------------------------------


@given(trace=traces, data=st.data())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_hough_rows_index_each_pixel(trace, data):
    """A set of pixels' rows from the index == a mask over the packets'
    (y, x), and the lit pixels == those of the ``np.add.at`` image."""
    field = data.draw(st.sampled_from(["src", "dst"]))
    x_bins = data.draw(st.integers(1, 6))
    y_bins = data.draw(st.integers(1, 6))
    seed = data.draw(st.integers(0, 5))
    threshold = data.draw(st.integers(1, 3))
    cache = PlaneCache("numpy")
    rows, offsets = cache.get(trace, ("hough_rows", field, x_bins, y_bins, seed))
    x = time_pixels(trace.table.time, trace.start_time, trace.end_time, x_bins)
    y = shared_hasher(y_bins, seed).buckets(trace.table.column(field))

    pixels = np.array(
        data.draw(st.lists(st.integers(0, x_bins * y_bins - 1), unique=True)),
        dtype=np.int64,
    )
    mask = np.zeros(y_bins * x_bins, dtype=bool)
    mask[pixels] = True
    line_rows = _pixel_rows(rows, offsets, pixels)
    assert sorted(line_rows.tolist()) == (
        np.nonzero(mask.reshape(y_bins, x_bins)[y, x])[0].tolist()
    )
    # Each pixel's range is ascending, and the gather keeps pixel order.
    ranges = [rows[offsets[p] : offsets[p + 1]].tolist() for p in pixels]
    assert all(r == sorted(r) for r in ranges)
    assert line_rows.tolist() == [i for r in ranges for i in r]

    image = np.zeros((y_bins, x_bins), dtype=int)
    np.add.at(image, (y, x), 1)
    ys, xs = cache.get(
        trace, ("hough_pixels", field, x_bins, y_bins, threshold, seed)
    )
    expected_ys, expected_xs = np.nonzero(image >= threshold)
    assert ys.tolist() == expected_ys.tolist()
    assert xs.tolist() == expected_xs.tolist()


def test_default_ensemble_indexes_each_picture_once(archive_day, monkeypatch):
    """One default-ensemble pass computes each Hough pixel index and each
    column's value codes once, and hashes distinct values only."""
    from repro.detectors import planes as planes_module
    from repro.detectors.sketch import SketchHasher
    from repro.labeling.mawilab import MAWILabPipeline

    trace = archive_day.trace
    computed: list[tuple] = []
    compute = planes_module._compute_plane

    def recording_compute(trace, spec, planes, vectorized):
        computed.append(spec)
        return compute(trace, spec, planes, vectorized)

    hashed: list[np.ndarray] = []
    buckets = SketchHasher.buckets

    def recording_buckets(self, keys):
        hashed.append(np.asarray(keys))
        return buckets(self, keys)

    monkeypatch.setattr(planes_module, "_compute_plane", recording_compute)
    monkeypatch.setattr(SketchHasher, "buckets", recording_buckets)
    cache = PlaneCache("numpy")
    for detector in MAWILabPipeline(engine="numpy").ensemble:
        detector.analyze_table(trace, planes=cache)

    assert sorted(s[1] for s in computed if s[0] == "hough_rows") == [
        "dst",
        "src",
    ]
    coded = [s[1] for s in computed if s[0] == "value_codes"]
    assert sorted(coded) == ["dport", "dst", "sport", "src"]
    distinct = {
        field: np.unique(trace.table.column(field)).size
        for field in ("src", "dst")
    }
    assert len(trace) > 4 * max(distinct.values())
    assert hashed
    for keys in hashed:
        assert np.unique(keys).size == keys.size
        assert keys.size <= max(distinct.values())


# -- shared-memory transport -------------------------------------------


def _assert_planes_equal(got, expected):
    if isinstance(expected, np.ndarray):
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
    elif isinstance(expected, (tuple, list)):
        assert type(got) is type(expected) and len(got) == len(expected)
        for g, e in zip(got, expected):
            _assert_planes_equal(g, e)
    elif hasattr(expected, "counts"):  # BinnedHistogram
        assert got.feature == expected.feature
        _assert_planes_equal(got.values, expected.values)
        _assert_planes_equal(got.codes, expected.codes)
        _assert_planes_equal(got.counts, expected.counts)
    else:
        assert got == expected


def _computed_cache(trace) -> PlaneCache:
    cache = PlaneCache("numpy")
    ensemble = _overlapping_ensemble(get_engine("numpy"))
    for spec in merge_plane_specs(ensemble):
        cache.get(trace, spec)
    return cache


@pytest.mark.parametrize("engine", ["numpy", "python"])
def test_both_engines_export_the_whole_plane_union(archive_day, engine):
    """Every plane of the ensemble's union (entropy included) is an
    array on both engines, so a pooled ``label_trace`` ships all of it
    but the kinds that never ship, and workers attach equal planes."""
    from repro.detectors.entropy import ENTROPY_TUNINGS, EntropyDetector
    from repro.detectors.planes import EXPORT_SKIP_KINDS
    from repro.detectors.registry import default_ensemble

    trace = archive_day.trace
    cache = PlaneCache(engine)
    ensemble = default_ensemble(engine=engine) + [
        EntropyDetector(tuning=t, engine=engine, **p)
        for t, p in ENTROPY_TUNINGS.items()
    ]
    for spec in merge_plane_specs(ensemble):
        cache.get(trace, spec)
    items = cache.exportable_items()
    assert {spec for spec, _ in items} == {
        spec for spec in cache._planes if spec[0] not in EXPORT_SKIP_KINDS
    }
    with PlaneArena() as arena:
        with arena.export(items).attach() as planes:
            for spec, value in items:
                _assert_planes_equal(planes[spec], value)


def test_plane_export_attach_roundtrip(tiny_trace):
    items = _computed_cache(tiny_trace).exportable_items()
    assert items
    with PlaneArena() as arena:
        with arena.export(items).attach() as planes:
            assert set(planes) == {spec for spec, _ in items}
            for spec, value in items:
                _assert_planes_equal(planes[spec], value)


def test_plane_export_writes_each_array_once(archive_day):
    """The default ensemble's histograms share their field's
    ``value_codes`` arrays: the export writes every distinct array once,
    and the attached histograms share the attached codes."""
    from repro.detectors.registry import default_ensemble
    from repro.runner.shm import _array_bytes, _layout_bytes

    cache = PlaneCache("numpy")
    for spec in merge_plane_specs(default_ensemble(engine="numpy")):
        cache.get(archive_day.trace, spec)
    items = cache.exportable_items()
    with PlaneArena() as arena:
        handle = arena.export(items)
        with handle.attach() as planes:
            for spec, value in items:
                _assert_planes_equal(planes[spec], value)
            histograms = [
                (spec, plane)
                for spec, plane in planes.items()
                if spec[0] == "binned_histogram"
            ]
            assert histograms
            for spec, histogram in histograms:
                values, codes = planes[("value_codes", spec[1])]
                assert np.shares_memory(histogram.values, values)
                assert np.shares_memory(histogram.codes, codes)
        distinct = {
            id(array): array
            for _spec, value in items
            for array in _plane_arrays(value)
        }
        layout = [(np.dtype(dtype), shape) for dtype, shape in handle.layout]
        assert _layout_bytes(layout) == sum(
            _array_bytes(array.dtype, array.shape)
            for array in distinct.values()
        )


def _plane_arrays(value) -> list[np.ndarray]:
    if isinstance(value, np.ndarray):
        return [value]
    if hasattr(value, "counts"):  # BinnedHistogram
        return [value.values, value.codes, value.counts]
    return [item for item in value if isinstance(item, np.ndarray)]


def test_attached_planes_are_read_only(tiny_trace):
    items = _computed_cache(tiny_trace).exportable_items()
    with PlaneArena() as arena:
        with arena.export(items).attach() as planes:
            array = next(
                v for v in planes.values() if isinstance(v, np.ndarray)
            )
            with pytest.raises(ValueError):
                array[0] = 0


def test_plane_arena_recycles_one_segment(tiny_trace):
    items = _computed_cache(tiny_trace).exportable_items()
    with PlaneArena() as arena:
        first = arena.export(items)
        name = first.name
        registry = segment_registry()
        planes = registry.view(first)
        for spec, value in items:
            _assert_planes_equal(planes[spec], value)
        # A same-size re-export recycles the segment in place.
        second = arena.export(items)
        assert second.name == name
        assert arena.allocations == 1
        registry.release(name)


def test_plane_arena_grows_for_bigger_exports(tiny_trace):
    small = _computed_cache(tiny_trace).exportable_items()
    big_trace = Trace(
        [
            _packet(float(i) / 7, i % 6, (i * 3) % 6, i % 4, 2, PROTO_TCP, 100, 16)
            for i in range(400)
        ]
    )
    big = _computed_cache(big_trace).exportable_items()
    with PlaneArena() as arena:
        arena.export(small)
        arena.export(big)
        assert arena.allocations == 2
