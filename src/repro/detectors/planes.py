"""Trace-scoped feature-plane cache shared across the ensemble.

Every detector configuration derives the same handful of per-trace
feature arrays — header columns, sketch bucket assignments, per-time-bin
value histograms, and the per-family statistics built on top of them
(PCA residual matrices, Gamma deviation vectors, Hough lit pixels and
line sequences, KL divergence series).  The paper's ensemble
deliberately runs many configurations of the same four detectors, so
without sharing each *plane* is recomputed once per configuration even
though its value depends only on the trace and a small parameter key.

A :class:`PlaneCache` memoizes those planes keyed by their true
parameters (a "spec" tuple such as ``("sketch_buckets", "src", 16, 11)``)
so N configurations sharing a plane compute it once.  Computation is
dispatched through the engine's ``"feature_plane"`` kernel — the
vectorized kernel reads the columnar table, the reference kernel scans
packet objects — so cached and uncached analysis stay byte-identical
per engine.  Both kernels return the same types, so each detector
reads its planes one way on every engine.

Plane specs
-----------
``("column", field, dtype_name)``
    Feature column as an array (``dtype_name`` like ``"uint64"`` or
    ``None`` for the engine default).
``("time_bins", n_bins)``
    Per-packet time-bin index (the KL/entropy ``np.minimum`` binning).
``("bin_members", n_bins)``
    Per-bin packet indexes, one int64 array per bin, ascending.
``("value_codes", field)``
    ``(values, codes)``: the field's distinct values, ascending, and
    each packet's int64 index into them — the one ``np.unique`` of the
    column that histograms, sketch buckets and Hough's host split
    share.
``("binned_histogram", field, n_bins)``
    Dense :class:`~repro.detectors.features.BinnedHistogram` (built on
    ``value_codes`` by the vectorized kernel).
``("kl_divergence", field, n_bins, smoothing)``
    Per-bin symmetrized-KL series of the ``binned_histogram`` counts
    (:func:`~repro.detectors.kl._divergence_series`, on every engine).
    Consumers that overwrite entries (the streaming baseline rewrite
    of bin 0) must ``.copy()`` first.
``("entropy_series", field, n_bins)``
    Per-bin Shannon entropies of the ``binned_histogram`` counts
    (:func:`~repro.detectors.entropy._entropy_series`, on every
    engine).
``("sketch_buckets", field, n_sketches, seed)``
    Per-packet sketch bucket of the field hashed with the shared
    :func:`~repro.detectors.sketch.shared_hasher`.  The hash is
    elementwise, so the vectorized kernel hashes each distinct value
    of ``value_codes`` once and gathers by code.
``("pca_residual", field, n_sketches, seed, n_bins, n_components)``
    Residual-subspace projection of the sketch/time count matrix.
``("gamma_deviations", field, n_sketches, seed, base_window, n_scales)``
    Per-sketch robust deviation of the multi-scale Gamma features.
``("hough_x", x_bins)``
    Per-packet x (time) pixel coordinate (the reference kernel's
    input to ``hough_rows`` and ``hough_pixels``; the vectorized kernel
    folds it into ``hough_rows``).
``("hough_rows", field, x_bins, y_bins, seed)``
    ``(rows, offsets)``: the pixel index of one traffic picture.
    ``rows`` holds the packet indexes sorted stably by pixel
    ``y * x_bins + x`` (int32 when they fit), and pixel ``p``'s packets
    are ``rows[offsets[p]:offsets[p + 1]]``, ascending.
``("hough_pixels", field, x_bins, y_bins, pixel_threshold, seed)``
    ``(ys, xs)`` coordinates of lit pixels of one traffic picture (the
    vectorized kernel reads the pixel counts off ``hough_rows``).
``("hough_lines", field, x_bins, y_bins, pixel_threshold, seed, n_thetas)``
    The :class:`~repro.detectors.hough.LineSequence` of one picture's
    lit pixels: the lines of the Hough vote loop in the order it finds
    them, grown on demand.  Each tuning's lines are a prefix of it, and
    it keeps each line's ranked hosts, so the tunings find lines and
    hosts once.  It is mutable, so it is never exported; its ``nbytes``
    counts its vote arrays.
``("flow_codes", granularity_name)``
    The trace's :class:`~repro.net.table.FlowTable` from
    :meth:`Trace.flow_table` (already trace-cached; the plane spec
    makes the dependency explicit and countable).

Sharing model
-------------
A ``PlaneCache`` is valid for exactly **one** trace: specs do not
include the trace, so reusing a cache across traces returns wrong
planes.  :func:`plane_cache_for` attaches one cache per (trace, engine)
to the trace itself (via a weak-key side table, so pickling a trace
never ships cached planes), which is how independent callers —
``MAWILabPipeline.detect``, fan-out workers looping a config group,
streaming windows — share planes with zero plumbing.  Memory is bounded
by the number of distinct specs the ensemble requests (a few dozen
arrays, mostly O(n_packets)); caches die with their trace.
"""

from __future__ import annotations

import weakref
from typing import Iterable

import numpy as np

from repro.engine import EngineSpec, resolve_engine
from repro.errors import DetectorError

_MISSING = object()

#: Plane kinds never exported over shared memory: either trivially
#: recomputable from the already-shared packet table ("column",
#: "flow_codes"), or mutable ("hough_lines" is a line sequence grown
#: on demand).
EXPORT_SKIP_KINDS = frozenset({"column", "flow_codes", "hough_lines"})


def plane_nbytes(value) -> int:
    """Array bytes of one cached plane.

    Counts the ``nbytes`` of the plane, or of each part of a tuple
    plane such as Hough's ``(ys, xs)``.  Lists are never walked: they
    can hold one Python object per packet, flow or bin, which would
    make a cache miss cost as much as the plane.
    """
    if isinstance(value, tuple):
        return sum(int(getattr(part, "nbytes", 0)) for part in value)
    return int(getattr(value, "nbytes", 0))


class PlaneCache:
    """Memoized feature planes of one trace, shared across configs.

    Parameters
    ----------
    engine:
        Engine whose ``"feature_plane"`` kernel computes missing
        planes; cached and uncached analysis on the same engine emit
        identical values.
    enabled:
        ``False`` turns the cache into a pass-through that recomputes
        every request — the uncached baseline of
        ``benchmarks/test_plane_cache_speedup.py`` and the parity
        tests.
    """

    def __init__(self, engine: EngineSpec = "auto", enabled: bool = True) -> None:
        self.engine = resolve_engine(engine, what="feature planes")
        self.enabled = enabled
        self._planes: dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._planes)

    def get(self, trace, spec: tuple):
        """The plane ``spec`` of ``trace``, computing it on first use."""
        if self.enabled:
            value = self._planes.get(spec, _MISSING)
            if value is not _MISSING:
                self.hits += 1
                return value
        self.misses += 1
        value = self.engine.kernel("feature_plane")(trace, spec, self)
        if self.enabled:
            self._planes[spec] = value
            self.nbytes += plane_nbytes(value)
        return value

    def seed(self, spec: tuple, value) -> None:
        """Pre-populate one plane (a worker attaching exported planes)."""
        if spec not in self._planes:
            self.nbytes += plane_nbytes(value)
        self._planes[spec] = value

    def counters(self) -> dict:
        """Hit/miss/size counters for profiling artifacts."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "planes": len(self._planes),
            "nbytes": self.nbytes,
        }

    def exportable_items(self) -> list[tuple[tuple, object]]:
        """Cached ``(spec, value)`` pairs shippable over shared memory.

        Numeric arrays (and flat tuples/lists of arrays, and
        ``BinnedHistogram``) qualify; object-carrying planes and plain
        columns (already shipped as the packet table) do not.
        """
        items = []
        for spec, value in self._planes.items():
            if spec[0] in EXPORT_SKIP_KINDS:
                continue
            if _exportable_value(value):
                items.append((spec, value))
        return items


def _exportable_value(value) -> bool:
    if isinstance(value, np.ndarray):
        return value.dtype != object
    if isinstance(value, (tuple, list)):
        return all(
            (isinstance(v, np.ndarray) and v.dtype != object)
            or isinstance(v, (int, float, np.integer, np.floating))
            for v in value
        )
    # BinnedHistogram duck-type: three numeric arrays + a feature name.
    return (
        getattr(value, "counts", None) is not None
        and getattr(value, "values", None) is not None
        and getattr(value, "codes", None) is not None
    )


# One cache per (trace, engine name), attached weakly so a pickled
# trace never ships its planes and caches die with their trace.
_TRACE_CACHES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def plane_cache_for(trace, engine: EngineSpec = "auto") -> PlaneCache:
    """The trace-attached :class:`PlaneCache` for ``engine``.

    All callers resolving the same (trace object, engine) share one
    cache — this is the default sharing path for the batch pipeline,
    in-worker config groups, and streaming windows.
    """
    engine = resolve_engine(engine, what="feature planes")
    caches = _TRACE_CACHES.get(trace)
    if caches is None:
        caches = _TRACE_CACHES.setdefault(trace, {})
    cache = caches.get(engine.name)
    if cache is None:
        cache = caches[engine.name] = PlaneCache(engine)
    return cache


def merge_plane_specs(detectors: Iterable) -> list[tuple]:
    """Ordered union of ``plane_specs()`` across an ensemble."""
    seen: dict[tuple, None] = {}
    for detector in detectors:
        for spec in detector.plane_specs():
            seen.setdefault(spec, None)
    return list(seen)


# ---------------------------------------------------------------------
# feature_plane kernels
# ---------------------------------------------------------------------


def _feature_plane_numpy(trace, spec: tuple, planes: PlaneCache):
    """Vectorized kernel: planes read the trace's columnar table."""
    return _compute_plane(trace, spec, planes, vectorized=True)


def _feature_plane_python(trace, spec: tuple, planes: PlaneCache):
    """Reference kernel: engine-split planes scan packet objects."""
    return _compute_plane(trace, spec, planes, vectorized=False)


def _compute_plane(trace, spec: tuple, planes: PlaneCache, vectorized: bool):
    kind = spec[0]
    if kind == "column":
        _, field, dtype_name = spec
        dtype = np.dtype(dtype_name) if dtype_name else None
        return planes.engine.kernel("column_values")(trace, field, dtype)
    if kind == "time_bins":
        return _time_bins(trace, spec[1], vectorized)
    if kind == "bin_members":
        return _bin_members(trace, spec[1], planes, vectorized)
    if kind == "value_codes":
        return _value_codes(trace, spec[1], vectorized)
    if kind == "binned_histogram":
        _, field, n_bins = spec
        bin_idx = planes.get(trace, ("time_bins", n_bins))
        return planes.engine.kernel("binned_histogram")(
            trace.table,
            field,
            np.asarray(bin_idx),
            n_bins,
            value_codes=(
                planes.get(trace, ("value_codes", field)) if vectorized else None
            ),
        )
    if kind == "kl_divergence":
        from repro.detectors.kl import _divergence_series

        _, field, n_bins, smoothing = spec
        histogram = planes.get(trace, ("binned_histogram", field, n_bins))
        return _divergence_series(histogram.counts, smoothing)
    if kind == "entropy_series":
        from repro.detectors.entropy import _entropy_series

        _, field, n_bins = spec
        histogram = planes.get(trace, ("binned_histogram", field, n_bins))
        return _entropy_series(histogram.counts)
    if kind == "sketch_buckets":
        _, field, n_sketches, seed = spec
        from repro.detectors.sketch import shared_hasher

        hasher = shared_hasher(n_sketches, seed)
        if vectorized:
            values, codes = planes.get(trace, ("value_codes", field))
            return hasher.buckets(values)[codes]
        return hasher.buckets(planes.get(trace, ("column", field, "uint64")))
    if kind == "pca_residual":
        return _pca_residual(trace, spec, planes)
    if kind == "gamma_deviations":
        return _gamma_deviations(trace, spec, planes)
    if kind == "hough_x":
        from repro.detectors.hough import time_pixels

        times = planes.get(trace, ("column", "time", None))
        return time_pixels(times, trace.start_time, trace.end_time, spec[1])
    if kind == "hough_rows":
        return _hough_rows(trace, spec, planes, vectorized)
    if kind == "hough_pixels":
        _, field, x_bins, y_bins, pixel_threshold, seed = spec
        if vectorized:
            _, offsets = planes.get(
                trace, ("hough_rows", field, x_bins, y_bins, seed)
            )
            image = np.diff(offsets).reshape(y_bins, x_bins)
        else:
            x = planes.get(trace, ("hough_x", x_bins))
            y = planes.get(trace, ("sketch_buckets", field, y_bins, seed))
            image = np.zeros((y_bins, x_bins), dtype=int)
            np.add.at(image, (y, x), 1)
        ys, xs = np.nonzero(image >= pixel_threshold)
        return (ys, xs)
    if kind == "hough_lines":
        from repro.detectors.hough import LineSequence

        ys, xs = planes.get(trace, ("hough_pixels", *spec[1:6]))
        return LineSequence(xs, ys, spec[6])
    if kind == "flow_codes":
        from repro.net.flow import Granularity

        return trace.flow_table(Granularity[spec[1]])
    raise DetectorError(f"unknown feature plane kind: {spec!r}")


def _time_bins(trace, n_bins: int, vectorized: bool) -> np.ndarray:
    t_start, t_end = trace.start_time, trace.end_time
    span = max(t_end - t_start, 1e-9)
    if vectorized:
        return np.minimum(
            ((trace.table.time - t_start) / span * n_bins).astype(np.int64),
            n_bins - 1,
        )
    return np.array(
        [
            min(int((pkt.time - t_start) / span * n_bins), n_bins - 1)
            for pkt in trace
        ],
        dtype=np.int64,
    )


def _value_codes(trace, field: str, vectorized: bool):
    if vectorized:
        from repro.detectors.features import unique_codes

        return unique_codes(trace.table.column(field))
    column = [getattr(pkt, field) for pkt in trace]
    values = sorted(set(column))
    code_of = {value: c for c, value in enumerate(values)}
    return (
        np.array(values, dtype=trace.table.column(field).dtype),
        np.array([code_of[v] for v in column], dtype=np.int64),
    )


def _hough_rows(trace, spec: tuple, planes: PlaneCache, vectorized: bool):
    _, field, x_bins, y_bins, seed = spec
    n_pixels = x_bins * y_bins
    if vectorized:
        from repro.detectors.hough import time_pixels
        from repro.detectors.sketch import shared_hasher

        values, codes = planes.get(trace, ("value_codes", field))
        y = shared_hasher(y_bins, seed).buckets(values)[codes]
        x = time_pixels(
            planes.get(trace, ("column", "time", None)),
            trace.start_time,
            trace.end_time,
            x_bins,
        )
        # A uint16 key (any picture up to 65,536 pixels) sorts by
        # radix, about 8x faster than int64 keys.
        pixel = (y * x_bins + x).astype(np.min_scalar_type(n_pixels - 1))
        rows = np.argsort(pixel, kind="stable")
        if rows.size <= np.iinfo(np.int32).max:
            rows = rows.astype(np.int32)
        counts = np.bincount(pixel, minlength=n_pixels)
    else:
        x = planes.get(trace, ("hough_x", x_bins))
        y = planes.get(trace, ("sketch_buckets", field, y_bins, seed))
        members: list[list[int]] = [[] for _ in range(n_pixels)]
        for i, (yy, xx) in enumerate(zip(y, x)):
            members[int(yy) * x_bins + int(xx)].append(i)
        rows = np.array([i for m in members for i in m], dtype=np.int64)
        counts = np.array([len(m) for m in members], dtype=np.int64)
    offsets = np.zeros(n_pixels + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return rows, offsets


def _bin_members(trace, n_bins: int, planes: PlaneCache, vectorized: bool):
    bin_idx = planes.get(trace, ("time_bins", n_bins))
    if vectorized:
        return tuple(np.nonzero(bin_idx == b)[0] for b in range(n_bins))
    bins: list[list[int]] = [[] for _ in range(n_bins)]
    for i, b in enumerate(bin_idx):
        bins[int(b)].append(i)
    return tuple(np.array(members, dtype=np.int64) for members in bins)


def _pca_residual(trace, spec: tuple, planes: PlaneCache) -> np.ndarray:
    _, field, n_sketches, seed, n_bins, n_components = spec
    from repro.detectors.pca import PCADetector
    from repro.detectors.sketch import shared_hasher, sketch_time_matrix

    times = planes.get(trace, ("column", "time", None))
    keys = planes.get(trace, ("column", field, "uint64"))
    buckets = planes.get(trace, ("sketch_buckets", field, n_sketches, seed))
    matrix = sketch_time_matrix(
        times,
        keys,
        shared_hasher(n_sketches, seed),
        trace.start_time,
        trace.end_time,
        n_bins,
        buckets=buckets,
    )
    return PCADetector._residual_matrix(matrix, n_components)


def _gamma_deviations(trace, spec: tuple, planes: PlaneCache) -> np.ndarray:
    _, field, n_sketches, seed, base_window, n_scales = spec
    from repro.detectors.gamma import GammaDetector

    times = planes.get(trace, ("column", "time", None))
    buckets = planes.get(trace, ("sketch_buckets", field, n_sketches, seed))
    t_start, t_end = trace.start_time, trace.end_time
    n_windows = max(int(np.ceil((t_end - t_start) / base_window)), 2)
    window_idx = np.clip(
        ((times - t_start) / base_window).astype(int), 0, n_windows - 1
    )
    counts = np.zeros((n_windows, n_sketches), dtype=float)
    np.add.at(counts, (window_idx, buckets), 1.0)
    features = GammaDetector._gamma_features(counts, n_scales)
    return GammaDetector._deviations(features)


__all__ = [
    "EXPORT_SKIP_KINDS",
    "PlaneCache",
    "merge_plane_specs",
    "plane_cache_for",
    "plane_nbytes",
]
