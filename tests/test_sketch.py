"""Unit tests for repro.detectors.sketch."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.detectors.planes import PlaneCache
from repro.detectors.sketch import (
    SketchHasher,
    cell_counts,
    dominant_keys,
    sketch_time_matrix,
)
from repro.errors import DetectorError
from repro.net.trace import Trace
from tests.conftest import make_packet


class TestSketchHasher:
    def test_bucket_in_range(self):
        hasher = SketchHasher(16, seed=1)
        rng = np.random.default_rng(0)
        for key in rng.integers(0, 1 << 32, size=200):
            assert 0 <= hasher.bucket(int(key)) < 16

    def test_deterministic(self):
        a = SketchHasher(16, seed=5)
        b = SketchHasher(16, seed=5)
        assert all(a.bucket(k) == b.bucket(k) for k in range(100))

    def test_seed_changes_hash(self):
        a = SketchHasher(64, seed=1)
        b = SketchHasher(64, seed=2)
        keys = list(range(200))
        assert [a.bucket(k) for k in keys] != [b.bucket(k) for k in keys]

    @given(
        keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50),
        n_sketches=st.integers(1, 8),
        seed=st.integers(0, 5),
    )
    @example(keys=[1, 2, 3, 4, 1 << 31], n_sketches=8, seed=3)
    def test_buckets_vectorized_matches_scalar(self, keys, n_sketches, seed):
        hasher = SketchHasher(n_sketches, seed=seed)
        vector = hasher.buckets(np.array(keys, dtype=np.uint64))
        scalar = [hasher.bucket(k) for k in keys]
        assert vector.tolist() == scalar

    def test_roughly_uniform(self):
        hasher = SketchHasher(4, seed=7)
        counts = np.zeros(4)
        for key in range(4000):
            counts[hasher.bucket(key)] += 1
        assert counts.min() > 700  # each bucket near 1000

    def test_rejects_zero_sketches(self):
        with pytest.raises(DetectorError):
            SketchHasher(0)


class TestSketchTimeMatrix:
    def test_shape_and_total(self):
        hasher = SketchHasher(4, seed=0)
        times = np.array([0.0, 1.0, 2.0, 9.9])
        buckets = hasher.buckets(np.array([1, 2, 3, 4], dtype=np.uint64))
        matrix = sketch_time_matrix(times, buckets, 4, 0.0, 10.0, 5)
        assert matrix.shape == (5, 4)
        assert matrix.sum() == 4

    def test_bin_placement(self):
        times = np.array([0.0, 5.0, 9.999])
        buckets = np.zeros(3, dtype=np.int64)
        matrix = sketch_time_matrix(times, buckets, 1, 0.0, 10.0, 10)
        assert matrix[0, 0] == 1
        assert matrix[5, 0] == 1
        assert matrix[9, 0] == 1

    @given(
        cells=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2))),
    )
    def test_counts_equal_add_at(self, cells):
        rows = np.array([r for r, _ in cells], dtype=np.int64)
        columns = np.array([c for _, c in cells], dtype=np.int64)
        expected = np.zeros((5, 3), dtype=float)
        np.add.at(expected, (rows, columns), 1.0)
        counts = cell_counts(rows, columns, 5, 3)
        assert counts.dtype == expected.dtype
        assert counts.tobytes() == expected.tobytes()

    def test_rejects_zero_bins(self):
        with pytest.raises(DetectorError):
            sketch_time_matrix(
                np.array([0.0]), np.zeros(1, dtype=np.int64), 1, 0, 1, 0
            )


def _trace(keys, field="src"):
    """A time-sorted trace whose ``field`` column holds ``keys``."""
    return Trace(
        [
            make_packet(time=float(i), **{field: int(key)})
            for i, key in enumerate(keys)
        ]
    )


def _counter_reference(keys, hasher, sketch, top, min_fraction):
    """The rule itself: a ``Counter`` of the rows' keys in the sketch."""
    in_sketch = [k for k in keys if hasher.bucket(k) == sketch]
    counts = Counter(in_sketch).most_common(top)
    return [k for k, c in counts if c / len(in_sketch) >= min_fraction]


ENGINES = ["numpy", "python"]


class TestDominantKeys:
    def test_finds_dominant(self):
        hasher = SketchHasher(4, seed=0)
        target = 1234
        sketch = hasher.bucket(target)
        trace = _trace([target] * 50 + [5678] * 3)
        rows = range(len(trace))
        for engine in ENGINES:
            result = dominant_keys(
                trace, "src", rows, hasher, sketch, top=3, engine=engine
            )
            assert target in result

    def test_min_fraction_filters_noise(self):
        hasher = SketchHasher(1, seed=0)  # single bucket: all keys collide
        trace = _trace([1] * 95 + list(range(100, 105)))
        rows = range(len(trace))
        for engine in ENGINES:
            result = dominant_keys(
                trace, "src", rows, hasher, 0, top=5, min_fraction=0.1,
                engine=engine,
            )
            assert result == [1]

    def test_empty_range(self):
        hasher = SketchHasher(4, seed=0)
        trace = _trace([1, 2, 3])
        for engine in ENGINES:
            for rows in (range(2, 2), range(3, 3)):
                assert dominant_keys(
                    trace, "src", rows, hasher, 0, engine=engine
                ) == []

    def test_wrong_sketch_empty(self):
        hasher = SketchHasher(4, seed=0)
        target = 42
        other = (hasher.bucket(target) + 1) % 4
        trace = _trace([target] * 10)
        for engine in ENGINES:
            assert dominant_keys(
                trace, "src", range(10), hasher, other, engine=engine
            ) == []

    def test_counts_only_the_range(self):
        """Rows outside the range count for nothing: the key that
        dominates the whole trace is absent from the rows 6..9."""
        hasher = SketchHasher(1, seed=0)
        trace = _trace([7] * 6 + [3, 9, 9, 3])
        for engine in ENGINES:
            window = dominant_keys(
                trace, "src", range(6, 10), hasher, 0, engine=engine
            )
            assert window == [3, 9]
            whole = dominant_keys(
                trace, "src", range(10), hasher, 0, top=1, engine=engine
            )
            assert whole == [7]

    @pytest.mark.parametrize("engine", ENGINES)
    @given(
        keys=st.lists(
            st.integers(0, 6) | st.sampled_from([0xFFFFFFFF, 1 << 31]),
            max_size=60,
        ),
        bounds=st.tuples(st.integers(0, 61), st.integers(0, 61)),
        n_sketches=st.integers(1, 4),
        seed=st.integers(0, 3),
        data=st.data(),
    )
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_counter_over_the_range(
        self, engine, keys, bounds, n_sketches, seed, data
    ):
        """Ties broken by first appearance in the range, sketches with
        no row in the range, empty ranges, and every sketch and tuning
        reading one cache."""
        field = data.draw(st.sampled_from(["src", "dst"]))
        trace = _trace(keys, field=field)
        column = trace.table.column(field).tolist()
        start, stop = min(bounds), max(bounds)
        hasher = SketchHasher(n_sketches, seed=seed)
        planes = PlaneCache(engine)
        for top in (1, 2, 4):
            for min_fraction in (0.0, 0.1, 0.5):
                for sketch in range(n_sketches):
                    got = dominant_keys(
                        trace,
                        field,
                        range(start, stop),
                        hasher,
                        sketch,
                        top=top,
                        min_fraction=min_fraction,
                        engine=engine,
                        planes=planes,
                    )
                    assert got == _counter_reference(
                        column[start:stop], hasher, sketch, top, min_fraction
                    )
