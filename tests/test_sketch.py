"""Unit tests for repro.detectors.sketch."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.detectors.sketch import SketchHasher, dominant_keys, sketch_time_matrix
from repro.errors import DetectorError


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
        keys = np.array([1, 2, 3, 4], dtype=np.uint64)
        matrix = sketch_time_matrix(times, keys, hasher, 0.0, 10.0, 5)
        assert matrix.shape == (5, 4)
        assert matrix.sum() == 4

    def test_bin_placement(self):
        hasher = SketchHasher(1, seed=0)
        times = np.array([0.0, 5.0, 9.999])
        keys = np.array([1, 1, 1], dtype=np.uint64)
        matrix = sketch_time_matrix(times, keys, hasher, 0.0, 10.0, 10)
        assert matrix[0, 0] == 1
        assert matrix[5, 0] == 1
        assert matrix[9, 0] == 1

    def test_rejects_zero_bins(self):
        hasher = SketchHasher(1, seed=0)
        with pytest.raises(DetectorError):
            sketch_time_matrix(
                np.array([0.0]), np.array([1], dtype=np.uint64), hasher, 0, 1, 0
            )


class TestDominantKeys:
    def test_finds_dominant(self):
        hasher = SketchHasher(4, seed=0)
        target = 1234
        sketch = hasher.bucket(target)
        keys = np.array([target] * 50 + [5678] * 3, dtype=np.uint64)
        mask = np.ones(keys.size, dtype=bool)
        result = dominant_keys(keys, mask, hasher, sketch, top=3)
        assert target in result

    def test_min_fraction_filters_noise(self):
        hasher = SketchHasher(1, seed=0)  # single bucket: all keys collide
        keys = np.array([1] * 95 + list(range(100, 105)), dtype=np.uint64)
        mask = np.ones(keys.size, dtype=bool)
        result = dominant_keys(keys, mask, hasher, 0, top=5, min_fraction=0.1)
        assert result == [1]

    def test_empty_mask(self):
        hasher = SketchHasher(4, seed=0)
        keys = np.array([1, 2, 3], dtype=np.uint64)
        mask = np.zeros(3, dtype=bool)
        assert dominant_keys(keys, mask, hasher, 0) == []

    def test_wrong_sketch_empty(self):
        hasher = SketchHasher(4, seed=0)
        target = 42
        other = (hasher.bucket(target) + 1) % 4
        keys = np.array([target] * 10, dtype=np.uint64)
        mask = np.ones(10, dtype=bool)
        assert dominant_keys(keys, mask, hasher, other) == []
