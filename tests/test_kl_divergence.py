"""KL's array divergences against their scalar reference.

:func:`repro.detectors.kl._symmetric_kl` (a streamed bin 0's score)
computes both divergence terms as arrays over the key union and sums
each left to right; ``tests/kl_oracle.py`` keeps the scalar loop it
replaced.  The two are compared with ``==``, never approximately.
:func:`repro.detectors.kl._divergence_series` (every other bin, on
every engine) sums pairwise in value order instead, so its rows are
held to a relative 1e-12 of the same loop.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.detectors.features import binned_value_histogram
from repro.detectors.kl import (
    _FEATURES,
    _dense_bin_counter,
    _divergence_series,
    _symmetric_kl,
)
from repro.detectors.planes import PlaneCache
from tests.kl_oracle import bin_counters
from tests.kl_oracle import symmetric_kl as oracle_symmetric_kl

keys = st.one_of(st.integers(0, 65535), st.integers(0, 2**32 - 1))
counts = st.integers(1, 10**6)
smoothings = st.floats(-6.0, -2.0).map(lambda e: 10.0**e)


@st.composite
def histogram_pairs(draw):
    """Two histograms over shared, previous-only and current-only keys
    (any group may be empty, so disjoint and one-sided pairs occur),
    each filled in a drawn insertion order."""
    shared, prev_only, curr_only = (
        draw(st.lists(keys, max_size=30, unique=True)) for _ in range(3)
    )
    prev_only = [k for k in prev_only if k not in shared]
    curr_only = [k for k in curr_only if k not in shared and k not in prev_only]
    prev = Counter()
    for key in draw(st.permutations(shared + prev_only)):
        prev[key] = draw(counts)
    curr = Counter()
    for key in draw(st.permutations(shared + curr_only)):
        curr[key] = draw(counts)
    return prev, curr


@given(pair=histogram_pairs(), smoothing=smoothings)
@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_array_divergence_equals_the_scalar_loop(pair, smoothing):
    prev, curr = pair
    assert _symmetric_kl(prev, curr, smoothing) == oracle_symmetric_kl(
        prev, curr, smoothing
    )
    assert _symmetric_kl(curr, prev, smoothing) == oracle_symmetric_kl(
        curr, prev, smoothing
    )


def test_small_histograms_equal_the_scalar_loop():
    """Every pair of two-key histograms with counts up to 40: with few
    terms, one logarithm off by an ulp shows in the sum."""
    compared = 0
    for smoothing in (1e-6, 1e-4, 1e-2):
        for a in range(1, 41):
            for b in range(1, 41):
                prev = Counter({1: a, 2: b})
                for curr in (Counter({1: b, 2: a}), Counter({2: a, 3: b})):
                    assert _symmetric_kl(prev, curr, smoothing) == (
                        oracle_symmetric_kl(prev, curr, smoothing)
                    )
                    compared += 1
    assert compared == 3 * 40 * 40 * 2


def test_every_bin_pair_of_a_day_equals_the_scalar_loop(archive_day):
    """Consecutive bins of every feature histogram of a real day, as a
    streamed bin 0 sees them: dense rows as Counters."""
    trace = archive_day.trace
    cache = PlaneCache("numpy")
    compared = 0
    for feature in _FEATURES:
        histogram = cache.get(trace, ("binned_histogram", feature, 12))
        hists = [_dense_bin_counter(histogram, b) for b in range(12)]
        for prev, curr in zip(hists, hists[1:]):
            for smoothing in (1e-6, 1e-4, 1e-2):
                assert _symmetric_kl(prev, curr, smoothing) == (
                    oracle_symmetric_kl(prev, curr, smoothing)
                )
                compared += 1
    assert compared == 4 * 11 * 3


def test_dense_bin_counter_keeps_keys_counts_and_order(archive_day):
    """A dense histogram row as a Counter: the row's present values as
    Python ints in ascending order, with their counts."""
    trace = archive_day.trace
    n_bins = 12
    bin_idx = PlaneCache("numpy").get(trace, ("time_bins", n_bins))
    for feature in _FEATURES:
        histogram = binned_value_histogram(trace.table, feature, bin_idx, n_bins)
        for b in range(n_bins):
            row = histogram.counts[b]
            expected = [
                (int(histogram.values[c]), int(row[c]))
                for c in np.nonzero(row)[0]
            ]
            got = _dense_bin_counter(histogram, b)
            assert isinstance(got, Counter)
            assert list(got.items()) == expected
            assert all(
                type(k) is int and type(v) is int for k, v in got.items()
            )


@pytest.mark.parametrize("source", ["archive_day", "benchmark_day"])
def test_divergence_series_rows_match_the_scalar_loop(
    archive_day, benchmark_day, source
):
    """Every row of the dense divergence series (the ``kl_divergence``
    plane) of a real day, against the scalar loop over the day's
    per-bin Counters: within a relative 1e-12 (the largest error
    measured on 13 days was 2.7e-14)."""
    trace = (archive_day if source == "archive_day" else benchmark_day).trace
    cache = PlaneCache("numpy")
    compared = 0
    for feature in _FEATURES:
        counts = cache.get(trace, ("binned_histogram", feature, 12)).counts
        hists = bin_counters(trace, feature, 12)
        for smoothing in (1e-6, 1e-4, 1e-2):
            series = _divergence_series(counts, smoothing)
            assert series[0] == 0.0
            for b in range(1, 12):
                expected = oracle_symmetric_kl(hists[b - 1], hists[b], smoothing)
                assert series[b] == pytest.approx(expected, rel=1e-12, abs=0.0)
                compared += 1
    assert compared == 4 * 11 * 3
