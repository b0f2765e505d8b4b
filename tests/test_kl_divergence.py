"""KL's array divergence against its scalar reference, bit for bit.

:func:`repro.detectors.kl._symmetric_kl` computes both divergence terms
as arrays over the key union and sums each left to right;
``tests/kl_oracle.py`` keeps the scalar loop it replaced.  Scores,
cuts and the alarms chosen from them depend on the exact float, so the
two are compared with ``==``, never approximately.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.detectors.features import binned_value_histogram
from repro.detectors.kl import _FEATURES, _dense_bin_counter, _symmetric_kl
from repro.detectors.planes import PlaneCache
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
    """Consecutive bins of every feature histogram of a real day, as
    the reference engine's divergence plane and a streamed bin 0 see
    them."""
    trace = archive_day.trace
    cache = PlaneCache("python")
    compared = 0
    for feature in _FEATURES:
        hists = cache.get(trace, ("binned_counters", feature, 12))
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
