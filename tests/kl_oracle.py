"""Scalar symmetrized KL divergence: the reference for the detector.

This is :func:`repro.detectors.kl._symmetric_kl` as it was before the
detector computed the terms as arrays: one loop over the key union,
accumulating both divergences term by term.  ``tests/test_kl_detector.py``
checks that the array version returns the same float, bit for bit.
"""

from __future__ import annotations

from collections import Counter

import numpy as np


def symmetric_kl(prev: Counter, curr: Counter, smoothing: float) -> float:
    """Symmetrized, smoothed KL divergence between two histograms."""
    if not prev or not curr:
        return 0.0
    keys = set(prev) | set(curr)
    n_prev = sum(prev.values())
    n_curr = sum(curr.values())
    k = len(keys)
    d_pq = 0.0
    d_qp = 0.0
    for key in keys:
        p = (prev.get(key, 0) + smoothing) / (n_prev + smoothing * k)
        q = (curr.get(key, 0) + smoothing) / (n_curr + smoothing * k)
        d_pq += p * np.log(p / q)
        d_qp += q * np.log(q / p)
    return float(d_pq + d_qp) / 2.0
