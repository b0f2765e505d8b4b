"""Fig. 4 — rule support / degree vs community size (uniflow).

The paper observes that the largest communities tend toward coarse
rules (degree -> 1, support -> 100 %), while 90 % of communities
(size < 20) keep rule degree > 2 and rule support > 75 %.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import GRANULARITY_DATES, run_once
from repro.eval.report import format_table
from repro.net.flow import Granularity
from repro.rules.itemsets import flow_block
from repro.rules.summarize import summarize_transactions

SIZE_BUCKETS = [(2, 4), (5, 9), (10, 19), (20, 10**9)]


def test_fig4_rules_vs_size(granularity_runs, benchmark):
    def compute():
        points = []  # (size, degree, support)
        for date in GRANULARITY_DATES:
            community_set = granularity_runs[(date, Granularity.UNIFLOW)]
            for community in community_set.non_single():
                if not community.traffic:
                    continue
                summary = summarize_transactions(
                    flow_block(community.traffic)
                )
                points.append(
                    (community.size, summary.rule_degree, summary.rule_support)
                )
        return points

    points = run_once(benchmark, compute)
    assert points, "no non-single communities in the sample"

    rows = []
    bucket_stats = {}
    for lo, hi in SIZE_BUCKETS:
        bucket = [(d, s) for size, d, s in points if lo <= size <= hi]
        if not bucket:
            rows.append([f"{lo}-{hi if hi < 10**9 else '+'}", 0, "-", "-"])
            continue
        degrees = [d for d, _ in bucket]
        supports = [s for _, s in bucket]
        bucket_stats[(lo, hi)] = (np.mean(degrees), np.mean(supports))
        rows.append(
            [
                f"{lo}-{hi if hi < 10**9 else '+'}",
                len(bucket),
                float(np.mean(degrees)),
                float(np.mean(supports)),
            ]
        )
    print()
    print(
        format_table(
            ["size bucket", "#communities", "mean rule degree", "mean rule support %"],
            rows,
            title="Fig. 4 — rules vs community size (uniflow)",
        )
    )

    small = [
        (d, s) for size, d, s in points if size < 20
    ]
    if small:
        small_degrees = np.array([d for d, _ in small])
        small_supports = np.array([s for _, s in small])
        # Paper: small communities have degree > 2 and support > 75 %.
        assert np.median(small_degrees) >= 2.0
        assert np.median(small_supports) >= 75.0
    # Largest communities are at least as coarse as small ones.
    large = [d for size, d, _ in points if size >= 20]
    if large and small:
        assert np.mean(large) <= np.mean(small_degrees) + 0.25
