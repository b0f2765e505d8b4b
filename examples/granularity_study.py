#!/usr/bin/env python3
"""Granularity study: packets vs unidirectional vs bidirectional flows.

Reproduces the Fig. 1 / Fig. 3 story on one trace: the same alarms are
associated with traffic at the three granularities, and the resulting
community structures are compared (single communities, sizes, rule
quality).

Run:  python examples/granularity_study.py
"""

from repro.core import SimilarityEstimator
from repro.detectors import default_ensemble, run_ensemble
from repro.mawi import SyntheticArchive
from repro.net.flow import Granularity
from repro.rules import summarize_transactions
from repro.rules.itemsets import code_block


def main() -> None:
    archive = SyntheticArchive(seed=2010, trace_duration=30.0)
    day = archive.day("2004-06-01")
    print(f"{day.date}: {len(day.trace)} packets, "
          f"{len(day.events)} injected anomalies\n")

    alarms = run_ensemble(day.trace, default_ensemble())
    print(f"{len(alarms)} alarms from 12 configurations\n")

    print(
        f"{'granularity':12s} {'communities':>11s} {'singles':>7s} "
        f"{'largest':>7s} {'degree':>6s} {'support':>7s}"
    )
    print("-" * 58)
    for granularity in (
        Granularity.PACKET,
        Granularity.UNIFLOW,
        Granularity.BIFLOW,
    ):
        estimator = SimilarityEstimator(granularity=granularity, edge_threshold=0.1)
        community_set = estimator.build(day.trace, alarms)
        degrees, supports = [], []
        for community in community_set.non_single():
            if not community.codes.size:
                continue
            block = code_block(
                community.codes, granularity, community_set.extractor.trace
            )
            summary = summarize_transactions(block)
            degrees.append(summary.rule_degree)
            supports.append(summary.rule_support)
        sizes = [c.size for c in community_set.communities]
        def mean(xs):
            return sum(xs) / len(xs) if xs else 0.0
        print(
            f"{granularity.value:12s} {len(sizes):11d} "
            f"{community_set.n_single:7d} {max(sizes):7d} "
            f"{mean(degrees):6.2f} {mean(supports):6.1f}%"
        )

    print(
        "\nThe trade-off of paper Section 4.1.2: flows relate more alarms\n"
        "(fewer singles, bigger communities) while packets keep the rules\n"
        "most specific. The paper's production system picks unidirectional\n"
        "flows as the middle ground."
    )


if __name__ == "__main__":
    main()
