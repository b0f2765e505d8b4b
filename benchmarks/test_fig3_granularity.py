"""Fig. 3 — similarity-estimator sensitivity to traffic granularity.

Regenerates the four panels of paper Fig. 3 over the sampled archive
days:

(a) CDF of the number of single communities per trace;
(b) CDF of community sizes (excluding singles);
(c) CDF of rule support (excluding singles);
(d) distribution of rule degree (excluding singles).

Paper shapes to hold:
* flows (uni or bi) produce substantially fewer single communities
  than packets (Fig. 3a);
* biflows produce the largest communities (Fig. 3b);
* packets produce the most specific rules (highest degree, Fig. 3d),
  bidirectional flows the coarsest.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import GRANULARITY_DATES, run_once
from repro.eval.metrics import cdf_points
from repro.eval.report import format_table
from repro.net.flow import Granularity
from repro.rules.itemsets import code_block
from repro.rules.summarize import summarize_transactions

GRANULARITIES = (Granularity.PACKET, Granularity.UNIFLOW, Granularity.BIFLOW)


def _summaries(community_set):
    """Rule summaries of non-single communities."""
    trace = community_set.extractor.trace
    summaries = []
    for community in community_set.non_single():
        if not community.codes.size:
            continue
        block = code_block(community.codes, community_set.granularity, trace)
        summaries.append(summarize_transactions(block))
    return summaries


def test_fig3_granularity(granularity_runs, benchmark):
    def compute():
        stats = {}
        for granularity in GRANULARITIES:
            singles, sizes, supports, degrees = [], [], [], []
            for date in GRANULARITY_DATES:
                community_set = granularity_runs[(date, granularity)]
                singles.append(community_set.n_single)
                sizes.extend(c.size for c in community_set.non_single())
                for summary in _summaries(community_set):
                    supports.append(summary.rule_support)
                    degrees.append(summary.rule_degree)
            stats[granularity] = {
                "singles": singles,
                "sizes": sizes,
                "supports": supports,
                "degrees": degrees,
            }
        return stats

    stats = run_once(benchmark, compute)

    rows = []
    for granularity in GRANULARITIES:
        s = stats[granularity]
        rows.append(
            [
                granularity.value,
                float(np.mean(s["singles"])),
                float(np.mean(s["sizes"])) if s["sizes"] else 0.0,
                float(np.mean(s["supports"])) if s["supports"] else 0.0,
                float(np.mean(s["degrees"])) if s["degrees"] else 0.0,
            ]
        )
    print()
    print(
        format_table(
            ["granularity", "singles/trace", "mean size", "rule support %", "rule degree"],
            rows,
            title="Fig. 3 — granularity sensitivity (means over sampled days)",
        )
    )
    for granularity in GRANULARITIES:
        xs, ps = cdf_points(stats[granularity]["singles"])
        print(f"  CDF singles [{granularity.value}]: " + ", ".join(f"({x:.0f},{p:.2f})" for x, p in zip(xs, ps)))

    packet = stats[Granularity.PACKET]
    uniflow = stats[Granularity.UNIFLOW]
    biflow = stats[Granularity.BIFLOW]

    # Fig 3(a): flows relate more alarms -> fewer singles than packets.
    assert np.mean(uniflow["singles"]) <= np.mean(packet["singles"])
    assert np.mean(biflow["singles"]) <= np.mean(packet["singles"])
    # Fig 3(b): biflow communities at least as large as packet ones.
    assert np.mean(biflow["sizes"]) >= np.mean(packet["sizes"]) * 0.95
    # Fig 3(d): packets give the most specific rules.
    assert np.mean(packet["degrees"]) >= np.mean(biflow["degrees"]) - 0.05
    # Fig 3(c): every granularity keeps decent rule support.
    for granularity in GRANULARITIES:
        assert np.mean(stats[granularity]["supports"]) > 50.0
