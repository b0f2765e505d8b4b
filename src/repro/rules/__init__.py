"""Association-rule mining (modified Apriori).

The paper uses association rules in two places:

* the KL-based detector extracts the feature sets responsible for a
  histogram change (Brauckhoff et al., IMC'09);
* the similarity-estimator evaluation and the final labeling summarize
  each community's traffic into concise 4-tuple rules (Section 4.1.1),
  scored by *rule degree* and *rule support*.

Both read the traffic as an ``(n, 4)`` integer block of src, sport,
dst and dport values (:func:`~repro.rules.itemsets.packet_block`,
:func:`~repro.rules.itemsets.flow_block`) and mine it through the
engine's ``"maximal_itemsets"`` kernel, with the paper's modification
that minimum support ``s`` is a *percentage* of the transactions rather
than an absolute count.  Both read only the ranked maximal itemsets
(:func:`~repro.rules.itemsets.ranked_maximal`) and, for Step 4, the
rows they cover, which is what the kernel returns.  The reference
kernel is :func:`~repro.rules.apriori.apriori`, a breadth-first
Apriori over one transaction per row; the columnar kernel
(:mod:`repro.rules.columnar`) counts every field subset of the
block's distinct coded rows and returns the same itemsets.
"""

from repro.rules.apriori import AprioriResult, FrequentItemset, apriori
from repro.rules.itemsets import (
    FIELDS,
    Rule,
    flow_block,
    itemset_to_rule,
    packet_block,
    transactions_from_block,
)
from repro.rules.summarize import CommunitySummary, summarize_transactions

__all__ = [
    "AprioriResult",
    "FrequentItemset",
    "apriori",
    "FIELDS",
    "Rule",
    "flow_block",
    "itemset_to_rule",
    "packet_block",
    "transactions_from_block",
    "CommunitySummary",
    "summarize_transactions",
]
