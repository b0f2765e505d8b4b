"""Community traffic summarization.

Implements the two efficiency metrics of paper Section 4.1.1:

* **rule degree** — average number of specified fields over the
  community's rules (maximal frequent itemsets), in [0, 4];
* **rule support** — percentage of the community's traffic covered by
  the union of its rules.

The same summary powers the final MAWILab labels: each accepted
community is annotated with its (few) rules instead of its (many)
alarms, which is what makes the labels concise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.rules.apriori import apriori, coverage
from repro.rules.itemsets import Rule, itemset_to_rule, ranked_maximal


@dataclass
class CommunitySummary:
    """Rules and efficiency metrics for one community's traffic."""

    rules: list[Rule] = field(default_factory=list)
    rule_degree: float = 0.0
    rule_support: float = 0.0  # percentage, [0, 100]
    n_transactions: int = 0

    def describe(self) -> str:
        """Multi-line human-readable rendering of the rules."""
        if not self.rules:
            return "(no rules)"
        return "\n".join(
            f"{rule.describe()}  [{rule.support * 100:.0f}%]"
            for rule in self.rules
        )


def summarize_transactions(
    transactions: Sequence[tuple],
    min_support_pct: float = 20.0,
    max_rules: int = 20,
) -> CommunitySummary:
    """Mine and score the rules of one community's transactions.

    Parameters
    ----------
    transactions:
        Encoded 4-tuples (see ``repro.rules.itemsets``).
    min_support_pct:
        Apriori percentage support; the paper fixes it at 20 %.
    max_rules:
        Keep at most this many rules (most specific first) — large
        communities can otherwise produce rule floods.
    """
    if not transactions:
        return CommunitySummary()
    result = apriori(transactions, min_support_pct=min_support_pct)
    # One ranked cut yields both the rules and the itemsets whose
    # coverage is the rule support.
    itemsets = ranked_maximal(result, limit=max_rules)
    if not itemsets:
        return CommunitySummary(n_transactions=len(transactions))
    rules = [
        itemset_to_rule(s.items, count=s.count, support=s.support)
        for s in itemsets
    ]
    degree = sum(rule.degree for rule in rules) / len(rules)
    support = coverage(transactions, itemsets) * 100.0
    return CommunitySummary(
        rules=rules,
        rule_degree=degree,
        rule_support=support,
        n_transactions=len(transactions),
    )
