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

import numpy as np

from repro.engine import EngineSpec, resolve_engine
from repro.rules.itemsets import Rule, itemset_to_rule


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
    block,
    min_support_pct: float = 20.0,
    max_rules: int = 20,
    engine: EngineSpec = "auto",
) -> CommunitySummary:
    """Mine and score the rules of one community's traffic.

    Parameters
    ----------
    block:
        The community's packets or flows as an ``(n, 4)`` integer block
        (see ``repro.rules.itemsets``).
    min_support_pct:
        Apriori percentage support; the paper fixes it at 20 %.
    max_rules:
        Keep at most this many rules (most specific first) — large
        communities can otherwise produce rule floods.
    engine:
        Engine whose ``"maximal_itemsets"`` kernel mines the rules and
        counts the rows they cover, the rule support.
    """
    engine = resolve_engine(engine, what="rule miner")
    block = np.asarray(block, dtype=np.int64).reshape(-1, 4)
    n = len(block)
    if n == 0:
        return CommunitySummary()
    itemsets, covered = engine.kernel("maximal_itemsets")(
        block, min_support_pct, max_rules
    )
    if not itemsets:
        return CommunitySummary(n_transactions=n)
    rules = [
        itemset_to_rule(s.items, count=s.count, support=s.support)
        for s in itemsets
    ]
    degree = sum(rule.degree for rule in rules) / len(rules)
    return CommunitySummary(
        rules=rules,
        rule_degree=degree,
        rule_support=covered / n * 100.0,
        n_transactions=n,
    )
