"""Modified Apriori frequent-itemset mining.

Classic Apriori (Agrawal & Srikant, VLDB'94) with one change from the
paper (Section 4.1.1): the support threshold ``s`` is expressed as a
percentage of the number of transactions, e.g. ``s=20`` keeps itemsets
describing at least 20 % of the data.

Transactions are iterables of hashable *items*; in this package an item
is a ``(field, value)`` pair such as ``("dport", 80)``.  The miner is
generic, though — nothing below knows about packets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Iterable, Sequence

from repro.errors import RuleMiningError

Item = Hashable


@dataclass(frozen=True)
class FrequentItemset:
    """One frequent itemset with its absolute and relative support."""

    items: frozenset
    count: int
    support: float  # fraction of transactions, in [0, 1]

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class AprioriResult:
    """All frequent itemsets found for one transaction set."""

    itemsets: list[FrequentItemset]
    n_transactions: int

    def maximal(self) -> list[FrequentItemset]:
        """Maximal frequent itemsets (not a subset of a larger one).

        These are "the rules" of a community in the paper's sense: the
        most specific descriptions that still meet the support
        threshold.  Using maximal sets avoids counting every trivial
        sub-rule when computing the rule degree.
        """
        by_size = sorted(self.itemsets, key=len, reverse=True)
        maximal: list[FrequentItemset] = []
        for candidate in by_size:
            if not any(candidate.items < kept.items for kept in maximal):
                maximal.append(candidate)
        return maximal

    def of_size(self, k: int) -> list[FrequentItemset]:
        return [s for s in self.itemsets if len(s) == k]


def apriori(
    transactions: Sequence[Iterable[Item]],
    min_support_pct: float = 20.0,
    max_size: int = 4,
) -> AprioriResult:
    """Mine frequent itemsets with percentage support.

    Parameters
    ----------
    transactions:
        Sequence of item iterables.  Items within one transaction are
        deduplicated.
    min_support_pct:
        Minimum support as a percentage in (0, 100].  The paper tunes
        this to 20 %.
    max_size:
        Largest itemset size to mine; community rules are 4-tuples, so
        the default is 4.

    Returns
    -------
    AprioriResult
        Every frequent itemset of size 1..max_size.

    Raises
    ------
    RuleMiningError
        If the support threshold or ``max_size`` is out of range.
    """
    sets = [frozenset(t) for t in transactions]
    n = len(sets)
    min_count = min_support_count(n, min_support_pct, max_size)
    if n == 0:
        return AprioriResult(itemsets=[], n_transactions=0)

    # Size-1 pass.
    counts: Counter = Counter()
    for t in sets:
        counts.update(t)
    frequent: dict[frozenset, int] = {
        frozenset([item]): c for item, c in counts.items() if c >= min_count
    }
    all_frequent = dict(frequent)
    current = list(frequent)

    size = 1
    while current and size < max_size:
        size += 1
        candidates = _generate_candidates(current, size)
        if not candidates:
            break
        candidate_counts: Counter = Counter()
        for t in sets:
            if len(t) < size:
                continue
            for candidate in candidates:
                if candidate <= t:
                    candidate_counts[candidate] += 1
        current = [
            c for c, count in candidate_counts.items() if count >= min_count
        ]
        for c in current:
            all_frequent[c] = candidate_counts[c]

    return ordered_result(all_frequent.items(), n)


def min_support_count(
    n_transactions: int, min_support_pct: float, max_size: int
) -> int:
    """Check the mining parameters; the smallest frequent count.

    Every miner calls this first.  The count is the smallest ``c`` with
    ``c / n >= min_support_pct / 100``, computed exactly: at 20.1 % of
    5 transactions an itemset needs 2 of them, not 1.
    """
    if not 0.0 < min_support_pct <= 100.0:
        raise RuleMiningError(
            f"min_support_pct must be in (0, 100], got {min_support_pct}"
        )
    if max_size < 1:
        raise RuleMiningError(f"max_size must be at least 1, got {max_size}")
    numerator, denominator = float(min_support_pct).as_integer_ratio()
    return max(1, -(-numerator * n_transactions // (100 * denominator)))


def ordered_result(counts: Iterable, n: int) -> AprioriResult:
    """An :class:`AprioriResult` from ``(items, count)`` pairs.

    Largest itemsets first, then the most frequent; the sorted items
    break the remaining ties, so the order does not depend on the
    order the pairs come in (string hashing changes that from one
    process to the next).
    """
    itemsets = [
        FrequentItemset(items=items, count=count, support=count / n)
        for items, count in counts
    ]
    itemsets.sort(key=lambda s: (-len(s.items), -s.count, sorted(s.items)))
    return AprioriResult(itemsets=itemsets, n_transactions=n)


def _generate_candidates(previous: list[frozenset], size: int) -> set[frozenset]:
    """Join step: merge (size-1)-itemsets sharing (size-2) items.

    Includes the prune step — every (size-1)-subset of a candidate must
    itself be frequent.
    """
    previous_set = set(previous)
    candidates: set[frozenset] = set()
    for a, b in combinations(previous, 2):
        union = a | b
        if len(union) != size:
            continue
        if union in candidates:
            continue
        if all(
            frozenset(sub) in previous_set
            for sub in combinations(union, size - 1)
        ):
            candidates.add(union)
    return candidates


def coverage(
    transactions: Sequence[Iterable[Item]],
    itemsets: Sequence[FrequentItemset],
) -> float:
    """Fraction of transactions matched by at least one itemset.

    This is the paper's *rule support* of a community: the percentage
    of its traffic covered by the union of its rules.
    """
    if not transactions:
        return 0.0
    return covered_count(transactions, itemsets) / len(transactions)


def covered_count(
    transactions: Sequence[Iterable[Item]],
    itemsets: Sequence[FrequentItemset],
) -> int:
    """Number of transactions matched by at least one itemset."""
    rule_items = [s.items for s in itemsets]
    return sum(
        1
        for t in map(frozenset, transactions)
        if any(items <= t for items in rule_items)
    )
