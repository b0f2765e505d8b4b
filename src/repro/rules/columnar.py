"""Frequent 4-tuple itemsets and rule matches over an integer block.

The columnar twin of :func:`~repro.rules.apriori.apriori` for the one
shape this package mines: a block (see :mod:`repro.rules.itemsets`)
whose rows hold one value per field.  An itemset is then a set of
fields with one value each, so instead of growing candidates level by
level, :func:`mine_block` counts every field subset of every row at
once:

1. one sort codes each field's values; only values frequent on their
   own can be part of a frequent itemset, so each field's frequent
   values get codes ``0..m-1`` and all its other values share code
   ``m``;
2. one ``(n, 4) @ (4, k)`` product packs each row's codes into one
   integer key per field subset (at most 15 of them);
3. one sort counts the keys.  Keys with a count at or above the
   threshold and no shared "other" code are exactly the frequent
   itemsets Apriori finds, with the same counts.

The result is the same :class:`~repro.rules.apriori.AprioriResult` —
itemsets, counts, supports and order.  A rule's matches are one
equality mask per field (:func:`itemset_mask`).
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from repro.rules.apriori import (
    AprioriResult,
    FrequentItemset,
    apriori,
    coverage,
    min_support_count,
    ordered_result,
)
from repro.rules.itemsets import FIELDS, transactions_from_block

#: Blocks with fewer rows go to the reference miner and coverage: the
#: columnar path costs a fixed ~140 us of NumPy calls.  Measured on a
#: 2-vCPU VM (Python 3.11.7, NumPy 2.4.6) over the 332 Step 4
#: communities of the benchmark's 12 archive days (median 8 flows, a
#: quarter of them 1, two thirds under 32): mining plus rule support
#: took 64-113 us with Apriori against 131-207 us columnar at 1-24
#: rows, the two were within 30% either way at 24-48 rows, and the
#: columnar path won 1.7x at 64 rows, 2.6x at 128 and 6.3x at 512.
SMALL_BLOCK = 32

_FIELD_INDEX = {field: j for j, field in enumerate(FIELDS)}

#: Every non-empty field subset, smallest first.
_SUBSETS = tuple(
    subset
    for size in range(1, len(FIELDS) + 1)
    for subset in combinations(range(len(FIELDS)), size)
)

#: Field ``j``'s values are tagged with ``j`` above their 32 bits, so
#: one sort codes all four fields.
_FIELD_TAGS = np.arange(len(FIELDS), dtype=np.int64) << 32


def frequent_itemsets(
    block, min_support_pct: float = 20.0, max_size: int = 4
) -> AprioriResult:
    """The numpy engine's ``"frequent_itemsets"`` kernel.

    :func:`mine_block`, except that blocks under :data:`SMALL_BLOCK`
    rows go to :func:`~repro.rules.apriori.apriori`.
    """
    if len(block) < SMALL_BLOCK:
        return apriori(transactions_from_block(block), min_support_pct, max_size)
    return mine_block(block, min_support_pct, max_size)


def mine_block(
    block, min_support_pct: float = 20.0, max_size: int = 4
) -> AprioriResult:
    """Every frequent itemset of an ``(n, 4)`` block of 32-bit values.

    Same parameters, errors and result as
    :func:`~repro.rules.apriori.apriori` over
    :func:`~repro.rules.itemsets.transactions_from_block`.
    """
    block = np.asarray(block, dtype=np.int64)
    n = len(block)
    min_count = min_support_count(n, min_support_pct, max_size)
    if n == 0:
        return AprioriResult(itemsets=[], n_transactions=0)
    items, inverse, counts = np.unique(
        (block | _FIELD_TAGS).ravel(), return_inverse=True, return_counts=True
    )
    field = items >> 32
    frequent = counts >= min_count
    values = (items[frequent] & 0xFFFFFFFF).tolist()
    n_frequent = np.bincount(field[frequent], minlength=len(FIELDS))
    offsets = np.concatenate(([0], np.cumsum(n_frequent)[:-1]))
    code = np.cumsum(frequent) - 1 - offsets[field]
    offsets = offsets.tolist()
    code[~frequent] = n_frequent[field[~frequent]]
    codes = code[inverse].reshape(n, len(FIELDS))

    subsets = [
        subset
        for subset in _SUBSETS
        if len(subset) <= max_size and all(n_frequent[j] for j in subset)
    ]
    if not subsets:
        return AprioriResult(itemsets=[], n_transactions=n)
    radix = [int(m) + 1 for m in n_frequent]
    span = math.prod(radix)
    if span * len(subsets) >= 1 << 63:
        # Too many frequent values for int64 keys (a support far below
        # 1 % of a large block): fall back to the reference miner.
        return apriori(transactions_from_block(block), min_support_pct, max_size)
    weights = np.array([math.prod(radix[:j]) for j in range(len(FIELDS))])
    members = np.zeros((len(FIELDS), len(subsets)), dtype=np.int64)
    for s, subset in enumerate(subsets):
        members[list(subset), s] = 1
    keys = codes @ (members * weights[:, None])
    keys += np.arange(len(subsets), dtype=np.int64) * span
    keys, key_counts = np.unique(keys, return_counts=True)
    kept = key_counts >= min_count
    keys, key_counts = keys[kept], key_counts[kept]

    digits = (keys % span)[:, None] // weights % np.array(radix)
    subset_of = keys // span
    found = []
    for s, row, count in zip(
        subset_of.tolist(), digits.tolist(), key_counts.tolist()
    ):
        fields = subsets[s]
        # A digit equal to the field's radix - 1 is the shared code of
        # its infrequent values: not an itemset.
        if any(row[j] == radix[j] - 1 for j in fields):
            continue
        found.append(
            (
                frozenset(
                    (FIELDS[j], values[offsets[j] + row[j]]) for j in fields
                ),
                count,
            )
        )
    return ordered_result(found, n)


def itemset_mask(block, items) -> np.ndarray:
    """Rows of ``block`` that carry every ``(field, value)`` item."""
    mask = np.ones(len(block), dtype=bool)
    for field, value in items:
        mask &= block[:, _FIELD_INDEX[field]] == value
    return mask


def block_coverage(block, itemsets: list[FrequentItemset]) -> float:
    """Fraction of ``block``'s rows matched by at least one itemset.

    :func:`~repro.rules.apriori.coverage` over the block's
    transactions: the paper's rule support, as one mask per rule.
    """
    n = len(block)
    if n < SMALL_BLOCK:
        return coverage(transactions_from_block(block), itemsets)
    covered = np.zeros(n, dtype=bool)
    for itemset in itemsets:
        covered |= itemset_mask(block, itemset.items)
    return int(np.count_nonzero(covered)) / n
