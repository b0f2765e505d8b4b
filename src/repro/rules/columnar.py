"""Ranked maximal 4-tuple itemsets of a block, mined from its distinct rows.

The numpy engine's ``"maximal_itemsets"`` kernel:
``ranked_maximal(apriori(transactions_from_block(block), s), limit)``
and the number of rows those itemsets cover, for the one shape this
package mines — a block (see :mod:`repro.rules.itemsets`) whose rows
hold one 32-bit value per field.  An itemset is then a set of fields
with one value each, and its count is the number of rows carrying
those values, so :func:`maximal_itemsets` works on the block's
distinct rows instead of growing candidates level by level.  Each
step is exact:

1. Values seen fewer times than the minimum count
   (:func:`~repro.rules.apriori.min_support_count`) become a wildcard
   (``None``).  No frequent itemset holds such a value, so no frequent
   count changes.
2. Identical coded rows are grouped with their multiplicities.  There
   are few: blocks of 64 rows or more have 1-9 distinct coded rows on
   the benchmark's stream pass.
3. Each distinct row adds its multiplicity to every subset of its
   frequent fields (at most 15): every frequent itemset, with its
   exact count.
4. An itemset is maximal unless it is the one-field-shorter projection
   of another frequent itemset: a larger frequent superset has a
   frequent superset exactly one field larger (support is monotone).
5. The maximal itemsets sort by (-size, -count, the rendered
   ``<src, sport, dst, dport>`` tuple with -1 for wildcards), which is
   :func:`~repro.rules.itemsets.ranked_maximal`'s order, so cutting at
   ``limit`` keeps the same itemsets.
6. The covered rows are the multiplicities of the distinct rows that
   match a kept itemset.
7. At a minimum count of 1 every value is frequent and every row is a
   frequent 4-tuple, so the maximal itemsets are the distinct rows and
   their counts are the multiplicities.

Steps 1-2 code the rows with NumPy and steps 3-7 run in plain Python
over the distinct rows.  A rule's matches in another block are one
equality mask per field (:func:`itemset_mask`).
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations
from operator import itemgetter
from typing import Optional

import numpy as np

from repro.rules.apriori import FrequentItemset, min_support_count
from repro.rules.itemsets import FIELDS

_WIDTH = len(FIELDS)
_FIELD_INDEX = {field: j for j, field in enumerate(FIELDS)}


def _projector(fields) -> itemgetter:
    """A distinct row's projection onto ``fields``.

    Rows and itemset keys are ``(src, sport, dst, dport, None)``
    tuples; a field outside ``fields`` reads the trailing ``None``.
    """
    return itemgetter(
        *(j if j in fields else _WIDTH for j in range(_WIDTH)), _WIDTH
    )


#: By the bit mask of a row's frequent fields: a projector onto each
#: non-empty subset of them, with that subset's mask.
_SUBSETS = tuple(
    tuple(
        (sum(1 << j for j in subset), _projector(subset))
        for size in range(1, _WIDTH + 1)
        for subset in combinations(
            [j for j in range(_WIDTH) if mask >> j & 1], size
        )
    )
    for mask in range(1 << _WIDTH)
)

#: By the bit mask of an itemset's fields: a projector onto each of
#: its one-field-shorter subsets (none for single fields: the empty
#: itemset is never counted).
_SHORTER = tuple(
    tuple(
        _projector([j for j in range(_WIDTH) if mask >> j & 1 and j != drop])
        for drop in range(_WIDTH)
        if mask >> drop & 1
    )
    if mask & (mask - 1)
    else ()
    for mask in range(1 << _WIDTH)
)

#: Field ``j``'s values are tagged with ``j`` above their 32 bits, so
#: one sort counts all four fields.
_FIELD_TAGS = np.arange(_WIDTH, dtype=np.int64) << 32


def maximal_itemsets(
    block, min_support_pct: float = 20.0, limit: Optional[int] = None
) -> tuple[list[FrequentItemset], int]:
    """Ranked maximal frequent itemsets of a block, and the rows they cover.

    ``(itemsets, covered)``: ``itemsets`` equals
    ``ranked_maximal(apriori(transactions_from_block(block),
    min_support_pct), limit)`` — the same itemsets, counts, supports
    and order — and ``covered`` is the number of rows that at least
    one of them matches.  Raises
    :class:`~repro.errors.RuleMiningError` for a support outside
    (0, 100], like Apriori.
    """
    block = np.asarray(block, dtype=np.int64)
    n = len(block)
    min_count = min_support_count(n, min_support_pct, _WIDTH)
    if n == 0:
        return [], 0
    return _rank(_distinct_rows(block, min_count), n, min_count, limit)


def _distinct_rows(block: np.ndarray, min_count: int) -> Counter:
    """Steps 1-2: ``{row: multiplicity}``."""
    n = len(block)
    tagged = block | _FIELD_TAGS
    ordered = np.sort(tagged, axis=None)
    # A value is frequent when the copy min_count - 1 places after its
    # first one in sorted order is the same value.
    reach = n * _WIDTH - (min_count - 1)
    frequent = ordered[:reach][ordered[:reach] == ordered[min_count - 1 :]]
    if not len(frequent):
        return Counter({(None,) * (_WIDTH + 1): n})
    frequent = frequent[
        np.concatenate(([True], frequent[1:] != frequent[:-1]))
    ]
    # Field j's frequent values take codes 0..m_j-1 and its other
    # values share the wildcard code m_j.
    offsets = np.searchsorted(frequent, _FIELD_TAGS)
    wildcard = np.diff(np.append(offsets, len(frequent)))
    index = np.searchsorted(frequent, tagged)
    padded = np.append(frequent, -1)
    codes = np.where(padded[index] == tagged, index - offsets, wildcard)
    radix = (wildcard + 1).tolist()
    if math.prod(radix) < 1 << 63:
        weights = np.array(
            [math.prod(radix[j + 1 :]) for j in range(_WIDTH)], dtype=np.int64
        )
        keys = np.sort(codes @ weights)
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        distinct = keys[starts, None] // weights % np.array(radix)
    else:
        # The packed key would overflow int64: group by a sort on the
        # code columns instead.
        codes = codes[np.lexsort(codes.T[::-1])]
        starts = np.flatnonzero(
            np.concatenate(([True], (codes[1:] != codes[:-1]).any(axis=1)))
        )
        distinct = codes[starts]
    multiplicity = np.diff(np.append(starts, n)).tolist()
    values = (padded[distinct + offsets] & 0xFFFFFFFF).tolist()
    wild = (distinct == wildcard).tolist()
    return Counter(
        {
            (*(None if w else v for v, w in zip(row, wild_row)), None): m
            for row, wild_row, m in zip(values, wild, multiplicity)
        }
    )


def _rank(
    rows: Counter, n: int, min_count: int, limit: Optional[int]
) -> tuple[list[FrequentItemset], int]:
    """Steps 3-7 over the distinct coded rows ``{row: multiplicity}``."""
    if min_count == 1:
        # Step 7: every row is a frequent 4-tuple, so the distinct rows
        # are the maximal itemsets (and no two of them tie).  Steps 3-6
        # give the same result from 15 subsets a distinct row: on the
        # 153 of the archive phase's 332 Step 4 blocks that take this
        # branch they took 23-24 ms against 12-13 ms, and on 56,004
        # rows of 56,000 distinct values a field 2.8 s and 334 MB
        # against 0.3 s and 80 MB (one pinned CPU of a 2-vCPU VM).
        found = sorted(rows.items(), key=lambda rm: (-rm[1], rm[0]))[:limit]
        covered = sum(m for _row, m in found)
    else:
        # Step 3: the count of every subset of each row's frequent
        # fields, by the subset's field mask.
        counts: list[dict] = [{} for _ in _SUBSETS]
        projections = []
        for row, m in rows.items():
            mask = sum(1 << j for j in range(_WIDTH) if row[j] is not None)
            keys = []
            for subset, project in _SUBSETS[mask]:
                key = project(row)
                table = counts[subset]
                table[key] = table.get(key, 0) + m
                keys.append(key)
            projections.append((keys, m))
        # Step 4: a frequent itemset is maximal unless it is the
        # one-field-shorter projection of another.
        frequent = [
            (mask, key, count)
            for mask, table in enumerate(counts)
            for key, count in table.items()
            if count >= min_count
        ]
        shadowed = {
            project(key)
            for mask, key, _count in frequent
            for project in _SHORTER[mask]
        }
        # Step 5: rank, then cut.
        found = sorted(
            ((key, count) for _mask, key, count in frequent if key not in shadowed),
            key=_rank_key,
        )[:limit]
        # Step 6: the rows that carry a kept itemset.
        kept = {key for key, _count in found}
        covered = sum(m for keys, m in projections if not kept.isdisjoint(keys))
    itemsets = [
        FrequentItemset(
            items=frozenset(
                item for item in zip(FIELDS, key) if item[1] is not None
            ),
            count=count,
            support=count / n,
        )
        for key, count in found
    ]
    return itemsets, covered


def _rank_key(found: tuple) -> tuple:
    """(-size, -count, the ``<src, sport, dst, dport>`` values with -1
    for wildcards): :func:`~repro.rules.itemsets.ranked_maximal`'s
    order."""
    key, count = found
    values = key[:_WIDTH]
    return (
        values.count(None) - _WIDTH,
        -count,
        tuple(-1 if value is None else value for value in values),
    )


def itemset_mask(block, items) -> np.ndarray:
    """Rows of ``block`` that carry every ``(field, value)`` item."""
    mask = np.ones(len(block), dtype=bool)
    for field, value in items:
        mask &= block[:, _FIELD_INDEX[field]] == value
    return mask
