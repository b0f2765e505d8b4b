"""Lexsort flow grouping: the reference for :class:`~repro.net.table.FlowTable`.

This is how :class:`~repro.net.table.FlowTable` grouped a table's
flows before it sorted by 16-bit radix passes: each 5-tuple packed into
two ``uint64`` words, ordered by one ``np.lexsort``.  ``tests/test_table.py``
compares every array the table builds against it.
"""

from __future__ import annotations

import numpy as np

from repro.net.flow import Granularity
from repro.net.table import _pack, _packed_keys


def lexsort_flow_table(table, granularity: Granularity) -> dict:
    """Every array of the flow table of ``table`` at ``granularity``.

    ``table`` needs only the ``src``, ``dst``, ``sport``, ``dport`` and
    ``proto`` columns.  Keys are ``FlowTable``'s attribute names.
    """
    n = len(table.src)
    src, dst = table.src, table.dst
    sport, dport = table.sport, table.dport
    if granularity is Granularity.BIFLOW:
        forward = (src.astype(np.uint64) << np.uint64(16)) | sport
        backward = (dst.astype(np.uint64) << np.uint64(16)) | dport
        swap = forward > backward
        src, dst = np.where(swap, dst, src), np.where(swap, src, dst)
        sport, dport = (
            np.where(swap, dport, sport),
            np.where(swap, sport, dport),
        )
    high, low = _pack(src, sport, dst, dport, table.proto)
    order = np.lexsort((low, high))
    high, low = high[order], low[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (high[1:] != high[:-1]) | (low[1:] != low[:-1])
    group_start = np.flatnonzero(starts)
    first = np.zeros(n, dtype=bool)
    first[order[group_start]] = True
    group_code = (np.cumsum(first) - 1)[order[group_start]]
    codes = np.empty(n, dtype=np.int64)
    codes[order] = np.repeat(group_code, np.diff(np.append(group_start, n)))
    first_row = np.flatnonzero(first)
    n_flows = len(group_start)
    group_of = np.empty(n_flows, dtype=np.int64)
    group_of[group_code] = np.arange(n_flows)
    sizes = np.diff(np.append(group_start, n))[group_of]
    offsets = np.zeros(n_flows + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    rows = order[
        np.repeat(group_start[group_of] - offsets[:-1], sizes)
        + np.arange(n, dtype=np.int64)
    ]
    key_columns = np.empty((n_flows, 5), dtype=np.int64)
    for j, column in enumerate((src, sport, dst, dport, table.proto)):
        key_columns[:, j] = column[first_row]
    return {
        "codes": codes,
        "first_row": first_row,
        "rows": rows,
        "offsets": offsets,
        "key_columns": key_columns,
        "_sorted_keys": _packed_keys(high[group_start], low[group_start]),
        "_sorted_codes": group_code,
    }
