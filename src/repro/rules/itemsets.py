"""Encoding traffic for the rule miners, and itemsets as 4-tuple rules.

The miners read a *block*: an ``(n, 4)`` int64 array with one row per
packet or flow and the columns source address, source port,
destination address, destination port (:data:`FIELDS` order).  This is
exactly the rule space of the paper's Section 4.1.1 (protocol is not
part of the rule degree).  The reference Apriori reads the same rows as
transactions of ``(field, value)`` items, so that it can mix fields
freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.net.flow import FlowKey, Granularity

# Field order defines the canonical 4-tuple rendering <src, sport, dst, dport>.
FIELDS = ("src", "sport", "dst", "dport")


def packet_block(table, rows=None) -> np.ndarray:
    """The block of a :class:`~repro.net.table.PacketTable`'s rows.

    ``rows`` is an index array (all rows when ``None``); the block keeps
    its order.
    """
    columns = [table.column(field) for field in FIELDS]
    if rows is not None:
        columns = [column[rows] for column in columns]
    block = np.empty((len(columns[0]), len(FIELDS)), dtype=np.int64)
    for j, column in enumerate(columns):
        block[:, j] = column
    return block


def flow_block(flows: Iterable[FlowKey]) -> np.ndarray:
    """The block of some flow keys, one row per key."""
    keys = np.array(list(flows), dtype=np.int64).reshape(-1, 5)
    return np.ascontiguousarray(keys[:, : len(FIELDS)])


def code_block(codes, granularity: Granularity, trace) -> np.ndarray:
    """The block of a code array (e.g. a community's traffic).

    At packet granularity ``codes`` are rows of ``trace``; otherwise
    they are flow codes, and the block gathers the flow table's key
    columns.
    """
    if granularity is Granularity.PACKET:
        return packet_block(trace.table, codes)
    return trace.flow_table(granularity).key_columns[codes, : len(FIELDS)]


def transactions_from_block(block) -> list[tuple]:
    """One ``((field, value), ...)`` transaction per block row."""
    return [tuple(zip(FIELDS, row)) for row in np.asarray(block).tolist()]


@dataclass(frozen=True)
class Rule:
    """A (possibly partial) 4-tuple rule with its support.

    ``None`` fields are wildcards, rendered ``*``.  The *degree* is the
    number of specified fields, matching the paper's rule degree in
    [0, 4].
    """

    src: Optional[int] = None
    sport: Optional[int] = None
    dst: Optional[int] = None
    dport: Optional[int] = None
    support: float = 0.0
    count: int = 0

    @property
    def degree(self) -> int:
        return sum(
            1
            for v in (self.src, self.sport, self.dst, self.dport)
            if v is not None
        )

    def describe(self) -> str:
        """Render as ``<srcIP, sport, dstIP, dport>`` with ``*`` wildcards."""
        from repro.net.addresses import ip_to_str

        src = ip_to_str(self.src) if self.src is not None else "*"
        dst = ip_to_str(self.dst) if self.dst is not None else "*"
        sport = str(self.sport) if self.sport is not None else "*"
        dport = str(self.dport) if self.dport is not None else "*"
        return f"<{src}, {sport}, {dst}, {dport}>"

    def to_filter(self, t0: Optional[float] = None, t1: Optional[float] = None):
        """Convert to a :class:`~repro.net.filters.FeatureFilter`."""
        from repro.net.filters import FeatureFilter

        return FeatureFilter(
            src=self.src,
            sport=self.sport,
            dst=self.dst,
            dport=self.dport,
            t0=t0,
            t1=t1,
        )


def itemset_to_rule(items: frozenset, count: int = 0, support: float = 0.0) -> Rule:
    """Convert an Apriori itemset of ``(field, value)`` items to a Rule."""
    values = {field: None for field in FIELDS}
    for field, value in items:
        if field not in values:
            raise ValueError(f"unknown rule field {field!r}")
        values[field] = value
    return Rule(
        src=values["src"],
        sport=values["sport"],
        dst=values["dst"],
        dport=values["dport"],
        support=support,
        count=count,
    )


def _rendered_order(items: frozenset) -> tuple:
    """An itemset's ``<src, sport, dst, dport>`` values, wildcards -1."""
    values = dict(items)
    return tuple(values.get(field, -1) for field in FIELDS)


def ranked_maximal(result, limit: Optional[int] = None) -> list:
    """Maximal itemsets of an :class:`AprioriResult`, in rule order.

    Most specific first, then most supported; the rendered 4-tuple
    (wildcards first) breaks the remaining ties, so the order — and
    which itemsets ``limit`` keeps — is the same in every process.
    """
    itemsets = sorted(
        result.maximal(),
        key=lambda s: (-len(s.items), -s.support, _rendered_order(s.items)),
    )
    return itemsets if limit is None else itemsets[:limit]
