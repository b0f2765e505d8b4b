"""Feature filters: the predicate language alarms are expressed in.

An alarm (paper Section 2.1) is "a set of traffic features that
designates a particular traffic".  :class:`FeatureFilter` is that set:
any combination of source/destination address, ports, protocol and a
time interval, each optional.  A filter with every field ``None``
matches everything — detectors never emit such alarms, and the
similarity estimator treats the time interval as mandatory.

Filters compose the heterogeneous granularities of the four detectors:

* PCA reports ``FeatureFilter(src=...)``;
* Gamma reports ``FeatureFilter(src=...)`` or ``FeatureFilter(dst=...)``;
* Hough reports explicit flow-key sets (see ``repro.detectors.base``);
* KL reports partial 4-tuples, i.e. any subset of the fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.table import PacketTable

#: The exclusive upper bound of each header field: the width of its
#: packet column (``uint32`` addresses, ``uint16`` ports, ``uint8``
#: protocol).
_FIELD_LIMITS = {
    "src": 1 << 32,
    "dst": 1 << 32,
    "sport": 1 << 16,
    "dport": 1 << 16,
    "proto": 1 << 8,
}


@dataclass(frozen=True)
class FeatureFilter:
    """A partial match over packet header fields and time.

    ``None`` fields are wildcards.  ``t0``/``t1`` bound the half-open
    interval ``[t0, t1)``; both default to unbounded.  Header fields
    must fit their packet columns, or :class:`ValueError` is raised:
    addresses in ``[0, 2**32)``, ports in ``[0, 2**16)``, the protocol
    in ``[0, 2**8)``.
    """

    src: Optional[int] = None
    dst: Optional[int] = None
    sport: Optional[int] = None
    dport: Optional[int] = None
    proto: Optional[int] = None
    t0: Optional[float] = None
    t1: Optional[float] = None

    def __post_init__(self) -> None:
        for field, limit in _FIELD_LIMITS.items():
            value = getattr(self, field)
            if value is not None and not 0 <= value < limit:
                raise ValueError(
                    f"FeatureFilter {field}={value!r} is outside [0, {limit})"
                )

    def matches(self, packet: Packet) -> bool:
        """True if the packet satisfies every non-wildcard field."""
        if self.t0 is not None and packet.time < self.t0:
            return False
        if self.t1 is not None and packet.time >= self.t1:
            return False
        if self.src is not None and packet.src != self.src:
            return False
        if self.dst is not None and packet.dst != self.dst:
            return False
        if self.sport is not None and packet.sport != self.sport:
            return False
        if self.dport is not None and packet.dport != self.dport:
            return False
        if self.proto is not None and packet.proto != self.proto:
            return False
        return True

    def mask(
        self,
        table: "PacketTable",
        t0: Optional[float] = None,
        t1: Optional[float] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`matches` over a whole columnar table.

        Returns a boolean array, one entry per table row, equal
        element-for-element to calling :meth:`matches` on each packet.
        ``t0``/``t1`` override the filter's own (wildcard) time bounds —
        the traffic extractor passes the alarm window here.  The table
        must be time-sorted (every :class:`~repro.net.trace.Trace`
        table is), which turns the window into two binary searches.

        The scalar :meth:`matches` stays the reference implementation;
        a property test asserts both agree.
        """
        n = len(table)
        mask = np.zeros(n, dtype=bool)
        lo_t = self.t0 if self.t0 is not None else t0
        hi_t = self.t1 if self.t1 is not None else t1
        lo = int(np.searchsorted(table.time, lo_t, side="left")) if lo_t is not None else 0
        hi = int(np.searchsorted(table.time, hi_t, side="left")) if hi_t is not None else n
        if hi <= lo:
            return mask
        window = np.ones(hi - lo, dtype=bool)
        for field in ("src", "dst", "sport", "dport", "proto"):
            wanted = getattr(self, field)
            if wanted is not None:
                window &= table.column(field)[lo:hi] == wanted
        mask[lo:hi] = window
        return mask

    @property
    def degree(self) -> int:
        """Number of non-wildcard *feature* fields (time excluded).

        Mirrors the paper's "rule degree": a fully specified 4-tuple has
        degree 4.  The protocol field does not count toward the degree,
        matching the 4-tuple rules of Section 4.1.1.
        """
        return sum(
            1
            for value in (self.src, self.sport, self.dst, self.dport)
            if value is not None
        )

    def describe(self) -> str:
        """Human-readable rendering, e.g. ``<1.2.3.4, 80, *, *>``."""
        from repro.net.addresses import ip_to_str

        src = ip_to_str(self.src) if self.src is not None else "*"
        dst = ip_to_str(self.dst) if self.dst is not None else "*"
        sport = str(self.sport) if self.sport is not None else "*"
        dport = str(self.dport) if self.dport is not None else "*"
        return f"<{src}, {sport}, {dst}, {dport}>"


def match_packet(filters: list[FeatureFilter], packet: Packet) -> bool:
    """True if any filter in the list matches the packet."""
    return any(f.matches(packet) for f in filters)


def match_mask(filters: list[FeatureFilter], table: "PacketTable") -> np.ndarray:
    """Vectorized :func:`match_packet`: OR of every filter's mask."""
    mask = np.zeros(len(table), dtype=bool)
    for feature_filter in filters:
        mask |= feature_filter.mask(table)
    return mask
