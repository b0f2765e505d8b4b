"""Table-1 heuristics: labeling community traffic for evaluation.

The paper evaluates combination strategies without ground truth by
applying simple heuristics to each community's traffic.  They inspect
only TCP flags, ICMP and port numbers — properties independent of the
mechanisms of the four detectors — and assign one of three categories:

=========  =========== ==========================================
Label      Category    Rule
=========  =========== ==========================================
Attack     Sasser      traffic on ports 1023/tcp, 5554/tcp, 9898/tcp
Attack     RPC         traffic on port 135/tcp
Attack     SMB         traffic on port 445/tcp
Attack     Ping        high ICMP traffic
Attack     Other       > 7 packets and SYN|RST|FIN >= 50 %; or
                       http/ftp/ssh/dns traffic with SYN >= 30 %
Attack     NetBIOS     traffic on ports 137/udp or 139/tcp
Special    Http        ports 80/tcp, 8080/tcp with SYN < 30 %
Special    dns,ftp,ssh ports 20/21/22/tcp or 53/tcp&udp, SYN < 30 %
Unknown    Unknown     anything else
=========  =========== ==========================================

"Traffic on port X" is interpreted as: at least ``port_fraction``
(default 50 %) of the community's packets use X as source or
destination port with the right protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro.net.packet import FIN, PROTO_ICMP, PROTO_TCP, PROTO_UDP, RST, SYN, Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.table import PacketTable

CATEGORY_ATTACK = "attack"
CATEGORY_SPECIAL = "special"
CATEGORY_UNKNOWN = "unknown"

_SASSER_PORTS = {1023, 5554, 9898}
_WELL_KNOWN_SERVICE_PORTS = {80, 8080, 20, 21, 22, 53}
_SPECIAL_TCP_PORTS = {20, 21, 22, 53}
_HTTP_PORTS = {80, 8080}


@dataclass(frozen=True)
class HeuristicLabel:
    """Category + detailed label assigned by the Table-1 heuristics."""

    category: str  # attack / special / unknown
    detail: str  # Sasser, RPC, SMB, Ping, Other, NetBIOS, Http, Service, Unknown

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.category}:{self.detail}"


def _port_fraction(
    packets: Sequence[Packet], ports: Iterable[int], proto: int
) -> float:
    """Fraction of packets on any of ``ports`` with protocol ``proto``."""
    if not packets:
        return 0.0
    port_set = set(ports)
    hits = sum(
        1
        for p in packets
        if p.proto == proto and (p.sport in port_set or p.dport in port_set)
    )
    return hits / len(packets)


def _syn_fraction(packets: Sequence[Packet]) -> float:
    tcp = [p for p in packets if p.proto == PROTO_TCP]
    if not tcp:
        return 0.0
    return sum(1 for p in tcp if p.tcp_flags & SYN) / len(tcp)


def _control_fraction(packets: Sequence[Packet]) -> float:
    tcp = [p for p in packets if p.proto == PROTO_TCP]
    if not tcp:
        return 0.0
    return sum(
        1 for p in tcp if p.tcp_flags & (SYN | RST | FIN)
    ) / len(tcp)


def _icmp_fraction(packets: Sequence[Packet]) -> float:
    if not packets:
        return 0.0
    return sum(1 for p in packets if p.proto == PROTO_ICMP) / len(packets)


def label_packets(
    packets: Sequence[Packet],
    port_fraction: float = 0.5,
    icmp_threshold: float = 0.5,
    min_icmp_packets: int = 10,
) -> HeuristicLabel:
    """Apply the Table-1 heuristics to a set of packets.

    Rules are evaluated top-to-bottom in the table's order; the first
    match wins.
    """
    if not packets:
        return HeuristicLabel(CATEGORY_UNKNOWN, "Unknown")

    # Attack: Sasser.
    if _port_fraction(packets, _SASSER_PORTS, PROTO_TCP) >= port_fraction:
        return HeuristicLabel(CATEGORY_ATTACK, "Sasser")
    # Attack: RPC.
    if _port_fraction(packets, {135}, PROTO_TCP) >= port_fraction:
        return HeuristicLabel(CATEGORY_ATTACK, "RPC")
    # Attack: SMB.
    if _port_fraction(packets, {445}, PROTO_TCP) >= port_fraction:
        return HeuristicLabel(CATEGORY_ATTACK, "SMB")
    # Attack: Ping (high ICMP traffic).
    if (
        len(packets) >= min_icmp_packets
        and _icmp_fraction(packets) >= icmp_threshold
    ):
        return HeuristicLabel(CATEGORY_ATTACK, "Ping")

    syn = _syn_fraction(packets)
    service_fraction = _port_fraction(
        packets, _WELL_KNOWN_SERVICE_PORTS, PROTO_TCP
    ) + _port_fraction(packets, {53}, PROTO_UDP)

    # Attack: other attacks.
    if len(packets) > 7 and _control_fraction(packets) >= 0.5:
        return HeuristicLabel(CATEGORY_ATTACK, "Other")
    if service_fraction >= port_fraction and syn >= 0.3:
        return HeuristicLabel(CATEGORY_ATTACK, "Other")

    # Attack: NetBIOS.
    netbios = _port_fraction(packets, {137}, PROTO_UDP) + _port_fraction(
        packets, {139}, PROTO_TCP
    )
    if netbios >= port_fraction:
        return HeuristicLabel(CATEGORY_ATTACK, "NetBIOS")

    # Special: Http.
    if _port_fraction(packets, _HTTP_PORTS, PROTO_TCP) >= port_fraction and syn < 0.3:
        return HeuristicLabel(CATEGORY_SPECIAL, "Http")
    # Special: dns, ftp, ssh.
    special = _port_fraction(packets, _SPECIAL_TCP_PORTS, PROTO_TCP) + _port_fraction(
        packets, {53}, PROTO_UDP
    )
    if special >= port_fraction and syn < 0.3:
        return HeuristicLabel(CATEGORY_SPECIAL, "Service")

    return HeuristicLabel(CATEGORY_UNKNOWN, "Unknown")


#: The port rules of Table 1, one counted column each: (protocol,
#: ports) a packet matches on its source or destination port.
_PORT_RULES = (
    (PROTO_TCP, _SASSER_PORTS),
    (PROTO_TCP, {135}),
    (PROTO_TCP, {445}),
    (PROTO_TCP, _WELL_KNOWN_SERVICE_PORTS),
    (PROTO_UDP, {53}),
    (PROTO_UDP, {137}),
    (PROTO_TCP, {139}),
    (PROTO_TCP, _HTTP_PORTS),
    (PROTO_TCP, _SPECIAL_TCP_PORTS),
)
(
    _SASSER,
    _RPC,
    _SMB,
    _SERVICE_TCP,
    _DNS_UDP,
    _NETBIOS_UDP,
    _NETBIOS_TCP,
    _HTTP,
    _SPECIAL_TCP,
) = range(len(_PORT_RULES))


def _rule_bits(proto: int) -> np.ndarray:
    """Per port, the bit set of the ``proto`` rules it belongs to."""
    bits = np.zeros(1 << 16, dtype=np.uint16)
    for j, (rule_proto, ports) in enumerate(_PORT_RULES):
        if rule_proto == proto:
            bits[sorted(ports)] |= 1 << j
    return bits


#: 65,536-entry port tables: a packet's rule hits are two lookups.
_TCP_BITS = _rule_bits(PROTO_TCP)
_UDP_BITS = _rule_bits(PROTO_UDP)

#: Counted columns: packets, TCP packets, TCP SYN, TCP SYN|RST|FIN,
#: ICMP, then one per port rule.
_PACKETS, _TCP, _SYN, _CONTROL, _ICMP = range(5)
_N_COLUMNS = 5 + len(_PORT_RULES)


def _packet_columns(table: "PacketTable", rows: np.ndarray) -> np.ndarray:
    """The counted columns of some packets, one row each (uint8)."""
    proto = table.proto[rows]
    flags = table.tcp_flags[rows]
    is_tcp = proto == PROTO_TCP
    is_udp = proto == PROTO_UDP
    sport = table.sport[rows]
    dport = table.dport[rows]
    hits = np.where(
        is_tcp,
        _TCP_BITS[sport] | _TCP_BITS[dport],
        np.where(is_udp, _UDP_BITS[sport] | _UDP_BITS[dport], 0),
    )
    columns = np.empty((len(rows), _N_COLUMNS), dtype=np.uint8)
    columns[:, _PACKETS] = 1
    columns[:, _TCP] = is_tcp
    columns[:, _SYN] = is_tcp & ((flags & SYN) > 0)
    columns[:, _CONTROL] = is_tcp & ((flags & (SYN | RST | FIN)) > 0)
    columns[:, _ICMP] = proto == PROTO_ICMP
    for j in range(len(_PORT_RULES)):
        columns[:, 5 + j] = (hits >> j) & 1
    return columns


def _segment_sums(
    values: np.ndarray, sizes: np.ndarray, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """Column sums of consecutive segments of ``sizes`` rows (int64).

    The segments run over ``values[rows]`` (all of ``values`` when
    ``rows`` is ``None``), gathered one column at a time so that no
    gathered copy of the whole matrix is ever held.
    """
    sums = np.zeros((len(sizes), values.shape[1]), dtype=np.int64)
    nonempty = sizes > 0
    if nonempty.any():
        starts = (np.cumsum(sizes) - sizes)[nonempty]
        for j in range(values.shape[1]):
            column = values[:, j] if rows is None else values[rows, j]
            sums[nonempty, j] = np.add.reduceat(column, starts, dtype=np.int64)
    return sums


#: The labels of the cascade in :func:`label_code_sets`, by index.
_CASCADE_LABELS = (
    HeuristicLabel(CATEGORY_UNKNOWN, "Unknown"),
    HeuristicLabel(CATEGORY_ATTACK, "Sasser"),
    HeuristicLabel(CATEGORY_ATTACK, "RPC"),
    HeuristicLabel(CATEGORY_ATTACK, "SMB"),
    HeuristicLabel(CATEGORY_ATTACK, "Ping"),
    HeuristicLabel(CATEGORY_ATTACK, "Other"),
    HeuristicLabel(CATEGORY_ATTACK, "NetBIOS"),
    HeuristicLabel(CATEGORY_SPECIAL, "Http"),
    HeuristicLabel(CATEGORY_SPECIAL, "Service"),
)


def label_code_sets(
    trace,
    granularity,
    code_sets: Sequence[np.ndarray],
    port_fraction: float = 0.5,
    icmp_threshold: float = 0.5,
    min_icmp_packets: int = 10,
) -> list[HeuristicLabel]:
    """Vectorized :func:`label_packets` for many communities at once.

    ``code_sets`` holds each community's traffic as sorted unique
    codes: packet rows at packet granularity, otherwise flow codes of
    ``trace.flow_table(granularity)``.  Communities may share flows.
    The counted columns are summed per flow over the flow table's code
    -> rows index, gathered per community member and summed per
    community with ``np.add.reduceat``.  The Table-1 cascade then
    runs over all communities at once, with the same integer-count
    divisions and float sums as the reference, so both paths assign
    identical labels.
    """
    from repro.net.flow import Granularity

    table = trace.table
    sizes = np.fromiter(map(len, code_sets), np.int64, len(code_sets))
    members = (
        np.concatenate(code_sets).astype(np.int64, copy=False)
        if sizes.sum()
        else np.empty(0, dtype=np.int64)
    )
    needed, member_of = np.unique(members, return_inverse=True)
    if granularity is Granularity.PACKET:
        per_code = _packet_columns(table, needed)
    else:
        flows = trace.flow_table(granularity)
        per_code = _segment_sums(
            _packet_columns(table, flows.rows_of(needed)),
            flows.offsets[needed + 1] - flows.offsets[needed],
        )
    counts = _segment_sums(per_code, sizes, member_of)

    def fraction(column: int, total: np.ndarray) -> np.ndarray:
        out = np.zeros(len(total))
        return np.divide(counts[:, column], total, out=out, where=total > 0)

    n = counts[:, _PACKETS]
    n_tcp = counts[:, _TCP]
    rule = [fraction(5 + j, n) for j in range(len(_PORT_RULES))]
    syn = fraction(_SYN, n_tcp)
    control = fraction(_CONTROL, n_tcp)
    icmp = fraction(_ICMP, n)
    service = rule[_SERVICE_TCP] + rule[_DNS_UDP]
    choice = np.select(
        [
            n == 0,
            rule[_SASSER] >= port_fraction,
            rule[_RPC] >= port_fraction,
            rule[_SMB] >= port_fraction,
            (n >= min_icmp_packets) & (icmp >= icmp_threshold),
            ((n > 7) & (control >= 0.5))
            | ((service >= port_fraction) & (syn >= 0.3)),
            rule[_NETBIOS_UDP] + rule[_NETBIOS_TCP] >= port_fraction,
            (rule[_HTTP] >= port_fraction) & (syn < 0.3),
            (rule[_SPECIAL_TCP] + rule[_DNS_UDP] >= port_fraction)
            & (syn < 0.3),
        ],
        np.arange(len(_CASCADE_LABELS)),
        default=0,
    )
    return [_CASCADE_LABELS[c] for c in choice.tolist()]


def label_communities(communities, extractor) -> list[HeuristicLabel]:
    """Label every community of one run via its extracted traffic.

    One call of the extractor engine's ``"community_label"`` kernel
    labels them all: the columnar kernel through
    :func:`label_code_sets` without materializing packet objects, the
    reference kernel through :func:`label_packets` per community.

    Parameters
    ----------
    communities:
        :class:`~repro.core.community.Community` objects.
    extractor:
        The :class:`~repro.core.extractor.TrafficExtractor` of the
        estimator run (needed to expand the traffic back to packets).
    """
    from repro.engine import resolve_engine

    engine = resolve_engine(
        getattr(extractor, "engine", "python"), what="heuristics"
    )
    return engine.kernel("community_label")(extractor, list(communities))


def label_community(community, extractor) -> HeuristicLabel:
    """Label one community: :func:`label_communities` of one."""
    return label_communities([community], extractor)[0]
