"""Similarity-graph construction (paper Section 2.1.2).

Nodes are alarms; an edge connects two alarms whose associated traffic
intersects, weighted by a similarity measure.  Construction uses an
inverted index (traffic element -> alarms containing it), so the cost
is proportional to the co-occurrence structure rather than to the
number of alarm pairs.

Two interchangeable kernels implement the co-occurrence counting,
registered per engine under the ``"similarity_graph"`` operation:

* the ``numpy`` engine's kernel (default for named measures) —
  co-occurring alarm pairs are generated with array indexing,
  intersection sizes come from one ``np.unique`` over encoded pairs,
  and all edge weights for a measure are computed in a single batch
  division;
* the ``python`` engine's kernel — the original Counter-based loop,
  kept as the readable reference; the engine parity suite asserts both
  kernels build identical graphs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import FrozenSet, Sequence

import numpy as np

from repro.core.similarity import (
    BATCH_MEASURES,
    SIMILARITY_MEASURES,
    SimilarityMeasure,
)
from repro.engine import EngineSpec, resolve_engine
from repro.errors import GraphError


@dataclass
class SimilarityGraph:
    """Weighted undirected graph over alarm ids ``0..n-1``.

    ``adjacency[u]`` maps neighbour -> edge weight.  Every node appears
    as a key even when isolated, so disconnected alarms (future single
    communities) are first-class citizens.
    """

    n_nodes: int
    adjacency: dict[int, dict[int, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for node in range(self.n_nodes):
            self.adjacency.setdefault(node, {})

    def add_edge(self, u: int, v: int, weight: float) -> None:
        if u == v:
            raise GraphError("self-loops are not allowed in the similarity graph")
        if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
            raise GraphError(f"edge ({u}, {v}) outside node range")
        if weight <= 0:
            return
        self.adjacency[u][v] = weight
        self.adjacency[v][u] = weight

    @property
    def n_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency.values()) // 2

    def degree(self, node: int) -> float:
        """Weighted degree."""
        return sum(self.adjacency[node].values())

    def neighbors(self, node: int) -> dict[int, float]:
        return self.adjacency[node]

    def isolated_nodes(self) -> list[int]:
        return [n for n in range(self.n_nodes) if not self.adjacency[n]]

    def to_networkx(self):
        """Export to a networkx Graph (for interoperability/debugging)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.n_nodes))
        for u, nbrs in self.adjacency.items():
            for v, w in nbrs.items():
                if u < v:
                    graph.add_edge(u, v, weight=w)
        return graph


def build_similarity_graph(
    traffic_sets: Sequence[FrozenSet],
    measure: SimilarityMeasure | str = "simpson",
    edge_threshold: float = 0.0,
    engine: EngineSpec = "auto",
) -> SimilarityGraph:
    """Build the similarity graph from per-alarm traffic sets.

    Parameters
    ----------
    traffic_sets:
        One traffic set per alarm (index-aligned with alarm ids).
        Either Python sets of hashable elements or — as the columnar
        extractor hands over in ``TrafficExtractor.extract_all(...)
        .graph_input`` — NumPy arrays of unique integer codes, which
        the vectorized kernel ingests without any per-element Python
        work.  Empty sets yield isolated nodes.
    measure:
        Similarity measure name or callable ``(intersection, |A|, |B|)
        -> weight``.
    edge_threshold:
        Drop edges whose weight is <= this value.  The paper notes the
        similarity measure "enables to discriminate edges connecting
        dissimilar alarms"; thresholding is how that discrimination is
        applied.
    engine:
        Engine spec resolved through
        :func:`repro.engine.resolve_engine`; construction dispatches to
        that engine's ``"similarity_graph"`` kernel.  All kernels
        produce identical graphs; custom callable measures are
        evaluated per-edge either way, but the vectorized kernel still
        batches intersection counting.

    Returns
    -------
    SimilarityGraph
    """
    if isinstance(measure, str):
        try:
            measure_fn = SIMILARITY_MEASURES[measure]
        except KeyError as exc:
            raise GraphError(
                f"unknown similarity measure {measure!r}; "
                f"known: {sorted(SIMILARITY_MEASURES)}"
            ) from exc
        batch_fn = BATCH_MEASURES.get(measure)
    else:
        measure_fn = measure
        batch_fn = None

    kernel = resolve_engine(engine, what="graph").kernel("similarity_graph")
    return kernel(traffic_sets, measure_fn, batch_fn, edge_threshold)


def _build_similarity_graph_python(
    traffic_sets: Sequence[FrozenSet],
    measure_fn: SimilarityMeasure,
    batch_fn,
    edge_threshold: float,
) -> SimilarityGraph:
    """Reference kernel: Counter-based co-occurrence loop.

    ``batch_fn`` is part of the shared kernel signature but unused — the
    reference path evaluates the scalar measure per edge.
    """
    n = len(traffic_sets)
    graph = SimilarityGraph(n_nodes=n)

    # Inverted index: element -> alarm ids containing it.
    element_to_alarms: dict = {}
    for alarm_id, traffic in enumerate(traffic_sets):
        for element in traffic:
            element_to_alarms.setdefault(element, []).append(alarm_id)

    # Intersection counts via co-occurrence.
    intersections: Counter = Counter()
    for alarm_ids in element_to_alarms.values():
        if len(alarm_ids) < 2:
            continue
        for i, u in enumerate(alarm_ids):
            for v in alarm_ids[i + 1 :]:
                intersections[(u, v)] += 1

    # Insert edges sorted by (u, v) — the order the vectorized kernel
    # emits pairs in.  Louvain iterates adjacency dicts in insertion
    # order when breaking modularity ties, so both kernels must build
    # graphs that are identical *as ordered dicts*, not merely equal.
    for (u, v) in sorted(intersections):
        count = intersections[(u, v)]
        weight = measure_fn(count, len(traffic_sets[u]), len(traffic_sets[v]))
        if weight > edge_threshold:
            graph.add_edge(u, v, weight)
    return graph


def _cooccurrence_pairs(
    traffic_sets: Sequence[FrozenSet], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique co-occurring alarm pairs and their intersection sizes.

    Returns ``(us, vs, counts)`` with ``us < vs`` elementwise and
    ``counts[i] == |traffic_sets[us[i]] & traffic_sets[vs[i]]|``.
    """
    empty = np.empty(0, dtype=np.int64)
    total = sum(len(traffic) for traffic in traffic_sets)
    if total == 0:
        return empty, empty, empty

    # Flatten the inverted index into parallel (element code, alarm id)
    # arrays.  Iterating alarms in id order makes alarm ids ascending
    # within each element's posting list after a stable sort by code.
    if all(isinstance(traffic, np.ndarray) for traffic in traffic_sets):
        # Pre-encoded traffic (e.g. flow codes from the columnar
        # extractor): re-encode densely without touching Python objects.
        flat = np.concatenate(
            [traffic for traffic in traffic_sets if len(traffic)]
        ).astype(np.int64, copy=False)
        alarm_ids = np.repeat(
            np.arange(n, dtype=np.int64),
            [len(traffic) for traffic in traffic_sets],
        )
        codes = np.unique(flat, return_inverse=True)[1].astype(
            np.int64, copy=False
        )
        n_codes = int(codes.max()) + 1
    else:
        codes = np.empty(total, dtype=np.int64)
        alarm_ids = np.empty(total, dtype=np.int64)
        code_of: dict = {}
        pos = 0
        for alarm_id, traffic in enumerate(traffic_sets):
            for element in traffic:
                code = code_of.setdefault(element, len(code_of))
                codes[pos] = code
                alarm_ids[pos] = alarm_id
                pos += 1
        n_codes = len(code_of)

    order = np.argsort(codes, kind="stable")
    members = alarm_ids[order]
    counts_per_code = np.bincount(codes, minlength=n_codes)
    starts = np.concatenate(([0], np.cumsum(counts_per_code)[:-1]))

    # Generate all within-element pairs, batching posting lists of the
    # same length so each batch is pure array indexing.
    us_parts: list[np.ndarray] = []
    vs_parts: list[np.ndarray] = []
    for size in np.unique(counts_per_code):
        if size < 2:
            continue
        group_starts = starts[counts_per_code == size]
        matrix = members[group_starts[:, None] + np.arange(size)]
        iu, iv = np.triu_indices(int(size), k=1)
        us_parts.append(matrix[:, iu].ravel())
        vs_parts.append(matrix[:, iv].ravel())
    if not us_parts:
        return empty, empty, empty

    # Alarm ids ascend within posting lists, so u < v already holds.
    keys = np.concatenate(us_parts) * np.int64(n) + np.concatenate(vs_parts)
    unique_keys, intersections = np.unique(keys, return_counts=True)
    return unique_keys // n, unique_keys % n, intersections


def _build_similarity_graph_numpy(
    traffic_sets: Sequence[FrozenSet],
    measure_fn: SimilarityMeasure,
    batch_fn,
    edge_threshold: float,
) -> SimilarityGraph:
    """Vectorized kernel: array pair generation + batch weights."""
    n = len(traffic_sets)
    graph = SimilarityGraph(n_nodes=n)
    if n < 2:
        return graph

    us, vs, intersections = _cooccurrence_pairs(traffic_sets, n)
    if len(us) == 0:
        return graph

    sizes = np.fromiter(
        (len(traffic) for traffic in traffic_sets), dtype=np.int64, count=n
    )
    if batch_fn is not None:
        weights = batch_fn(intersections, sizes[us], sizes[vs])
    else:
        weights = np.fromiter(
            (
                measure_fn(int(count), int(sa), int(sb))
                for count, sa, sb in zip(
                    intersections, sizes[us], sizes[vs]
                )
            ),
            dtype=np.float64,
            count=len(us),
        )

    keep = (weights > edge_threshold) & (weights > 0)
    adjacency = graph.adjacency
    for u, v, weight in zip(
        us[keep].tolist(), vs[keep].tolist(), weights[keep].tolist()
    ):
        adjacency[u][v] = weight
        adjacency[v][u] = weight
    return graph
