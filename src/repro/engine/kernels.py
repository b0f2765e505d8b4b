"""The built-in kernel table: one implementation per (engine, op).

Registered lazily on first :meth:`~repro.engine.core.Engine.kernel`
call.  Production implementations live next to the code they serve
(:mod:`repro.core.graph`, :mod:`repro.core.extractor`,
:mod:`repro.detectors.sketch`, ...) and are imported here; the pure
reference twins that exist *only* as correctness oracles (per-packet
flow coding, Counter feature binning) are defined inline.  Steps 1-4
run one data path on both engines, and the python engine only swaps
in these reference kernels.
``tests/test_engine_parity.py`` drives every pair through one
table-driven hypothesis suite.

Kernel signatures
-----------------
``flow_codes(table, granularity)``
    ``(codes, keys)``: dense int64 per-packet flow ids numbered by
    first appearance, plus the code -> FlowKey table (the vectorized
    kernel reads both from a :class:`~repro.net.table.FlowTable`).
``binned_histogram(table, feature, bin_idx, n_bins, value_codes=None)``
    :class:`~repro.detectors.features.BinnedHistogram` of one feature
    column per time bin; the vectorized kernel reuses ``value_codes``
    (the column's ``(values, codes)``) when given.
``dominant_keys(keys, mask, hasher, sketch, top, min_fraction)``
    Most frequent keys hashing to ``sketch`` among masked packets.
``similarity_graph(traffic_sets, measure_fn, batch_fn, edge_threshold)``
    The alarm similarity graph (Step 2).
``community_label(extractor, communities)``
    Table-1 heuristic labels of every community of one run, in order.
    Every community carries its traffic as a code array
    (:attr:`~repro.core.community.Community.codes`, codes of
    ``extractor.trace``).  The vectorized kernel sums per-flow counts
    over them with segmented reductions; the reference kernel gathers
    each community's packet objects.
``column_values(trace, field, dtype=None)``
    One packet field as an array (the detectors' feature columns).
``traffic_extractor(trace, granularity, engine)``
    Factory for the per-engine traffic-extraction strategy object.
    Both strategies return the same sorted code arrays per alarm
    (packet rows, or flow codes of the trace's flow table), decoded to
    public traffic sets only on access.  The vectorized strategy
    evaluates each alarm over its time window's row range; the
    reference strategy loops over packets and codes their flow keys
    with one :meth:`~repro.net.table.FlowTable.codes_of` call.
``alarm_codes(names)``
    ``(codes, pool)``: dense int32 codes for a sequence of detector /
    configuration names, numbered by first appearance — the coding
    :meth:`repro.core.alarm_table.AlarmTable.from_alarms` stores.
``label_assign(accepted, relative_distance, mu, suspicious_distance)``
    int8 taxonomy codes (0 = anomalous, 1 = suspicious, 2 = notice)
    for index-aligned decision columns; ``NaN`` relative distance
    means "no metric, approximate from mu" exactly like
    :func:`repro.labeling.taxonomy.assign_taxonomy`.
``maximal_itemsets(block, min_support_pct=20.0, limit=None)``
    ``(itemsets, covered)`` of an ``(n, 4)`` int64 block of src,
    sport, dst and dport values (KL's rule extraction and Step 4's
    community rules): ``itemsets`` are the ranked maximal frequent
    itemsets cut at ``limit``
    (:func:`~repro.rules.itemsets.ranked_maximal`), with the same
    counts, supports and order on every engine, and ``covered`` is the
    number of rows at least one of them matches.  The reference kernel
    is Apriori over one transaction per row; the vectorized kernel
    counts every field subset of the block's distinct coded rows
    (:mod:`repro.rules.columnar`).
``feature_plane(trace, spec, planes)``
    One derived feature plane of a trace (column, time-bin index,
    binned histogram, sketch buckets, per-family statistics...), keyed
    by its parameter ``spec`` tuple and memoized in the
    :class:`~repro.detectors.planes.PlaneCache` passed as ``planes``
    (sub-planes are fetched through it).  Both kernels return the same
    plane types.  The vectorized kernel reads the columnar table; the
    reference kernel builds the per-packet kinds (time bins, bin
    members, value codes, binned histograms, sketch buckets and Hough's
    ``hough_x``, ``hough_rows`` and ``hough_pixels``) from packet
    objects, and both derive the statistics planes (KL divergence and
    entropy series, PCA residuals, Gamma deviations, Hough line
    sequences) from those with the same shared code.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.engine.core import NUMPY_ENGINE, PYTHON_ENGINE

# -- flow coding -------------------------------------------------------


@NUMPY_ENGINE.register("flow_codes")
def _flow_codes_numpy(table, granularity):
    from repro.net.table import flow_codes

    return flow_codes(table, granularity)


@PYTHON_ENGINE.register("flow_codes")
def _flow_codes_python(table, granularity):
    """Dict-based first-appearance numbering over packet objects."""
    from repro.net.flow import Granularity, key_for

    if granularity is Granularity.PACKET:
        raise ValueError("packets have no flow key; use packet indices instead")
    code_of: dict = {}
    keys = []
    codes = np.empty(len(table), dtype=np.int64)
    for i in range(len(table)):
        key = key_for(table.packet(i), granularity)
        code = code_of.get(key)
        if code is None:
            code = code_of[key] = len(keys)
            keys.append(key)
        codes[i] = code
    return codes, keys


# -- feature binning ---------------------------------------------------


@NUMPY_ENGINE.register("binned_histogram")
def _binned_histogram_numpy(table, feature, bin_idx, n_bins, value_codes=None):
    from repro.detectors.features import binned_value_histogram

    return binned_value_histogram(
        table, feature, bin_idx, n_bins, value_codes=value_codes
    )


@PYTHON_ENGINE.register("binned_histogram")
def _binned_histogram_python(table, feature, bin_idx, n_bins, value_codes=None):
    """Counter-per-bin reference assembling the same dense struct.

    One pass over the packet objects fills every bin's Counter.
    ``value_codes`` is accepted for signature parity but deliberately
    ignored: the oracle codes every packet object itself.
    """
    from repro.detectors.features import BinnedHistogram

    column = [getattr(table.packet(i), feature) for i in range(len(table))]
    values = sorted(set(column))
    code_of = {value: c for c, value in enumerate(values)}
    codes = np.array([code_of[v] for v in column], dtype=np.int64)
    histograms = [Counter() for _ in range(n_bins)]
    for value, b in zip(column, bin_idx.tolist()):
        histograms[b][value] += 1
    counts = np.zeros((n_bins, len(values)), dtype=np.int64)
    for b, histogram in enumerate(histograms):
        for value, count in histogram.items():
            counts[b, code_of[value]] = count
    return BinnedHistogram(
        feature=feature,
        values=np.array(values, dtype=table.column(feature).dtype),
        codes=codes,
        counts=counts,
    )


# -- dominant sketch keys ----------------------------------------------


def _register_sketch_kernels() -> None:
    from repro.detectors.sketch import (
        _dominant_keys_numpy,
        _dominant_keys_python,
    )

    NUMPY_ENGINE.register("dominant_keys", _dominant_keys_numpy)
    PYTHON_ENGINE.register("dominant_keys", _dominant_keys_python)


# -- feature planes ----------------------------------------------------


def _register_plane_kernels() -> None:
    from repro.detectors.planes import (
        _feature_plane_numpy,
        _feature_plane_python,
    )

    NUMPY_ENGINE.register("feature_plane", _feature_plane_numpy)
    PYTHON_ENGINE.register("feature_plane", _feature_plane_python)


# -- similarity graph --------------------------------------------------


def _register_graph_kernels() -> None:
    from repro.core.graph import (
        _build_similarity_graph_numpy,
        _build_similarity_graph_python,
    )

    NUMPY_ENGINE.register("similarity_graph", _build_similarity_graph_numpy)
    PYTHON_ENGINE.register("similarity_graph", _build_similarity_graph_python)


# -- community heuristics ----------------------------------------------


@NUMPY_ENGINE.register("community_label")
def _community_label_numpy(extractor, communities):
    from repro.labeling.heuristics import label_code_sets

    return label_code_sets(
        extractor.trace,
        extractor.granularity,
        [community.codes for community in communities],
    )


@PYTHON_ENGINE.register("community_label")
def _community_label_python(extractor, communities):
    """Per-community :func:`label_packets` over packet objects."""
    from repro.labeling.heuristics import label_packets

    trace = extractor.trace
    return [
        label_packets(
            [trace[i] for i in extractor.packets_of(community.traffic)]
        )
        for community in communities
    ]


# -- feature columns ---------------------------------------------------


@NUMPY_ENGINE.register("column_values")
def _column_values_numpy(trace, field, dtype=None):
    column = trace.table.column(field)
    return column.astype(dtype) if dtype is not None else column


@PYTHON_ENGINE.register("column_values")
def _column_values_python(trace, field, dtype=None):
    return np.array(
        [getattr(packet, field) for packet in trace],
        dtype=dtype if dtype is not None else np.float64,
    )


# -- alarm coding ------------------------------------------------------


@NUMPY_ENGINE.register("alarm_codes")
def _alarm_codes_numpy(names):
    """First-appearance dense coding via ``np.unique`` + renumbering."""
    names = np.asarray(list(names), dtype=object)
    if names.size == 0:
        return np.empty(0, dtype=np.int32), ()
    _uniq, first_index, inverse = np.unique(
        names, return_index=True, return_inverse=True
    )
    appearance = np.argsort(first_index, kind="stable")
    rank = np.empty(len(first_index), dtype=np.int32)
    rank[appearance] = np.arange(len(first_index), dtype=np.int32)
    codes = rank[inverse].astype(np.int32)
    pool = tuple(names[i] for i in first_index[appearance])
    return codes, pool


@PYTHON_ENGINE.register("alarm_codes")
def _alarm_codes_python(names):
    """Dict-based first-appearance numbering (the readable reference)."""
    code_of: dict = {}
    pool: list = []
    names = list(names)
    codes = np.empty(len(names), dtype=np.int32)
    for i, name in enumerate(names):
        code = code_of.get(name)
        if code is None:
            code = code_of[name] = len(pool)
            pool.append(name)
        codes[i] = code
    return codes, tuple(pool)


# -- taxonomy assignment -----------------------------------------------


@NUMPY_ENGINE.register("label_assign")
def _label_assign_numpy(accepted, relative_distance, mu, suspicious_distance=0.5):
    """Vectorized Section-5 taxonomy over decision columns."""
    from repro.errors import LabelingError

    accepted = np.asarray(accepted, dtype=bool)
    distance = np.asarray(relative_distance, dtype=np.float64).copy()
    mu = np.asarray(mu, dtype=np.float64)
    codes = np.zeros(len(accepted), dtype=np.int8)  # anomalous
    rejected = ~accepted
    approximate = rejected & np.isnan(distance)
    if bool((mu[approximate] > 0.5).any()):
        raise LabelingError("rejected decision with mu above threshold")
    # Approximate the distance from mu exactly like the scalar
    # reference: mu <= 0 -> inf, else 0.5 / mu - 1.
    positive = approximate & (mu > 0)
    distance[positive] = 0.5 / mu[positive] - 1.0
    distance[approximate & ~positive] = np.inf
    codes[rejected & (distance <= suspicious_distance)] = 1  # suspicious
    codes[rejected & (distance > suspicious_distance)] = 2  # notice
    return codes


@PYTHON_ENGINE.register("label_assign")
def _label_assign_python(accepted, relative_distance, mu, suspicious_distance=0.5):
    """Per-decision :func:`assign_taxonomy` loop (the oracle)."""
    from repro.core.strategies import Decision
    from repro.labeling.taxonomy import TAXONOMY_ORDER, assign_taxonomy

    code_of = {name: code for code, name in enumerate(TAXONOMY_ORDER)}
    accepted = np.asarray(accepted, dtype=bool)
    relative_distance = np.asarray(relative_distance, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    codes = np.empty(len(accepted), dtype=np.int8)
    for i in range(len(accepted)):
        distance = float(relative_distance[i])
        decision = Decision(
            community_id=i,
            accepted=bool(accepted[i]),
            mu=float(mu[i]),
            relative_distance=None if np.isnan(distance) else distance,
        )
        codes[i] = code_of[
            assign_taxonomy(decision, suspicious_distance=suspicious_distance)
        ]
    return codes


# -- warehouse predicate pushdown --------------------------------------
#
# Both kernels take the same plain-array view of one stored day: the
# per-record ``taxonomy_code`` / ``t0`` / ``t1`` columns plus the flat
# per-rule columns (``rule_record`` maps each rule row back to its
# record; ``-1`` in a rule field is the wildcard ``None``).  They
# return the matching record indices in row order — segments are
# scanned in place, no record objects exist until the caller renders
# the selected rows.


@NUMPY_ENGINE.register("warehouse_select")
def _warehouse_select_numpy(
    columns,
    taxonomy_code=None,
    src=None,
    dst=None,
    sport=None,
    dport=None,
    t0=None,
    t1=None,
):
    """Vectorized predicate pushdown over mapped label columns."""
    n = len(columns["taxonomy_code"])
    mask = np.ones(n, dtype=bool)
    if taxonomy_code is not None:
        mask &= np.asarray(columns["taxonomy_code"]) == int(taxonomy_code)
    if t0 is not None:
        mask &= np.asarray(columns["t1"]) >= float(t0)
    if t1 is not None:
        mask &= np.asarray(columns["t0"]) <= float(t1)
    rule_record = np.asarray(columns["rule_record"])
    for value, key in (
        (src, "rule_src"),
        (dst, "rule_dst"),
        (sport, "rule_sport"),
        (dport, "rule_dport"),
    ):
        if value is None:
            continue
        hits = rule_record[np.asarray(columns[key]) == int(value)]
        rule_mask = np.zeros(n, dtype=bool)
        rule_mask[hits] = True
        mask &= rule_mask
    return np.nonzero(mask)[0].astype(np.int64)


@PYTHON_ENGINE.register("warehouse_select")
def _warehouse_select_python(
    columns,
    taxonomy_code=None,
    src=None,
    dst=None,
    sport=None,
    dport=None,
    t0=None,
    t1=None,
):
    """Per-row reference scan (the oracle for the mmap fast path)."""
    n = len(columns["taxonomy_code"])
    rule_record = columns["rule_record"]
    matched = None
    for value, key in (
        (src, "rule_src"),
        (dst, "rule_dst"),
        (sport, "rule_sport"),
        (dport, "rule_dport"),
    ):
        if value is None:
            continue
        column = columns[key]
        rows = {
            int(rule_record[j])
            for j in range(len(column))
            if int(column[j]) == int(value)
        }
        matched = rows if matched is None else matched & rows
    out = []
    for i in range(n):
        if (
            taxonomy_code is not None
            and int(columns["taxonomy_code"][i]) != int(taxonomy_code)
        ):
            continue
        if t0 is not None and float(columns["t1"][i]) < float(t0):
            continue
        if t1 is not None and float(columns["t0"][i]) > float(t1):
            continue
        if matched is not None and i not in matched:
            continue
        out.append(i)
    return np.asarray(out, dtype=np.int64)


# -- rule mining -------------------------------------------------------


@PYTHON_ENGINE.register("maximal_itemsets")
def _maximal_itemsets_python(block, min_support_pct=20.0, limit=None):
    """Breadth-first Apriori over the block's transactions, ranked and
    cut, and a subset test per transaction (the oracle)."""
    from repro.rules.apriori import apriori, covered_count
    from repro.rules.itemsets import ranked_maximal, transactions_from_block

    transactions = transactions_from_block(block)
    itemsets = ranked_maximal(apriori(transactions, min_support_pct), limit)
    return itemsets, covered_count(transactions, itemsets)


def _register_rule_kernels() -> None:
    from repro.rules.columnar import maximal_itemsets

    NUMPY_ENGINE.register("maximal_itemsets", maximal_itemsets)


# -- traffic extraction ------------------------------------------------


def _register_extractor_kernels() -> None:
    from repro.core.extractor import (
        ColumnarTrafficExtraction,
        ReferenceTrafficExtraction,
    )

    NUMPY_ENGINE.register("traffic_extractor", ColumnarTrafficExtraction)
    PYTHON_ENGINE.register("traffic_extractor", ReferenceTrafficExtraction)


_register_sketch_kernels()
_register_graph_kernels()
_register_extractor_kernels()
_register_plane_kernels()
_register_rule_kernels()
