"""The end-to-end MAWILab pipeline and the label database format.

:class:`MAWILabPipeline` chains the paper's four steps on one trace:

1. run every detector configuration (Step 1);
2. group similar alarms into communities with the similarity
   estimator (Step 2);
3. classify communities with a combination strategy — SCANN by
   default (Step 3);
4. summarize each community with association rules and assign the
   MAWILab taxonomy (Step 4).

The output is a list of :class:`LabelRecord` — one per community, with
its taxonomy label, concise 4-tuple rules, heuristic category (for
evaluation) and provenance — exactly the content of the public
MAWILab database, exportable as CSV or an admd-flavoured XML.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional, Sequence, Union
from xml.sax.saxutils import escape, quoteattr

from repro.core.alarm_table import AlarmTable, as_alarm_table
from repro.core.community import CommunitySet
from repro.core.estimator import SimilarityEstimator
from repro.core.scann import SCANNStrategy
from repro.core.strategies import CombinationStrategy, Decision
from repro.detectors.base import Alarm, Detector
from repro.detectors.registry import default_ensemble
from repro.engine import EngineSpec, resolve_engine
from repro.labeling.heuristics import HeuristicLabel, label_community
from repro.labeling.taxonomy import assign_taxonomy, assign_taxonomy_batch
from repro.net.flow import Granularity
from repro.net.trace import Trace
from repro.rules.itemsets import transactions_from_flows, transactions_from_packets
from repro.rules.summarize import CommunitySummary, summarize_transactions


@dataclass
class LabelRecord:
    """One labeled community in the MAWILab database."""

    community_id: int
    taxonomy: str  # anomalous / suspicious / notice
    heuristic: HeuristicLabel
    summary: CommunitySummary
    t0: float
    t1: float
    n_alarms: int
    detectors: tuple[str, ...]
    relative_distance: Optional[float] = None
    mu: float = 0.0
    #: Traffic-classifier / manual annotation tags attached to the
    #: community (paper Section 6); empty when no annotations were fed.
    annotations: tuple[str, ...] = ()

    def describe(self) -> str:
        rules = "; ".join(rule.describe() for rule in self.summary.rules[:3])
        return (
            f"[{self.taxonomy:10s}] {self.heuristic.category}:{self.heuristic.detail:8s} "
            f"{self.t0:7.1f}-{self.t1:7.1f}s alarms={self.n_alarms:3d} "
            f"detectors={','.join(self.detectors)} rules: {rules}"
        )


@dataclass
class PipelineResult:
    """Everything one pipeline run produced.

    ``alarms`` is the alarm table Steps 2-4 ran over (the Step 1
    population plus any annotation pseudo-alarms); it is also
    ``community_set.alarms``.
    """

    trace: Trace
    alarms: AlarmTable
    community_set: CommunitySet
    decisions: list[Decision]
    labels: list[LabelRecord]
    config_names: list[str]

    def anomalous(self) -> list[LabelRecord]:
        return [r for r in self.labels if r.taxonomy == "anomalous"]

    def suspicious(self) -> list[LabelRecord]:
        return [r for r in self.labels if r.taxonomy == "suspicious"]

    def notice(self) -> list[LabelRecord]:
        return [r for r in self.labels if r.taxonomy == "notice"]

    def label_store(self):
        """The labels as a columnar :class:`~repro.labeling.store.LabelStore`."""
        from repro.labeling.store import LabelStore

        return LabelStore.from_records(self.labels)


class MAWILabPipeline:
    """The complete 4-step labeling method.

    Parameters
    ----------
    ensemble:
        Detector configurations; defaults to the paper's 12
        (4 detectors x 3 tunings).
    granularity:
        Traffic granularity of the similarity estimator; the paper's
        final system uses unidirectional flows.
    strategy:
        Combination strategy; defaults to SCANN.
    measure:
        Similarity measure; defaults to the Simpson index.
    rule_support_pct:
        Apriori support for community summarization (the paper uses
        20 %).
    seed:
        Louvain seed.
    engine:
        Execution engine (any spec
        :func:`repro.engine.resolve_engine` accepts) applied to every
        stage that has paired kernels: detector feature binning,
        traffic extraction, similarity-graph construction and the
        community heuristics.  ``"python"`` selects the pure-Python
        reference implementations end-to-end; all engines produce
        byte-identical label output.  A caller-supplied ``ensemble``
        keeps its own per-detector engines.
    """

    def __init__(
        self,
        ensemble: Optional[Sequence[Detector]] = None,
        granularity: Granularity = Granularity.UNIFLOW,
        strategy: Optional[CombinationStrategy] = None,
        measure: str = "simpson",
        edge_threshold: float = 0.1,
        rule_support_pct: float = 20.0,
        seed: int = 0,
        engine: EngineSpec = "auto",
    ) -> None:
        self.engine = resolve_engine(engine, what="pipeline")
        self.ensemble = (
            list(ensemble)
            if ensemble is not None
            else default_ensemble(engine=self.engine)
        )
        self.strategy = strategy or SCANNStrategy()
        self.estimator = SimilarityEstimator(
            granularity=granularity,
            measure=measure,
            edge_threshold=edge_threshold,
            seed=seed,
            engine=self.engine,
        )
        self.rule_support_pct = rule_support_pct

    @property
    def config_names(self) -> list[str]:
        return [d.config_name for d in self.ensemble]

    def ensemble_fingerprint(self) -> str:
        """Stable digest of the detector ensemble (names + parameters).

        Two pipelines with the same fingerprint emit identical Step 1
        alarms for a given trace, which is what lets the batch runner
        cache alarm sets on disk and reuse them across combiner or
        granularity changes.
        """
        import hashlib

        parts = [
            (d.name, d.tuning, tuple(sorted(d.params.items())))
            for d in self.ensemble
        ]
        return hashlib.sha256(repr(sorted(parts)).encode()).hexdigest()[:16]

    def detect(self, trace: Trace, planes=None) -> AlarmTable:
        """Step 1 only: every detector configuration, as one table.

        Per-configuration tables are concatenated in ensemble order.
        ``planes`` optionally supplies a shared
        :class:`~repro.detectors.planes.PlaneCache`; by default every
        configuration resolves the trace-attached cache, so sibling
        configurations compute each feature plane once either way.
        """
        return AlarmTable.concatenate(
            detector.analyze_table(trace, planes=planes)
            for detector in self.ensemble
        )

    def run(self, trace: Trace, annotations: Sequence = ()) -> PipelineResult:
        """Label one trace.

        ``annotations`` are optional
        :class:`~repro.core.annotations.Annotation` records (e.g. from
        a traffic classifier); they join the similarity graph but do
        not vote in the combiner, and accepted communities report
        their tags (paper Section 6).
        """
        return self.run_with_alarms(
            trace, self.detect(trace), annotations=annotations
        )

    def run_with_alarms(
        self,
        trace: Trace,
        alarms: Union[AlarmTable, Sequence[Alarm]],
        annotations: Sequence = (),
        timings: Optional[dict] = None,
    ) -> PipelineResult:
        """Label one trace from precomputed alarms (Steps 2-4 only).

        ``alarms`` is an :class:`~repro.core.alarm_table.AlarmTable`; a
        plain alarm list is encoded into one first.  Every engine then
        runs the same table path and labels byte-identically.
        ``timings``, when given, accumulates per-stage wall seconds
        (``extract`` / ``graph`` / ``combine`` / ``label``) — the
        ``repro bench`` instrumentation.
        """
        import time as _time

        from repro.core.annotations import (
            ANNOTATION_DETECTOR,
            merge_annotations,
            strip_annotation_configs,
        )

        if any(
            name.split("/", 1)[0] == ANNOTATION_DETECTOR
            for name in self.config_names
        ):
            raise ValueError(
                f"{ANNOTATION_DETECTOR!r} is a reserved detector family"
            )
        alarms = as_alarm_table(alarms, engine=self.engine)
        if annotations:
            alarms = AlarmTable.concatenate(
                [
                    alarms,
                    AlarmTable.from_alarms(
                        merge_annotations([], list(annotations)),
                        engine=self.engine,
                    ),
                ]
            )
        # Step 2: similarity estimator (annotations participate).
        community_set = self.estimator.build(trace, alarms, timings=timings)
        # Step 3: combiner (annotations excluded from the vote table).
        started = _time.perf_counter()
        decisions = self.strategy.classify(
            community_set, strip_annotation_configs(self.config_names)
        )
        if timings is not None:
            timings["combine"] = (
                timings.get("combine", 0.0) + _time.perf_counter() - started
            )
        # Step 4: rules + taxonomy.  Taxonomies are assigned columnarly
        # — one ``"label_assign"`` kernel call over the decision
        # columns — before the per-community record assembly.
        started = _time.perf_counter()
        taxonomies = assign_taxonomy_batch(decisions, engine=self.engine)
        labels = [
            self._label_one(community_set, community, decision, taxonomy)
            for community, decision, taxonomy in zip(
                community_set.communities, decisions, taxonomies
            )
        ]
        if timings is not None:
            timings["label"] = (
                timings.get("label", 0.0) + _time.perf_counter() - started
            )
        return PipelineResult(
            trace=trace,
            alarms=alarms,
            community_set=community_set,
            decisions=decisions,
            labels=labels,
            config_names=self.config_names,
        )

    def _label_one(
        self,
        community_set: CommunitySet,
        community,
        decision: Decision,
        taxonomy: Optional[str] = None,
    ) -> LabelRecord:
        from repro.core.annotations import ANNOTATION_DETECTOR, community_tags

        extractor = community_set.extractor
        heuristic = label_community(community, extractor)
        summary = self._summarize(community_set, community)
        detectors = tuple(
            sorted(community.detectors() - {ANNOTATION_DETECTOR})
        )
        return LabelRecord(
            community_id=community.id,
            taxonomy=taxonomy if taxonomy is not None else assign_taxonomy(decision),
            heuristic=heuristic,
            summary=summary,
            t0=community.t0,
            t1=community.t1,
            n_alarms=community.size,
            detectors=detectors,
            relative_distance=decision.relative_distance,
            mu=decision.mu,
            annotations=tuple(community_tags(community)),
        )

    def _summarize(self, community_set: CommunitySet, community) -> CommunitySummary:
        """Association rules over the community's traffic."""
        granularity = community_set.granularity
        if granularity is Granularity.PACKET:
            extractor = community_set.extractor
            packets = [extractor.trace[i] for i in sorted(community.traffic)]
            transactions = transactions_from_packets(packets)
        else:
            transactions = transactions_from_flows(sorted(community.traffic))
        return summarize_transactions(
            transactions, min_support_pct=self.rule_support_pct
        )


def labels_to_csv(labels: Sequence[LabelRecord]) -> str:
    """Render label records as CSV (one row per rule, as MAWILab does)."""
    out = io.StringIO()
    out.write(
        "community,taxonomy,heuristic_category,heuristic_detail,"
        "t0,t1,n_alarms,detectors,src,sport,dst,dport,rule_support\n"
    )
    from repro.net.addresses import ip_to_str

    for record in labels:
        base = (
            f"{record.community_id},{record.taxonomy},"
            f"{record.heuristic.category},{record.heuristic.detail},"
            f"{record.t0:.3f},{record.t1:.3f},{record.n_alarms},"
            f"{'|'.join(record.detectors)}"
        )
        rules = record.summary.rules or [None]
        for rule in rules:
            if rule is None:
                out.write(f"{base},,,,,\n")
                continue
            src = ip_to_str(rule.src) if rule.src is not None else ""
            dst = ip_to_str(rule.dst) if rule.dst is not None else ""
            sport = rule.sport if rule.sport is not None else ""
            dport = rule.dport if rule.dport is not None else ""
            out.write(
                f"{base},{src},{sport},{dst},{dport},{rule.support:.3f}\n"
            )
    return out.getvalue()


def labels_to_xml(labels: Sequence[LabelRecord], trace_name: str = "trace") -> str:
    """Render label records in an admd-flavoured XML document.

    The real MAWILab database uses the ADMD schema; this writer keeps
    the same structure (anomaly elements carrying filter descriptions)
    without claiming byte compatibility.

    Every free-form string — filter/rule renderings (the canonical
    4-tuple form is ``<ip, port, ip, port>``, all angle brackets),
    heuristic details, annotation tags — passes through
    ``xml.sax.saxutils`` escaping, so ``&``, ``<`` and ``>`` in any of
    them cannot produce invalid XML; a round-trip test parses the
    output back and recovers the strings verbatim.
    """
    from repro.net.addresses import ip_to_str

    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="utf-8"?>\n')
    out.write(f"<admd trace={quoteattr(trace_name)}>\n")
    for record in labels:
        out.write(
            f"  <anomaly community={quoteattr(str(record.community_id))} "
            f"type={quoteattr(record.taxonomy)} "
            f"heuristic={quoteattr(str(record.heuristic))} "
            f'from="{record.t0:.3f}" to="{record.t1:.3f}">\n'
        )
        for rule in record.summary.rules:
            parts = []
            if rule.src is not None:
                parts.append(f"src_ip={ip_to_str(rule.src)}")
            if rule.sport is not None:
                parts.append(f"src_port={rule.sport}")
            if rule.dst is not None:
                parts.append(f"dst_ip={ip_to_str(rule.dst)}")
            if rule.dport is not None:
                parts.append(f"dst_port={rule.dport}")
            out.write(
                f'    <filter support="{rule.support:.3f}" '
                f"rule={quoteattr(rule.describe())}>"
                f"{escape(' '.join(parts))}</filter>\n"
            )
        for tag in record.annotations:
            out.write(
                f"    <annotation>{escape(str(tag))}</annotation>\n"
            )
        out.write("  </anomaly>\n")
    out.write("</admd>\n")
    return out.getvalue()
