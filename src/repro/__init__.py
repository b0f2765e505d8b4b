"""MAWILab reproduction.

A full reimplementation of the pipeline described in

    Fontugne, Borgnat, Abry, Fukuda.
    "MAWILab: Combining Diverse Anomaly Detectors for Automated Anomaly
    Labeling and Performance Benchmarking", ACM CoNEXT 2010.

The package combines the alarms of four heterogeneous, unsupervised
anomaly detectors through a graph-based similarity estimator and an
unsupervised combiner (average / minimum / maximum / SCANN), then labels
the analyzed traffic with concise association rules and the MAWILab
taxonomy (anomalous / suspicious / notice / benign).

Subpackages
-----------
``repro.net``
    Network substrate: packets, flows, traces, pcap I/O, anonymization.
``repro.mawi``
    Synthetic MAWI-like archive: background traffic generation, anomaly
    injection and the 2001-2010 event timeline.
``repro.detectors``
    The four detectors combined in the paper (PCA, Gamma, Hough, KL),
    each with three parameter configurations.
``repro.core``
    The paper's contribution: similarity estimator (traffic extractor,
    similarity graph, Louvain community mining) and combiner
    (confidence scores, combination strategies, SCANN).
``repro.rules``
    Modified Apriori association-rule mining with percentage support.
``repro.labeling``
    Table-1 heuristics, MAWILab taxonomy, end-to-end pipeline.
``repro.eval``
    Attack-ratio metrics, gain/cost accounting and detector
    benchmarking against the produced labels.
``repro.engine``
    The execution-engine layer: per-engine kernel registries
    (vectorized NumPy vs pure-Python reference) and capability flags,
    replacing ad-hoc backend switches.
``repro.session``
    :class:`~repro.session.LabelingSession` — the single orchestrator
    exposing offline, archive/batch (shared-memory fan-out) and
    streaming labeling as run modes of one configuration.

Quickstart
----------
>>> from repro.mawi import WorkloadSpec, generate_trace
>>> from repro.labeling import MAWILabPipeline
>>> trace, truth = generate_trace(WorkloadSpec(seed=7))
>>> pipeline = MAWILabPipeline()
>>> result = pipeline.run(trace)
>>> len(result.labels) > 0
True
"""

from repro._version import __version__

__all__ = ["__version__"]
