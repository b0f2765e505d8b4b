"""Bench-side spans around the system's public callables.

:class:`Recorder` keeps spans in memory (name, start, end, parent id,
thread) and counters next to them.  :func:`install` wraps the callables
in :data:`TARGETS` at the attribute each caller resolves: a module
function is replaced in every loaded ``repro`` module that imported it,
a method on its class and on every subclass that overrides it.  Nothing
under ``src/`` changes.

Pool workers are forked from a traced parent, so they inherit the
wrappers; each worker writes its own spans file when it exits, and
:func:`load_dumps` merges them with the parent's.  The serving daemon
runs ``perf_serve_boot.py``, which installs the same wrappers.

:func:`reduce_spans` turns spans into per-name calls, total and self
seconds; :func:`chrome_trace` into Chrome trace-event JSON for
Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterable, Optional

#: (module, attribute, span name).  ``Class.method`` attributes patch a
#: method; plain names patch a module function.  Targets a commit does
#: not have are skipped and listed by :func:`install`.
TARGETS = (
    ("repro.net.pcap", "read_pcap", "net.read_pcap"),
    ("repro.net.pcap", "iter_pcap", "net.iter_pcap"),
    ("repro.detectors.pca", "PCADetector.analyze", "detectors.pca"),
    ("repro.detectors.gamma", "GammaDetector.analyze", "detectors.gamma"),
    ("repro.detectors.hough", "HoughDetector.analyze", "detectors.hough"),
    ("repro.detectors.kl", "KLDetector.analyze", "detectors.kl"),
    ("repro.detectors.kl", "KLDetector.analyze_stream", "detectors.kl"),
    ("repro.core.estimator", "SimilarityEstimator.build", "core.estimator"),
    ("repro.core.extractor", "TrafficExtractor.extract_all", "core.extract"),
    ("repro.core.extractor", "TrafficExtractor.extract_all_codes", "core.extract"),
    ("repro.core.extractor", "TrafficExtractor.extract_table_codes", "core.extract"),
    ("repro.core.graph", "build_similarity_graph", "core.graph"),
    ("repro.core.louvain", "louvain", "core.louvain"),
    ("repro.core.dynamic", "DynamicSimilarityGraph.add_alarms", "core.dynamic_graph"),
    ("repro.core.dynamic", "DynamicSimilarityGraph.build", "core.dynamic_graph"),
    ("repro.core.strategies", "CombinationStrategy.classify", "core.combine"),
    ("repro.rules.summarize", "summarize_transactions", "rules.summarize"),
    ("repro.labeling.mawilab", "MAWILabPipeline.run_with_alarms", "labeling.pipeline"),
    ("repro.labeling.heuristics", "label_community", "labeling.heuristics"),
    ("repro.labeling.taxonomy", "assign_taxonomy_batch", "labeling.taxonomy"),
    ("repro.labeling.mawilab", "labels_to_csv", "labeling.csv"),
    ("repro.labeling.database", "LabelDatabase.store_day_labels", "labeling.database"),
    ("repro.labeling.database", "LiveLabelIndex.publish", "labeling.live_index.publish"),
    ("repro.labeling.database", "LiveLabelIndex.query", "labeling.live_index.query"),
    ("repro.labeling.warehouse", "Warehouse.store_day", "warehouse.store"),
    ("repro.labeling.warehouse", "Warehouse.query", "warehouse.query"),
    ("repro.labeling.warehouse", "Warehouse.export_csv", "warehouse.export"),
    ("repro.labeling.warehouse", "Warehouse.recompute", "warehouse.recompute"),
    ("repro.runner.pool", "WorkerPool.map_pipelined", "runner.pool.map"),
    ("repro.runner.worker", "run_task", "runner.worker.task"),
    ("repro.runner.shm", "TableArena.export", "runner.shm.export"),
    ("repro.runner.cache", "AlarmCache.get", "runner.cache.get"),
    ("repro.runner.cache", "AlarmCache.put", "runner.cache.put"),
    ("repro.stream.pipeline", "StreamingPipeline.process", "stream.process"),
    ("repro.serve.daemon", "LabelingService.push", "serve.push"),
    ("repro.serve.daemon", "LabelingService.query_labels", "serve.query"),
    ("repro.serve.daemon", "LabelingService.labels_csv", "serve.csv"),
    ("repro.session", "LabelingSession.label_trace", "session.label_trace"),
    ("repro.session", "LabelingSession.label_traces", "session.label_traces"),
)

#: Execution-engine operations timed through ``Engine.kernel``.
KERNEL_OPS = (
    "filter_mask", "flow_codes", "binned_histogram", "sketch_buckets",
    "dominant_keys", "similarity_graph", "community_label",
    "column_values", "traffic_extractor", "alarm_codes", "label_assign",
    "feature_plane", "warehouse_select",
)

#: Span names whose calls return an iterator; each ``next`` is a span.
ITERATING = frozenset({"net.iter_pcap", "stream.process"})

#: Layers, in report order; a span's layer is its name's first part.
LAYERS = (
    "net", "detectors", "engine", "core", "rules", "labeling",
    "warehouse", "runner", "stream", "serve", "session",
)


class Recorder:
    """In-memory spans and counters of one process.

    A process forked from a recording parent starts an empty record of
    its own and writes it to ``spans_dir`` when it exits.
    """

    def __init__(self, spans_dir: Optional[str] = None) -> None:
        self.spans_dir = spans_dir
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        #: (id, name, start_ns, end_ns, parent_id, thread_id)
        self.spans: list[tuple] = []
        #: (name, amount, time_ns): counts are timestamped so they can
        #: be restricted to the measured intervals like spans.
        self.counts: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        self._check_pid()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _check_pid(self) -> None:
        if os.getpid() != self.pid:
            self._reset()
            if self.spans_dir:
                from multiprocessing import util

                path = Path(self.spans_dir) / f"spans-{self.pid}.json"
                util.Finalize(None, self.dump, args=(str(path),), exitpriority=100)

    def count(self, name: str, amount: float = 1) -> None:
        self._check_pid()
        self.counts.append((name, amount, perf_counter_ns()))

    def call(self, name: str, fn: Callable, args: tuple = (), kwargs=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, threading.get_ident())
            )

    def iterate(self, name: str, iterable: Iterable, on_item=None):
        """Yield from ``iterable``, one span per ``next``."""
        iterator = iter(iterable)
        done = object()
        while True:
            item = self.call(name, next, (iterator, done))
            if item is done:
                return
            if on_item is not None:
                on_item(item)
            yield item

    def dump(self, path: str) -> None:
        payload = {
            "pid": self.pid,
            "spans": self.spans,
            "counts": self.counts,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


# -- installing wrappers --------------------------------------------------


def _on_result(recorder: Recorder, name: str) -> Optional[Callable]:
    """Counter updates for spans whose result carries a count."""
    if name.startswith("detectors."):
        return lambda args, result: recorder.count("detectors.alarms", len(result))
    if name == "core.estimator":
        return lambda args, result: recorder.count(
            "core.communities", len(result.communities)
        )
    if name == "core.graph":
        return lambda args, result: recorder.count("core.graph.edges", result.n_edges)
    if name == "runner.cache.get":
        return lambda args, result: recorder.count(
            "runner.cache.hits" if result is not None else "runner.cache.misses"
        )
    if name == "runner.cache.put":
        return lambda args, result: recorder.count(
            "runner.cache.bytes", args[0].path_for(args[1]).stat().st_size
        )
    if name == "warehouse.store":
        def segment_bytes(args, result):
            label = Path(result)
            alarms = label.with_name(label.name.replace(".labels.", ".alarms."))
            size = label.stat().st_size + (
                alarms.stat().st_size if alarms.exists() else 0
            )
            recorder.count("warehouse.bytes", size)

        return segment_bytes
    if name == "warehouse.recompute":
        return lambda args, result: recorder.count(
            "warehouse.recompute.segment_hits", result.segment_hits
        )
    return None


def _wrap(recorder: Recorder, name: str, fn: Callable) -> Callable:
    on_result = _on_result(recorder, name)
    if name in ITERATING:
        on_item = (
            (lambda item: recorder.count("stream.windows"))
            if name == "stream.process"
            else None
        )

        @functools.wraps(fn)
        def iterating(*args, **kwargs):
            return recorder.iterate(name, fn(*args, **kwargs), on_item)

        return iterating

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = recorder.call(name, fn, args, kwargs)
        if on_result is not None:
            on_result(args, result)
        return result

    return wrapper


def _subclasses(cls: type) -> list[type]:
    found, frontier = [cls], [cls]
    while frontier:
        for sub in frontier.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                frontier.append(sub)
    return found


class Installation:
    """Undo record of :func:`install`."""

    def __init__(self) -> None:
        self.undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def set(self, owner, attr: str, value) -> None:
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()


def _patch_function(inst: Installation, recorder, module, attr, name) -> None:
    original = getattr(module, attr)
    wrapper = _wrap(recorder, name, original)
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                inst.set(mod, key, wrapper)


def _patch_method(inst: Installation, recorder, module, attr, name) -> None:
    class_name, method = attr.split(".")
    for cls in _subclasses(getattr(module, class_name)):
        original = cls.__dict__.get(method)
        if callable(original):
            inst.set(cls, method, _wrap(recorder, name, original))


def _patch_kernels(inst: Installation, recorder: Recorder) -> None:
    from repro.engine.core import Engine

    original = Engine.__dict__["kernel"]
    wrapped: dict[int, Callable] = {}

    @functools.wraps(original)
    def kernel(self, op):
        fn = original(self, op)
        key = id(fn)
        if key not in wrapped:
            wrapped[key] = _wrap(recorder, f"engine.{op}", fn)
        return wrapped[key]

    inst.set(Engine, "kernel", kernel)


def _patch_planes(inst: Installation, recorder: Recorder) -> None:
    from repro.detectors.planes import PlaneCache

    original = PlaneCache.__dict__["get"]

    @functools.wraps(original)
    def get(self, trace, spec):
        hits = self.hits
        value = original(self, trace, spec)
        recorder.count(
            "detectors.planes.hits" if self.hits > hits else "detectors.planes.misses"
        )
        return value

    inst.set(PlaneCache, "get", get)


def install(recorder: Recorder) -> Installation:
    """Wrap every available target; returns the undo record."""
    inst = Installation()
    modules = {}
    for module_name, _, _ in TARGETS:
        if module_name not in modules:
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                modules[module_name] = None
    # Import the remaining callers before patching so their
    # ``from ... import name`` references are found and replaced.
    for extra in ("repro.serve.http", "repro.serve.scheduler", "repro.cli"):
        try:
            importlib.import_module(extra)
        except ImportError:
            pass
    for module_name, attr, name in TARGETS:
        module = modules[module_name]
        try:
            if module is None:
                raise AttributeError(module_name)
            if "." in attr:
                _patch_method(inst, recorder, module, attr, name)
            else:
                _patch_function(inst, recorder, module, attr, name)
        except AttributeError:
            inst.missing.append(f"{module_name}:{attr}")
    for patch in (_patch_kernels, _patch_planes):
        try:
            patch(inst, recorder)
        except (ImportError, AttributeError, KeyError):
            inst.missing.append(patch.__name__)
    return inst


# -- reading spans back ---------------------------------------------------


def load_dumps(recorder: Recorder, spans_dir: Optional[str]) -> list[dict]:
    """The recorder's own record plus every process file in ``spans_dir``."""
    records = [{"pid": recorder.pid, "spans": recorder.spans, "counts": recorder.counts}]
    if spans_dir:
        for path in sorted(Path(spans_dir).glob("spans-*.json")):
            records.append(json.loads(path.read_text()))
    return records


def within(records: list[dict], intervals: list[tuple[int, int]]) -> list[dict]:
    """Spans and counts that started inside one of ``intervals`` (ns)."""

    def inside(t: int) -> bool:
        return any(lo <= t < hi for lo, hi in intervals)

    return [
        {
            "pid": r["pid"],
            "spans": [s for s in r["spans"] if inside(s[2])],
            "counts": [c for c in r["counts"] if inside(c[2])],
        }
        for r in records
    ]


def reduce_spans(records: list[dict]) -> dict:
    """Per span name: calls, total and self seconds (all processes).

    A span's self time is its duration minus its direct children's
    durations (children run on the same thread, inside it).
    """
    out: dict[str, dict] = {}
    for record in records:
        child_ns: Counter = Counter()
        for _id, _name, start, end, parent, _tid in record["spans"]:
            if parent >= 0:
                child_ns[parent] += end - start
        for span_id, name, start, end, _parent, _tid in record["spans"]:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[span_id]) / 1e9
    return out


def total_counts(records: list[dict]) -> Counter:
    total: Counter = Counter()
    for record in records:
        for name, amount, _t in record["counts"]:
            total[name] += amount
    return total


def chrome_trace(records: list[dict], measured=()) -> dict:
    """Chrome trace-event JSON (``ph: "X"`` complete events).

    ``measured`` intervals (ns) appear as ``bench.measured`` spans on
    the first record's process, so the timed phases stand out.
    """
    starts = [s[2] for r in records for s in r["spans"]] + [lo for lo, _ in measured]
    origin = min(starts) if starts else 0
    events = []
    for record in records:
        pid = record["pid"]
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": f"pid {pid}"}}
        )
        for span_id, name, start, end, parent, tid in record["spans"]:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (start - origin) / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": pid,
                    "tid": tid,
                    "args": {"id": span_id, "parent": parent},
                }
            )
    for lo, hi in measured:
        events.append(
            {"name": "bench.measured", "cat": "bench", "ph": "X",
             "ts": (lo - origin) / 1e3, "dur": (hi - lo) / 1e3,
             "pid": records[0]["pid"] if records else 0, "tid": 0}
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
