"""Tests of the benchmark harness itself (not of the system's speed)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import perf_inputs
import perf_spans
import perf_stats
import perf_workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert perf_stats.tail_percentile(range(19)) is None
    assert perf_stats.tail_percentile(range(20)) == (50.0, 9)
    assert perf_stats.tail_percentile(range(100)) == (90.0, 89)
    assert perf_stats.tail_percentile(range(1000)) == (99.0, 989)
    assert perf_stats.tail_percentile(range(7500))[0] == 99.0
    assert perf_stats.tail_percentile(range(10000)) == (99.9, 9989)


def test_self_time_excludes_direct_children():
    spans = [
        # id, name, start, end, parent, thread
        (0, "outer", 0, 100, -1, 1),
        (1, "inner", 10, 40, 0, 1),
        (2, "leaf", 20, 30, 1, 1),
        (3, "inner", 50, 60, 0, 1),
    ]
    reduced = perf_spans.reduce_spans([{"pid": 1, "spans": spans, "counts": []}])
    assert reduced["outer"]["self_s"] == pytest.approx(60e-9)
    assert reduced["inner"]["self_s"] == pytest.approx(30e-9)
    assert reduced["inner"]["calls"] == 2
    assert reduced["inner"]["total_s"] == pytest.approx(40e-9)
    assert reduced["leaf"]["self_s"] == pytest.approx(10e-9)


def test_recorder_links_nested_calls_and_iterators():
    recorder = perf_spans.Recorder()

    def leaf():
        return recorder.call("leaf", lambda: 1)

    recorder.call("outer", lambda: [recorder.call("inner", leaf) for _ in range(2)])
    items = list(recorder.iterate("gen", iter([1, 2])))
    assert items == [1, 2]
    by_id = {s[0]: s for s in recorder.spans}
    names = {s[1]: s for s in recorder.spans}
    assert by_id[names["leaf"][4]][1] == "inner"
    assert by_id[names["inner"][4]][1] == "outer"
    assert names["outer"][4] == -1
    assert sum(s[1] == "gen" for s in recorder.spans) == 3  # two items + exhaustion


def test_open_loop_times_from_due_time():
    """A handler slower than the schedule: latency and lateness grow."""
    now = [0.0]

    def handler(_i):
        now[0] += 0.005  # 5 ms per request, 2 ms between due times

    def wait(due):
        now[0] = max(now[0], due)

    result = perf_stats.open_loop(500.0, 0.1, handler, clock=lambda: now[0], wait=wait)
    latency, late = result["latency"], result["late"]
    assert len(latency) == 50
    assert latency[0] == pytest.approx(0.005)
    assert all(b > a for a, b in zip(latency, latency[1:]))
    assert latency[-1] == pytest.approx(50 * 0.005 - 49 * 0.002)
    assert late[0] == 0.0 and late[-1] == pytest.approx(latency[-1] - 0.005)


def test_open_loop_keeps_schedule_when_handler_is_fast():
    now = [0.0]
    result = perf_stats.open_loop(
        100.0, 0.5, lambda i: None, clock=lambda: now[0],
        wait=lambda due: now.__setitem__(0, max(now[0], due)),
    )
    assert max(result["late"]) == pytest.approx(0.0)
    assert result["wall"] == pytest.approx(0.49)


def test_scaled_timer_scales_each_stage_by_the_probes_around_it():
    class FakeHost:
        def __init__(self, values):
            self.values = iter(values)

        def probe(self):
            return next(self.values)

    timer = perf_stats.ScaledTimer(FakeHost([0.02, 0.06, 0.03]))
    wall, scaled = timer.lap()
    assert scaled == pytest.approx(wall * perf_stats.REFERENCE_S / 0.04)
    wall, scaled = timer.lap()
    assert scaled == pytest.approx(wall * perf_stats.REFERENCE_S / 0.045)


def test_probe_client_is_answered_by_the_serving_process():
    host = perf_stats.HostProbe(cpus=sorted(os.sched_getaffinity(0))[:1])
    requests, client_requests = os.pipe()
    client_replies, replies = os.pipe()
    client = perf_stats.ProbeClient(client_replies, client_requests)
    values = []

    def workload():
        values.extend(client.probe() for _ in range(3))
        os.close(client_requests)

    thread = threading.Thread(target=workload)
    thread.start()
    try:
        host.serve(requests, replies, lambda: True, time.monotonic() + 60)
    finally:
        thread.join(60)
        os.close(requests)
        os.close(replies)
    assert not thread.is_alive()
    assert values == host.samples == client.samples and len(values) == 3


def test_compare_verdicts():
    import compare

    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.0]
    assert compare.verdict(base, [v * 1.3 for v in base], "lower", 0.25)[0] == "regressed"
    assert compare.verdict(base, [v * 1.1 for v in base], "lower", 0.25)[0] == "worse"
    assert compare.verdict(base, [v * 0.9 for v in base], "lower", 0.25)[0] == "improved"
    assert compare.verdict(base, [v * 1.1 for v in base], "higher", 0.25)[0] == "improved"
    assert compare.verdict(base, list(base), "lower", 0.25)[0] == "within"
    noisy = [60.0, 140.0, 70.0, 130.0, 100.0, 90.0, 110.0, 65.0, 135.0, 100.0]
    assert compare.verdict(noisy, noisy, "lower", 0.25)[0] == "unresolved"


def test_seed_shifts_the_cached_base_traffic_in_time(tmp_path):
    from repro.net.pcap import read_pcap
    from repro.net.table import COLUMNS

    sizes = perf_inputs.Sizes.at(0.05)
    cache = tmp_path / "cache"
    a = perf_inputs.ensure_inputs(cache, 3, sizes, tmp_path / "a")
    b = perf_inputs.ensure_inputs(cache, 3, sizes, tmp_path / "b")
    assert perf_inputs.input_hashes(a) == perf_inputs.input_hashes(b)
    c = perf_inputs.ensure_inputs(cache, 4, sizes, tmp_path / "c")
    assert perf_inputs.input_hashes(a) != perf_inputs.input_hashes(c)

    _date, base_pcap, base_truth = perf_inputs.ensure_base(cache, sizes)["day"]
    base, shifted = read_pcap(str(base_pcap)).table, read_pcap(a["day"]["pcap"]).table
    shift = perf_inputs.capture_start_us(perf_inputs.DAY_DATE, 3) / 1e6
    assert np.allclose(shifted.time - base.time, shift, rtol=0, atol=2e-6)
    for name in COLUMNS[1:]:
        assert (getattr(base, name) == getattr(shifted, name)).all(), name
    events = perf_inputs.load_events(a["day"]["truth"])
    base_events = perf_inputs.load_events(str(base_truth))
    assert events and [e.t0 - shift for e in events] == pytest.approx(
        [e.t0 for e in base_events]
    )


def _tiny_config(tmp_path, workload: str) -> dict:
    sizes = perf_inputs.Sizes.at(0.05)
    inputs = perf_inputs.ensure_inputs(tmp_path / "inputs", 1, sizes, tmp_path / "seed-inputs")
    work = tmp_path / "work"
    work.mkdir()
    return {
        "workload": workload, "seed": 1, "scale": 0.05,
        "seconds": 0.1, "trace": False, "sizes": asdict(sizes),
        "inputs": inputs, "work": str(work), "nproc": 2,
        "result": str(work / "result.json"), "spans": str(work / "spans.json"),
    }


def test_corrupted_label_csv_counts_as_failed_operations(tmp_path, monkeypatch):
    import repro.labeling.database as database

    config = _tiny_config(tmp_path, "archive")
    clean = perf_workloads.child_run(config)
    assert clean["failed"] == 0 and clean["attempted"] > 0

    real = database.write_atomic

    def corrupting(path, text):
        if str(path).endswith("_anomalous_suspicious.csv"):
            text += "0,anomalous,corrupt\n"
        return real(path, text)

    monkeypatch.setattr(database, "write_atomic", corrupting)
    corrupted = perf_workloads.child_run(config)
    assert corrupted["failed"] > 0
    assert any(f.startswith("archive.csv") for f in corrupted["failures"])


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "day",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_smoke_every_workload_reports_every_metric(tmp_path):
    """All workloads at tiny scale, traced: every BENCHMARK.json metric
    appears with its unit, the checks pass, and spans are valid JSON."""
    out = tmp_path / "results.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seed", "3", "--seconds", "1",
         "--scale", "0.05", "--trace", "1", "--out", str(out),
         "--spans", str(tmp_path / "spans.json")],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    results = json.loads(out.read_text())
    assert set(results["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for workload, report in results["workloads"].items():
        assert report["correct"], (workload, report["failures"])
        for kind in ("end_to_end", "per_layer"):
            for entry in SPEC[kind]:
                metric = report[kind][entry["name"]]
                assert metric["unit"] == entry["unit"]
                assert isinstance(metric["value"], (int, float))
        assert report["missing_targets"] == []
        assert report["labels_sha256"] == report["traced_labels_sha256"]
        events = json.loads(Path(report["spans"]).read_text())["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete and all(
            {"name", "ts", "dur", "pid", "tid"} <= e.keys() for e in complete
        )
    assert results["workloads"]["day"]["per_layer"]["net.read_pcap.self_pct"]["value"] > 0
    assert results["workloads"]["archive"]["per_layer"]["runner.cache.hits"]["value"] > 0
    assert results["workloads"]["serve"]["per_layer"]["serve.query.self_pct"]["value"] > 0
