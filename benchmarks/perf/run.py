#!/usr/bin/env python3
"""Benchmark of the MAWILab reproduction: four workloads, one command.

    python3 benchmarks/perf/run.py --workload day --seed 2010 --seconds 10 --trace 0
    python3 benchmarks/perf/run.py --seed 2010 --out results.json     # every workload
    python3 benchmarks/perf/run.py --workload archive --trace 1 --spans spans.json

Run from a checkout's root (inputs and scratch files go under the
current directory).  It generates the inputs on first use and copies
them with the seed's time shift; then, for each workload, it times
``SETUP_PROBES`` fresh set-ups, runs the workload in a fresh child
process and prints every metric by name with unit, sample count and
bound.  Times are scaled to the reference host speed of
``perf_stats.HostProbe``, probed around every set-up and operation.
The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json``, or with ``--trace 1`` its per-layer
metrics.  The exit code is 1 when an output check failed, 2 when the
benchmark could not run.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("day", "stream", "archive", "serve")
#: Workloads that run in one process: pinned to one CPU, so the host
#: probe measures the CPU the work runs on.
PINNED = ("day", "stream")
SETUP_PROBES = 5
CHILD_TIMEOUT = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, in order")
    parser.add_argument("--seed", type=int, default=2010,
                        help="capture epoch and request mix of the inputs")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--spans", help="Chrome trace output of --trace 1 "
                        "(default .perf-work/spans-<workload>.json)")
    parser.add_argument("--out", help="write the full results JSON here")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier (7.5: 15-minute, ~1.2M-packet day)")
    parser.add_argument("--inputs", default=".perf-inputs",
                        help="cache of the generated base inputs, reused across "
                        "runs and commits")
    parser.add_argument("--work", default=".perf-work", help="scratch directory")
    return parser.parse_args(argv)


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(work / "tmp")
    return env


def cpus_for(workload: str) -> list[int]:
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[:1] if workload in PINNED else cpus


def _spawn(workload: str, cmd: list, **kwargs) -> subprocess.Popen:
    """Start ``cmd`` in its own session, on the workload's CPUs."""
    cpus = cpus_for(workload)
    return subprocess.Popen(
        cmd, start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, cpus), **kwargs,
    )


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill ``proc``'s whole process group (its workers and daemons too)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def setup_probe(workload: str, config_path: Path, env: dict, work: Path) -> float:
    """Seconds from spawning a fresh process to the workload being ready."""
    if workload == "serve":
        import perf_workloads

        started = time.perf_counter()
        daemon = perf_workloads.Daemon.start(work, work / "setup-warehouse", env=env)
        elapsed = time.perf_counter() - started
        if daemon.stop() != 0:
            raise RuntimeError("serve set-up probe did not exit cleanly")
        return elapsed
    cmd = [sys.executable, str(BENCH / "perf_workloads.py"), "setup", str(config_path)]
    started = time.perf_counter()
    proc = _spawn(workload, cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        proc.wait(CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        _stop_group(proc)
        raise RuntimeError(f"{workload} set-up probe timed out") from None
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{workload} set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_child(workload: str, config: dict, config_path: Path, env: dict, host) -> dict:
    """Run the workload child, answering its host-probe requests."""
    requests, child_requests = os.pipe()
    child_replies, replies = os.pipe()
    config_path.write_text(json.dumps({**config, "probe_fds": [child_replies, child_requests]}))
    cmd = [sys.executable, str(BENCH / "perf_workloads.py"), "run", str(config_path)]
    try:
        proc = _spawn(workload, cmd, env=env, pass_fds=(child_replies, child_requests))
    finally:
        os.close(child_replies)
        os.close(child_requests)
    deadline = time.monotonic() + CHILD_TIMEOUT
    try:
        host.serve(requests, replies, lambda: proc.poll() is None, deadline)
        proc.wait(max(deadline - time.monotonic(), 0.1))
    except (TimeoutError, subprocess.TimeoutExpired):
        _stop_group(proc)
        raise RuntimeError(f"{workload} did not finish in {CHILD_TIMEOUT:.0f} s") from None
    finally:
        os.close(requests)
        os.close(replies)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    return json.loads(Path(config["result"]).read_text())


def end_to_end(child: dict, setups: list[float]) -> dict:
    """Value and sample count of every end-to-end metric."""
    import perf_stats

    run = child["run"]
    latency = perf_stats.summarize([1e3 * s for s in run["latency_s"]])
    return {
        "setup_s": {"value": statistics.median(setups), "n": len(setups)},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "n": 1},
        "throughput_pps": {"value": run["throughput_pps"], "n": run["rounds"]},
        "latency_p50_ms": {
            "value": 1e3 * run["latency_p50_s"],
            "n": latency["n"],
            **({"tail_pct": latency["tail_pct"], "tail": latency["tail"]}
               if "tail" in latency else {}),
        },
    }


def describe(workload: str, name: str, metric: dict, spec: dict) -> str:
    unit = spec["unit"]
    line = f"{workload:8s} {name:40s} {metric['value']:>14.4f} {unit}"
    if "n" in metric:
        line += f"  n={metric['n']}"
    if "bound" in spec:
        line += f"  {spec['better']} is better, bound {spec['bound']:.0%}"
    if "tail" in metric:
        line += f"  p{metric['tail_pct']:g}={metric['tail']:.4f} {unit}"
    return line


def setup_times(workload: str, config_path: Path, env: dict, work: Path, host) -> list[float]:
    """``SETUP_PROBES`` set-up times, each scaled by the host probes
    around it (the stage also holds the probe process's exit)."""
    import perf_stats

    timer = perf_stats.ScaledTimer(host)
    times = []
    for _ in range(SETUP_PROBES):
        timer.restart()
        elapsed = setup_probe(workload, config_path, env, work)
        wall, scaled = timer.lap()
        times.append(elapsed * scaled / wall)
    return times


def run_workload(args, workload: str, spec: dict, inputs: dict, sizes, work: Path) -> dict:
    import perf_stats

    work.mkdir(parents=True, exist_ok=True)
    (work / "tmp").mkdir(exist_ok=True)
    env = child_env(work)
    spans = Path(args.spans) if args.spans else Path(args.work) / "spans.json"
    if args.workload is None or not args.spans:
        spans = spans.with_name(f"{spans.stem}-{workload}{spans.suffix}")
    config = {
        "workload": workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "sizes": asdict(sizes),
        "inputs": inputs,
        "work": str(work),
        "nproc": os.cpu_count() or 1,
        "result": str(work / "result.json"),
        "spans": str(spans.resolve()),
    }
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    host = perf_stats.HostProbe(cpus_for(workload))
    try:
        setups = setup_times(workload, config_path, env, work, host)
        child = run_child(workload, config, config_path, env, host)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    e2e = end_to_end(child, setups)
    layer = {
        name: {"value": value} for name, value in child.get("layer", {}).items()
    }
    report = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "end_to_end": e2e,
        "per_layer": layer,
        "labels_sha256": child["run"]["labels_sha256"],
        "timings": {
            name: perf_stats.summarize(values)
            for name, values in child["run"]["timings"].items()
        },
        "info": child["run"].get("info", {}),
        "raw": child["run"]["raw"],
        "setup_s": setups,
        # The host's speed over the run: every probe's seconds, in order
        # (README, "Host speed").
        "host_probe_s": child["run"]["probes_s"],
        "failures": child["failures"],
        "skipped": child["skipped"],
    }
    if args.trace:
        report.update(
            spans=str(spans),
            spans_summary=child["spans_summary"],
            missing_targets=child["missing_targets"],
            traced_labels_sha256=child["traced"]["labels_sha256"],
        )
    for kind, metrics in (("end_to_end", e2e), ("per_layer", layer)):
        for entry in spec[kind]:
            if entry["name"] not in metrics and (kind == "end_to_end" or args.trace):
                raise RuntimeError(f"{workload}: no value for {kind} metric {entry['name']}")
            if entry["name"] in metrics:
                metrics[entry["name"]]["unit"] = entry["unit"]
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no repro sources at {SRC} (run from a full checkout)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    # The seed's time-shifted copies of the cached inputs live only as
    # long as this run.
    seed_inputs = Path(args.work) / f"{os.getpid()}-inputs"
    try:
        return run_all(args, json.loads(SPEC.read_text()), seed_inputs)
    finally:
        shutil.rmtree(seed_inputs, ignore_errors=True)


def run_all(args, spec: dict, seed_inputs: Path) -> int:
    import perf_inputs
    import perf_stats

    sizes = perf_inputs.Sizes.at(args.scale)
    started = time.perf_counter()
    inputs = perf_inputs.ensure_inputs(Path(args.inputs), args.seed, sizes, seed_inputs)
    generated = time.perf_counter() - started
    results = {
        "seed": args.seed,
        "corpus": perf_inputs.CORPUS,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": perf_stats.host_record(),
        "inputs": {
            "seconds_to_prepare": generated,
            "packets": {"day": inputs["day"]["packets"],
                        "archive": sum(e["packets"] for e in inputs["archive"])},
            "sha256": perf_inputs.input_hashes(inputs),
        },
        "workloads": {},
    }
    for workload in [args.workload] if args.workload else WORKLOADS:
        work = Path(args.work) / f"{os.getpid()}-{workload}"
        try:
            report = run_workload(args, workload, spec, inputs, sizes, work)
        except (RuntimeError, OSError, ValueError, KeyError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
        results["workloads"][workload] = report
        for kind in ("end_to_end", "per_layer") if args.trace else ("end_to_end",):
            for entry in spec[kind]:
                metric = report[kind][entry["name"]]
                print(describe(workload, entry["name"], metric, entry))
        status = "ok" if report["correct"] else f"FAILED {report['failures']}"
        print(f"{workload:8s} checks: {report['attempted']} operations, "
              f"{report['failed']} failed ({status})")
        for what in report["skipped"]:
            print(f"{workload:8s} check skipped: {what}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    reports = results["workloads"]
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {
        (name if args.workload else f"{workload}.{name}"): {
            "value": report[kind][name]["value"],
            "unit": report[kind][name]["unit"],
        }
        for workload, report in reports.items()
        for name in (entry["name"] for entry in spec[kind])
    }
    correct = all(r["correct"] for r in reports.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
