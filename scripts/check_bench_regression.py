#!/usr/bin/env python
"""Fail CI when bench throughput regresses against the committed baseline.

Usage::

    python scripts/check_bench_regression.py bench.json BENCH_baseline.json \
        [--tolerance 0.2]

Compares the throughput metrics of a fresh ``repro bench`` artifact
against ``BENCH_baseline.json`` (committed at the repository root) and
exits non-zero if any tracked metric fell more than ``tolerance``
(default 20 %) below baseline:

* **batch** — offline pipeline packets/sec (``n_packets / total``);
* **streaming** — ``streaming.packets_per_sec``;
* **alarm path** — ``alarm_path.columnar.alarms_per_sec`` (Steps 2-4
  throughput over the columnar ``AlarmTable`` data path);
* **serve** — ``serve.queries_per_sec`` (live ``/labels`` query
  throughput against the running daemon);
* **warehouse** — ``warehouse.warehouse_queries_per_sec`` (cross-day
  predicate queries over memory-mapped label columns).

Higher-is-better only: faster-than-baseline runs always pass, and CI
hardware faster than the baseline host can only add headroom.
Host-relative ratios are additionally enforced so the fast paths
cannot silently rot:

* the alarm-path comparison keeps the columnar data path at least 2x
  the object path (``columnar_speedup >= 2`` within tolerance);
* the end-to-end fan-out labeling legs keep the shm pool at least 2x
  a single process (``shm_vs_single >= 2`` within tolerance).  This
  needs real parallelism, so it is enforced only when the candidate
  ran with ``workers > 1`` on a host with more than one CPU
  (``fanout.cpu_count``) — a single-core runner records a skip
  instead of a false failure;
* the detect leg keeps the shared feature-plane cache at least 1.5x
  the uncached ensemble (``detect_leg.detect_speedup >= 1.5`` within
  tolerance), following the same single-core self-skip convention
  (wall-clock ratios on oversubscribed single-core runners are too
  noisy to gate on);
* the warehouse leg keeps mmap cross-day queries at least 2x the CSV
  re-parse path (``warehouse.query_speedup >= 2`` within tolerance —
  the 10x month-scale claim is enforced by
  ``benchmarks/test_warehouse_perf.py``; the bench leg's handful of
  days measures a smaller corpus) and the delta recompute at least as
  fast as full relabeling (``recompute_speedup >= 1`` within
  tolerance).

Two absolute bounds ride along (no tolerance):

* when the candidate bench ran with ``--profile``, the serve leg
  records per-feed queue-depth high-water marks, and any peak above
  its configured ``max_packets`` bound fails the gate outright —
  backpressure must keep daemon memory bounded;
* the warehouse leg's heuristics-only recompute must rerun **zero**
  Step 1 detections (``warehouse.recompute.step1_reruns == 0``) — a
  nonzero count means delta recompute silently degraded to full
  relabeling.

Gate accounting is machine-readable: every gate evaluated lands in a
``gates`` object written back into the *candidate* JSON artifact —
``{"ran": [names...], "skipped": [{"gate", "reason"}...]}`` — so CI
artifacts record exactly which gates a run enforced and which
self-skipped (each skip also prints a loud one-line ``NOTICE:`` for
the human reading the log).
"""

from __future__ import annotations

import argparse
import json
import sys


def batch_packets_per_sec(payload: dict) -> float:
    return payload["n_packets"] / max(payload["total"], 1e-9)


def collect_metrics(payload: dict) -> dict[str, float]:
    metrics = {
        "batch_packets_per_sec": batch_packets_per_sec(payload),
        "streaming_packets_per_sec": payload["streaming"][
            "packets_per_sec"
        ],
    }
    alarm_path = payload.get("alarm_path")
    if alarm_path is not None:
        metrics["alarm_path_columnar_alarms_per_sec"] = alarm_path[
            "columnar"
        ]["alarms_per_sec"]
    serve = payload.get("serve")
    if serve is not None:
        metrics["serve_queries_per_sec"] = serve["queries_per_sec"]
    warehouse = payload.get("warehouse")
    if warehouse is not None:
        metrics["warehouse_queries_per_sec"] = warehouse[
            "warehouse_queries_per_sec"
        ]
    return metrics


class GateLedger:
    """Every gate's outcome, for the artifact's ``gates`` object."""

    def __init__(self) -> None:
        self.ran: list[str] = []
        self.skipped: list[dict] = []
        self.failures: list[str] = []

    def ok(self, gate: str) -> None:
        self.ran.append(gate)

    def fail(self, gate: str) -> None:
        self.ran.append(gate)
        self.failures.append(gate)

    def skip(self, gate: str, reason: str) -> None:
        self.skipped.append({"gate": gate, "reason": reason})
        print(f"NOTICE: {gate} gate SKIPPED ({reason})")

    def to_payload(self) -> dict:
        return {"ran": self.ran, "skipped": self.skipped}


def check_ratio(
    ledger: GateLedger,
    gate: str,
    ratio: float,
    target: float,
    tolerance: float,
    label: str,
) -> None:
    """One higher-is-better ratio gate with fractional tolerance."""
    floor = target * (1.0 - tolerance)
    status = "ok" if ratio >= floor else "REGRESSED"
    print(f"{label}: {ratio:.2f}x (floor {floor:.2f}x) {status}")
    if ratio >= floor:
        ledger.ok(gate)
    else:
        ledger.fail(gate)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("candidate", help="fresh repro bench JSON")
    parser.add_argument("baseline", help="committed BENCH_baseline.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional regression (0.2 = 20%%)",
    )
    args = parser.parse_args(argv)

    with open(args.candidate) as handle:
        candidate = json.load(handle)
    with open(args.baseline) as handle:
        baseline = json.load(handle)

    ledger = GateLedger()
    candidate_metrics = collect_metrics(candidate)
    baseline_metrics = collect_metrics(baseline)
    for name, base_value in baseline_metrics.items():
        got = candidate_metrics.get(name)
        if got is None:
            ledger.skip(name, "candidate bench did not run that leg")
            continue
        floor = base_value * (1.0 - args.tolerance)
        status = "ok" if got >= floor else "REGRESSED"
        print(
            f"{name}: {got:,.0f} vs baseline {base_value:,.0f} "
            f"(floor {floor:,.0f}) {status}"
        )
        if got >= floor:
            ledger.ok(name)
        else:
            ledger.fail(name)

    # End-to-end fan-out win: only meaningful when the candidate run
    # actually had parallel hardware and used it.
    fanout = candidate.get("fanout", {})
    if fanout.get("workers", 0) > 1 and fanout.get("cpu_count", 1) > 1:
        check_ratio(
            ledger,
            "fanout_shm_vs_single",
            fanout["shm_vs_single"],
            2.0,
            args.tolerance,
            "fanout shm_vs_single",
        )
    elif fanout:
        ledger.skip(
            "fanout_shm_vs_single",
            f"workers={fanout.get('workers')}, "
            f"cpu_count={fanout.get('cpu_count', 1)}; needs a "
            "multi-core parallel run",
        )

    # Plane-cache win: cached ensemble Step 1 vs uncached, same
    # single-core self-skip convention as the fan-out ratios.
    detect_leg = candidate.get("detect_leg", {})
    detect_speedup = detect_leg.get("detect_speedup")
    if detect_speedup is not None:
        if detect_leg.get("cpu_count", 1) > 1:
            check_ratio(
                ledger,
                "detect_leg_detect_speedup",
                detect_speedup,
                1.5,
                args.tolerance,
                "detect_leg detect_speedup",
            )
        else:
            ledger.skip(
                "detect_leg_detect_speedup",
                f"cpu_count={detect_leg.get('cpu_count', 1)}; ratio "
                f"measured {detect_speedup:.2f}x, gated only on "
                "multi-core hosts",
            )

    # Bounded-memory gate: the serve leg's queue high-water marks
    # (recorded under ``repro bench --profile``) must stay within their
    # configured bounds — a peak above its bound means backpressure
    # stopped blocking producers and daemon memory is growing.  This is
    # a correctness bound, not a throughput ratio: no tolerance.
    serve_queues = candidate.get("serve", {}).get("queues")
    if serve_queues is not None:
        for feed_name, queue in serve_queues.items():
            peak = queue["peak_packets"]
            bound = queue["max_packets"]
            status = "ok" if peak <= bound else "UNBOUNDED"
            print(
                f"serve queue {feed_name}: peak {peak:,} packets "
                f"(bound {bound:,}) {status}"
            )
            gate = f"serve_queue_{feed_name}_bounded"
            if peak <= bound:
                ledger.ok(gate)
            else:
                ledger.fail(gate)
    elif candidate.get("serve") is not None:
        ledger.skip(
            "serve_queue_bounded",
            "candidate bench ran without --profile; no queue "
            "high-water marks recorded",
        )

    alarm_speedup = candidate.get("alarm_path", {}).get("columnar_speedup")
    if alarm_speedup is not None:
        check_ratio(
            ledger,
            "alarm_path_columnar_speedup",
            alarm_speedup,
            2.0,
            args.tolerance,
            "alarm_path columnar_speedup",
        )

    # Warehouse gates: mmap queries must beat CSV re-parsing, and the
    # delta recompute must (a) never rerun Step 1 after a heuristics-
    # only change — an absolute correctness bound — and (b) beat full
    # relabeling wall-clock.
    warehouse = candidate.get("warehouse")
    if warehouse is not None:
        check_ratio(
            ledger,
            "warehouse_query_speedup",
            warehouse["query_speedup"],
            2.0,
            args.tolerance,
            "warehouse query_speedup",
        )
        recompute = warehouse["recompute"]
        reruns = recompute["step1_reruns"]
        status = "ok" if reruns == 0 else "DELTA BROKEN"
        print(
            f"warehouse recompute step1_reruns: {reruns} "
            f"(bound 0) {status}"
        )
        gate = "warehouse_recompute_zero_step1"
        if reruns == 0:
            ledger.ok(gate)
        else:
            ledger.fail(gate)
        check_ratio(
            ledger,
            "warehouse_recompute_speedup",
            recompute["recompute_speedup"],
            1.0,
            args.tolerance,
            "warehouse recompute_speedup",
        )
    else:
        ledger.skip(
            "warehouse_query_speedup",
            "candidate bench did not run the warehouse leg",
        )

    # Machine-readable gate accounting, written back into the artifact
    # CI archives: which gates this run enforced, which self-skipped.
    candidate["gates"] = ledger.to_payload()
    with open(args.candidate, "w") as handle:
        json.dump(candidate, handle, indent=2)
        handle.write("\n")
    print(
        f"gates: {len(ledger.ran)} ran, {len(ledger.skipped)} skipped "
        f"(recorded in {args.candidate})"
    )

    if ledger.failures:
        print(
            f"bench regression >{args.tolerance:.0%} in: "
            + ", ".join(ledger.failures),
            file=sys.stderr,
        )
        return 1
    print("bench within tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
