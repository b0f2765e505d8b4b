#!/usr/bin/env python3
"""Compare two sets of benchmark results (parent against change).

    python3 benchmarks/perf/compare.py --parent p-*.json --change c-*.json

Each file is a ``run.py --out`` results file; a set holds the runs of
one commit (at least ten, alternating with the other commit's runs).
For every (workload, end-to-end metric) it prints each side's median
and quartiles and a verdict against the bound in ``BENCHMARK.json``:

``regressed``   the change's median is worse by more than the bound;
``unresolved``  the parent's own spread (IQR / median) is wider than
                the bound, and not every change run beats every parent run;
``improved``    the change wins at least 9 of 10 paired runs and its
                median is better by more than the parent's spread;
``worse``       the mirror image: the change loses at least 9 of 10
                paired runs and its median is worse by more than the
                parent's spread, but by less than the bound (the bound
                has to absorb the host's drift between unpaired sets;
                alternating pairs cancel most of it);
``within``      none of the above.

Per-layer metrics, present in traced results, are listed with their
medians only (they have no bound).  Exits 1 when anything regressed or
is unresolved: neither can be reported as unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import perf_stats  # noqa: E402

SPEC = BENCH.parents[1] / "BENCHMARK.json"


def load(paths: list[str], kind: str) -> dict:
    """{(workload, metric): [values in file order]}."""
    values: dict = {}
    for path in paths:
        results = json.loads(Path(path).read_text())
        for workload, report in results["workloads"].items():
            for name, metric in report.get(kind, {}).items():
                values.setdefault((workload, name), []).append(metric["value"])
    return values


def verdict(parent: list, change: list, better: str, bound: float) -> tuple[str, float]:
    """(verdict, how much worse the change's median is, as a share)."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = perf_stats.quartiles(parent)
    c_med = perf_stats.quartiles(change)[1]
    worse = sign * (c_med - p_med) / p_med if p_med else 0.0
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    if spread > bound and not all_better:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if pairs and wins >= 0.9 * len(pairs) and -worse > spread:
        return "improved", worse
    if pairs and losses >= 0.9 * len(pairs) and worse > spread:
        return "worse", worse
    return "within", worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    settled = True
    print(f"{'workload':9s}{'metric':28s}{'parent q1/med/q3':>34s}"
          f"{'change q1/med/q3':>34s}{'worse':>8s}  verdict")
    for kind in ("end_to_end", "per_layer"):
        parent, change = load(args.parent, kind), load(args.change, kind)
        for entry in spec[kind]:
            for workload in sorted({w for w, n in parent if n == entry["name"]}):
                key = (workload, entry["name"])
                if key not in change:
                    continue
                p, c = perf_stats.quartiles(parent[key]), perf_stats.quartiles(change[key])
                line = (f"{workload:9s}{entry['name']:28s}"
                        f"{p[0]:>11.4g}{p[1]:>11.4g}{p[2]:>11.4g} "
                        f"{c[0]:>11.4g}{c[1]:>11.4g}{c[2]:>11.4g}")
                if "bound" in entry:
                    result, worse = verdict(
                        parent[key], change[key], entry["better"], entry["bound"]
                    )
                    settled &= result not in ("regressed", "unresolved")
                    line += f"{worse:>+8.1%}  {result} (bound {entry['bound']:.0%})"
                print(line)
    return 0 if settled else 1


if __name__ == "__main__":
    sys.exit(main())
