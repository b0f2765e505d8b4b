"""Shared benchmark fixtures.

All benchmarks run on the same deterministic synthetic-archive corpus:

* ``corpus`` — one archive day per sampled (year, month) across
  2001-2009, each with its full pipeline run (SCANN decisions, labels).
* ``granularity_runs`` — a smaller day sample with the similarity
  estimator run at each traffic granularity (for Figs. 3-5).

The corpus is session-scoped; figure benchmarks only aggregate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import pytest

from repro.core.estimator import SimilarityEstimator
from repro.detectors.registry import default_ensemble, run_ensemble
from repro.labeling.heuristics import label_community
from repro.labeling.mawilab import MAWILabPipeline
from repro.mawi.archive import SyntheticArchive
from repro.net.flow import Granularity

ARCHIVE_SEED = 2010
TRACE_DURATION = 30.0

#: Two sampled days per year, spring and autumn, 2001-2009 (the paper
#: evaluates the combiner on all days of 2001-2009; we subsample for
#: tractability while spanning every era).
CORPUS_DATES = [
    f"{year}-{month:02d}-01"
    for year in range(2001, 2010)
    for month in (3, 9)
]

GRANULARITY_DATES = ["2003-09-01", "2004-06-01", "2006-02-01", "2008-03-01"]


@dataclass
class CorpusDay:
    """One archive day plus its pipeline artifacts."""

    date: str
    day: object  # ArchiveDay
    result: object  # PipelineResult
    heuristics: list  # HeuristicLabel per community


def _label_all(result):
    cs = result.community_set
    return [label_community(c, cs.extractor) for c in cs.communities]


@pytest.fixture(scope="session")
def archive():
    return SyntheticArchive(seed=ARCHIVE_SEED, trace_duration=TRACE_DURATION)


@pytest.fixture(scope="session")
def pipeline():
    return MAWILabPipeline()


@pytest.fixture(scope="session")
def corpus(archive, pipeline):
    """Pipeline runs over the 2001-2009 day sample."""
    days = []
    for date in CORPUS_DATES:
        day = archive.day(date)
        result = pipeline.run(day.trace)
        days.append(
            CorpusDay(
                date=date,
                day=day,
                result=result,
                heuristics=_label_all(result),
            )
        )
    return days


@pytest.fixture(scope="session")
def granularity_runs(archive):
    """(date, granularity) -> CommunitySet over the small day sample."""
    ensemble = default_ensemble()
    runs = {}
    for date in GRANULARITY_DATES:
        day = archive.day(date)
        alarms = run_ensemble(day.trace, ensemble)
        for granularity in (
            Granularity.PACKET,
            Granularity.UNIFLOW,
            Granularity.BIFLOW,
        ):
            estimator = SimilarityEstimator(
                granularity=granularity, edge_threshold=0.1
            )
            runs[(date, granularity)] = estimator.build(day.trace, alarms)
    return runs


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark accounting."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def best_of_interleaved(fns, reps: int) -> list[tuple[float, object]]:
    """Best time and last result of each callable over ``reps`` rounds.

    The callables alternate within every round (a, b, a, b, ...), so a
    drift in host speed slows both sides of a ratio alike instead of
    landing on whichever block of repetitions ran during it.
    """
    best = [(float("inf"), None)] * len(fns)
    for _ in range(reps):
        for i, fn in enumerate(fns):
            started = time.perf_counter()
            result = fn()
            best[i] = (min(best[i][0], time.perf_counter() - started), result)
    return best
