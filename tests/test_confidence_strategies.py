"""Unit tests for confidence scores and the avg/min/max strategies.

Includes the paper's Fig. 2 worked example.
"""

import numpy as np
import pytest

from repro.core.alarm_table import AlarmTable
from repro.core.community import Community, CommunitySet
from repro.core.confidence import (
    confidence_scores,
    configs_by_detector,
    vote_vector,
)
from repro.core.strategies import (
    AverageStrategy,
    MaximumStrategy,
    MinimumStrategy,
    split_by_decision,
)
from repro.detectors.base import Alarm
from repro.errors import CombinerError
from repro.net.filters import FeatureFilter


def make_community(config_names, community_id=0):
    table = AlarmTable.from_alarms(
        [
            Alarm(
                detector=name.split("/")[0],
                config=name,
                t0=0.0,
                t1=1.0,
                filters=(FeatureFilter(src=1),),
            )
            for name in config_names
        ]
    )
    return Community(
        id=community_id,
        alarm_ids=tuple(range(len(table))),
        table=table,
        codes=np.empty(0, dtype=np.int64),
        decode=frozenset,
    )


# The paper's Fig. 2: detectors A, B, C with tunings 0, 1, 2; community
# holds alarms from A0, A1, B0, B1, B2.
FIG2_CONFIGS = [f"{d}/{i}" for d in "ABC" for i in range(3)]
FIG2_COMMUNITY = make_community(["A/0", "A/1", "B/0", "B/1", "B/2"])


class TestConfidence:
    def test_fig2_scores(self):
        scores = confidence_scores(
            FIG2_COMMUNITY, configs_by_detector(FIG2_CONFIGS)
        )
        assert scores["A"] == pytest.approx(2 / 3)
        assert scores["B"] == pytest.approx(1.0)
        assert scores["C"] == pytest.approx(0.0)

    def test_configs_by_detector(self):
        grouped = configs_by_detector(["pca/a", "pca/b", "kl/a"])
        assert grouped == {"pca": ["pca/a", "pca/b"], "kl": ["kl/a"]}

    def test_empty_config_list_rejected(self):
        with pytest.raises(CombinerError):
            confidence_scores(FIG2_COMMUNITY, {"A": []})

    def test_vote_vector(self):
        votes = vote_vector(FIG2_COMMUNITY, FIG2_CONFIGS)
        assert votes == [1, 1, 0, 1, 1, 1, 0, 0, 0]


def community_set_of(communities):
    return CommunitySet(
        communities=communities,
        alarms=AlarmTable.empty(),
        traffic_sets=[],
    )


class TestStrategies:
    def test_fig2_average_accepts(self):
        # Average of confidence scores = (2/3 + 1 + 0)/3 = 5/9 > 0.5.
        decisions = AverageStrategy().classify(
            community_set_of([FIG2_COMMUNITY]), FIG2_CONFIGS
        )
        assert decisions[0].accepted
        assert decisions[0].mu == pytest.approx(5 / 9)

    def test_fig2_minimum_rejects(self):
        decisions = MinimumStrategy().classify(
            community_set_of([FIG2_COMMUNITY]), FIG2_CONFIGS
        )
        assert not decisions[0].accepted
        assert decisions[0].mu == 0.0

    def test_fig2_maximum_accepts(self):
        decisions = MaximumStrategy().classify(
            community_set_of([FIG2_COMMUNITY]), FIG2_CONFIGS
        )
        assert decisions[0].accepted
        assert decisions[0].mu == 1.0

    def test_average_rejects_single_detector_community(self):
        # Reported by every tuning of one of four detectors:
        # mu = 1/4 <= 0.5 -> inherently rejected (paper Section 4.2.3).
        configs = [f"{d}/{i}" for d in "ABCD" for i in range(3)]
        community = make_community(["A/0", "A/1", "A/2"])
        decisions = AverageStrategy().classify(
            community_set_of([community]), configs
        )
        assert not decisions[0].accepted

    def test_no_configs_rejected(self):
        with pytest.raises(CombinerError):
            AverageStrategy().classify(community_set_of([FIG2_COMMUNITY]), [])

    def test_decisions_aligned(self):
        c0 = make_community(["A/0"], community_id=0)
        c1 = make_community(FIG2_CONFIGS, community_id=1)
        decisions = MaximumStrategy().classify(
            community_set_of([c0, c1]), FIG2_CONFIGS
        )
        assert [d.community_id for d in decisions] == [0, 1]
        assert decisions[1].accepted

    def test_split_by_decision(self):
        c0 = make_community(["A/0"], community_id=0)
        c1 = make_community(FIG2_CONFIGS, community_id=1)
        communities = [c0, c1]
        decisions = MaximumStrategy().classify(
            community_set_of(communities), FIG2_CONFIGS
        )
        accepted, rejected = split_by_decision(communities, decisions)
        assert [c.id for c in accepted] == [0, 1] or len(accepted) + len(
            rejected
        ) == 2

    def test_split_length_mismatch(self):
        with pytest.raises(CombinerError):
            split_by_decision([FIG2_COMMUNITY], [])
