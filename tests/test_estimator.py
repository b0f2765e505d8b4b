"""Unit tests for the similarity estimator and the community model."""

import numpy as np
import pytest

from repro.core.alarm_table import AlarmTable
from repro.core.community import Community
from repro.core.estimator import SimilarityEstimator
from repro.detectors.base import Alarm
from repro.net.filters import FeatureFilter
from repro.net.flow import Granularity
from repro.net.trace import Trace
from tests.conftest import make_packet


def alarm(config, src, t0=0.0, t1=10.0):
    return Alarm(
        detector=config.split("/")[0],
        config=config,
        t0=t0,
        t1=t1,
        filters=(FeatureFilter(src=src, t0=t0, t1=t1),),
    )


@pytest.fixture
def trace():
    packets = [make_packet(time=float(i % 10), src=1, dst=2, sport=100, dport=80) for i in range(10)]
    packets += [make_packet(time=float(i % 10), src=3, dst=4, sport=200, dport=53) for i in range(10)]
    return Trace(packets)


class TestEstimator:
    def test_similar_alarms_grouped(self, trace):
        alarms = [alarm("a/0", src=1), alarm("b/0", src=1), alarm("c/0", src=3)]
        estimator = SimilarityEstimator()
        result = estimator.build(trace, alarms)
        assert len(result.communities) == 2
        sizes = sorted(c.size for c in result.communities)
        assert sizes == [1, 2]

    def test_single_community_for_unrelated_alarm(self, trace):
        alarms = [alarm("a/0", src=99)]
        result = SimilarityEstimator().build(trace, alarms)
        assert result.n_single == 1
        assert result.communities[0].traffic == frozenset()

    def test_no_alarms(self, trace):
        result = SimilarityEstimator().build(trace, [])
        assert result.communities == []
        assert result.n_single == 0

    def test_traffic_union(self, trace):
        alarms = [alarm("a/0", src=1), alarm("b/0", src=1)]
        result = SimilarityEstimator().build(trace, alarms)
        community = result.communities[0]
        assert community.traffic == result.traffic_sets[0] | result.traffic_sets[1]

    def test_time_envelope(self, trace):
        alarms = [alarm("a/0", src=1, t0=1.0, t1=3.0), alarm("b/0", src=1, t0=2.0, t1=8.0)]
        result = SimilarityEstimator().build(trace, alarms)
        community = result.communities[0]
        assert community.t0 == 1.0
        assert community.t1 == 8.0

    def test_granularity_passthrough(self, trace):
        estimator = SimilarityEstimator(granularity=Granularity.PACKET)
        result = estimator.build(trace, [alarm("a/0", src=1)])
        assert result.granularity is Granularity.PACKET
        assert all(isinstance(i, int) for i in result.traffic_sets[0])


class TestCommunityModel:
    def test_detectors_and_configs(self, trace):
        alarms = [alarm("pca/optimal", src=1), alarm("pca/sensitive", src=1), alarm("kl/optimal", src=1)]
        result = SimilarityEstimator().build(trace, alarms)
        community = result.communities[0]
        assert community.detectors() == {"pca", "kl"}
        assert community.configs() == {"pca/optimal", "pca/sensitive", "kl/optimal"}

    def test_is_single(self):
        a = alarm("x/0", src=1)
        community = Community(
            id=0,
            alarm_ids=(0,),
            table=AlarmTable.from_alarms([a]),
            codes=np.empty(0, dtype=np.int64),
            decode=frozenset,
        )
        assert community.is_single

    def test_by_id(self, trace):
        result = SimilarityEstimator().build(trace, [alarm("a/0", src=1)])
        assert result.by_id(0).id == 0
        with pytest.raises(KeyError):
            result.by_id(99)

    def test_non_single_and_sizes(self, trace):
        alarms = [alarm("a/0", src=1), alarm("b/0", src=1), alarm("c/0", src=3)]
        result = SimilarityEstimator().build(trace, alarms)
        assert sorted(result.sizes()) == [1, 2]
        assert len(result.non_single()) == 1

    def test_describe(self, trace):
        result = SimilarityEstimator().build(trace, [alarm("a/0", src=1)])
        assert "community#0" in result.communities[0].describe()
