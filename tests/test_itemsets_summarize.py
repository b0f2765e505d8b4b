"""Unit tests for repro.rules.itemsets and repro.rules.summarize."""

import pytest

from repro.net.flow import FlowKey
from repro.rules.apriori import apriori
from repro.rules.itemsets import (
    Rule,
    itemset_to_rule,
    rules_from_result,
    transactions_from_flows,
    transactions_from_packets,
)
from repro.rules.summarize import summarize_transactions
from tests.conftest import make_packet


class TestTransactions:
    def test_packet_encoding(self):
        p = make_packet(src=1, dst=2, sport=10, dport=20)
        (t,) = transactions_from_packets([p])
        assert ("src", 1) in t
        assert ("dport", 20) in t
        assert len(t) == 4

    def test_flow_encoding(self):
        key = FlowKey(1, 10, 2, 20, 6)
        (t,) = transactions_from_flows([key])
        assert ("sport", 10) in t
        assert ("dst", 2) in t


class TestRule:
    def test_degree(self):
        assert Rule().degree == 0
        assert Rule(src=1, dport=80).degree == 2
        assert Rule(src=1, sport=2, dst=3, dport=4).degree == 4

    def test_describe(self):
        rule = Rule(src=0x01020304, dport=80)
        assert rule.describe() == "<1.2.3.4, *, *, 80>"

    def test_to_filter(self):
        rule = Rule(src=1, dport=80)
        f = rule.to_filter(t0=1.0, t1=2.0)
        assert f.src == 1 and f.dport == 80
        assert f.t0 == 1.0 and f.t1 == 2.0

    def test_itemset_to_rule(self):
        rule = itemset_to_rule(
            frozenset([("src", 5), ("dport", 53)]), count=3, support=0.5
        )
        assert rule.src == 5 and rule.dport == 53
        assert rule.sport is None and rule.dst is None
        assert rule.count == 3 and rule.support == 0.5

    def test_itemset_to_rule_rejects_unknown_field(self):
        with pytest.raises(ValueError):
            itemset_to_rule(frozenset([("nope", 5)]))


class TestRulesFromResult:
    def test_sorted_by_degree_then_support(self):
        packets = [make_packet(src=1, dst=2, sport=10, dport=20)] * 10
        result = apriori(transactions_from_packets(packets), min_support_pct=50)
        rules = rules_from_result(result)
        assert rules[0].degree == 4

    def test_limit(self):
        packets = [
            make_packet(src=i, dst=i + 100, sport=i, dport=i) for i in range(1, 6)
        ] * 2
        result = apriori(transactions_from_packets(packets), min_support_pct=10)
        rules = rules_from_result(result, limit=2)
        assert len(rules) == 2


class TestSummarize:
    def test_homogeneous_traffic_degree_4(self):
        packets = [make_packet(src=1, dst=2, sport=10, dport=20)] * 20
        summary = summarize_transactions(transactions_from_packets(packets))
        assert summary.rule_degree == pytest.approx(4.0)
        assert summary.rule_support == pytest.approx(100.0)

    def test_paper_example_http_server(self):
        # Server IPA:80 -> IPB and IPC: two rules of degree 3 (src,
        # sport, dst), each covering half the traffic.
        packets = [make_packet(src=1, sport=80, dst=2, dport=1000 + i) for i in range(10)]
        packets += [make_packet(src=1, sport=80, dst=3, dport=2000 + i) for i in range(10)]
        summary = summarize_transactions(
            transactions_from_packets(packets), min_support_pct=20
        )
        assert summary.rule_degree == pytest.approx(3.0)
        assert summary.rule_support == pytest.approx(100.0)
        described = {r.describe() for r in summary.rules}
        assert "<0.0.0.1, 80, 0.0.0.2, *>" in described
        assert "<0.0.0.1, 80, 0.0.0.3, *>" in described

    def test_incoherent_traffic_low_degree(self):
        packets = [
            make_packet(src=i, dst=i + 500, sport=i + 1, dport=80)
            for i in range(1, 30)
        ]
        summary = summarize_transactions(transactions_from_packets(packets))
        # Only dport=80 is frequent.
        assert summary.rule_degree == pytest.approx(1.0)

    def test_empty(self):
        summary = summarize_transactions([])
        assert summary.rules == []
        assert summary.rule_support == 0.0

    def test_describe_renders(self):
        packets = [make_packet()] * 5
        summary = summarize_transactions(transactions_from_packets(packets))
        assert "[100%]" in summary.describe()


def test_label_csv_does_not_depend_on_string_hashing(tmp_path):
    """Rule rows come out in the same order in every process: ties in
    degree and support break on the rule's 4-tuple, not on the set
    iteration order that string hashing (``PYTHONHASHSEED``) decides.
    This day has two 0.21-support rules in one community."""
    import os
    import subprocess
    import sys

    from repro.mawi.archive import SyntheticArchive
    from repro.net.pcap import write_pcap

    archive = SyntheticArchive(seed=2010, trace_duration=30)
    pcap = tmp_path / "day.pcap"
    write_pcap(archive.day("2004-07-26").trace, str(pcap))
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    outputs = []
    for hash_seed in ("0", "3"):
        out = tmp_path / f"labels-{hash_seed}.csv"
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH")))
            ),
        )
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "label", str(pcap),
             "--out", str(out)],
            env=env,
            check=True,
            capture_output=True,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
