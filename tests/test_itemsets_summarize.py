"""Unit tests for repro.rules.itemsets and repro.rules.summarize."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.flow import FlowKey
from repro.net.table import PacketTable
from repro.rules.apriori import apriori, coverage
from repro.rules.itemsets import (
    Rule,
    flow_block,
    itemset_to_rule,
    packet_block,
    ranked_maximal,
    transactions_from_block,
)
from repro.rules.summarize import CommunitySummary, summarize_transactions
from tests.conftest import make_packet


def _block(packets):
    return packet_block(PacketTable.from_packets(packets))


def _transactions(packets):
    return transactions_from_block(_block(packets))


class TestTransactions:
    def test_packet_encoding(self):
        p = make_packet(src=1, dst=2, sport=10, dport=20)
        (t,) = _transactions([p])
        assert ("src", 1) in t
        assert ("dport", 20) in t
        assert len(t) == 4

    def test_flow_encoding(self):
        key = FlowKey(1, 10, 2, 20, 6)
        (t,) = transactions_from_block(flow_block([key]))
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
        result = apriori(_transactions(packets), min_support_pct=50)
        rules = ranked_maximal(result)
        assert len(rules[0]) == 4

    def test_limit(self):
        packets = [
            make_packet(src=i, dst=i + 100, sport=i, dport=i) for i in range(1, 6)
        ] * 2
        result = apriori(_transactions(packets), min_support_pct=10)
        rules = ranked_maximal(result, limit=2)
        assert len(rules) == 2


class TestSummarize:
    def test_homogeneous_traffic_degree_4(self):
        packets = [make_packet(src=1, dst=2, sport=10, dport=20)] * 20
        summary = summarize_transactions(_block(packets))
        assert summary.rule_degree == pytest.approx(4.0)
        assert summary.rule_support == pytest.approx(100.0)

    def test_paper_example_http_server(self):
        # Server IPA:80 -> IPB and IPC: two rules of degree 3 (src,
        # sport, dst), each covering half the traffic.
        packets = [make_packet(src=1, sport=80, dst=2, dport=1000 + i) for i in range(10)]
        packets += [make_packet(src=1, sport=80, dst=3, dport=2000 + i) for i in range(10)]
        summary = summarize_transactions(_block(packets), min_support_pct=20)
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
        summary = summarize_transactions(_block(packets))
        # Only dport=80 is frequent.
        assert summary.rule_degree == pytest.approx(1.0)

    def test_empty(self):
        summary = summarize_transactions([])
        assert summary.rules == []
        assert summary.rule_support == 0.0

    def test_describe_renders(self):
        packets = [make_packet()] * 5
        summary = summarize_transactions(_block(packets))
        assert "[100%]" in summary.describe()


def _reference_summary(block, pct, max_rules):
    """Step 4's summary from the oracle functions: Apriori's ranked
    maximal itemsets and the reference coverage."""
    transactions = transactions_from_block(block)
    if not transactions:
        return CommunitySummary()
    itemsets = ranked_maximal(apriori(transactions, pct), max_rules)
    if not itemsets:
        return CommunitySummary(n_transactions=len(transactions))
    rules = [
        itemset_to_rule(s.items, count=s.count, support=s.support)
        for s in itemsets
    ]
    return CommunitySummary(
        rules=rules,
        rule_degree=sum(rule.degree for rule in rules) / len(rules),
        rule_support=coverage(transactions, itemsets) * 100.0,
        n_transactions=len(transactions),
    )


@st.composite
def summary_inputs(draw):
    """A community block, a support and a rule budget."""
    n = draw(st.sampled_from([1, 3, 5, 6, 7, 25, 64]) | st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.integers(0, draw(st.integers(1, 8)), size=(n, 4))
    if n and draw(st.booleans()):
        block = block[rng.integers(0, min(n, 4), size=n)]
    if draw(st.booleans()):
        block[:, 0] |= 0xFFFFFF00
    pct = draw(
        st.sampled_from([10.0, 15.0, 20.0, 25.0, 20.1])
        | st.floats(min_value=0.01, max_value=100.0)
    )
    return block, pct, draw(st.sampled_from([0, 1, 6, 20]))


@given(summary_inputs())
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_summaries_are_equal_across_engines(payload):
    """Whole summaries, floats included: the numpy engine, the python
    engine and the oracle's rule support ``coverage(...) * 100.0``."""
    block, pct, max_rules = payload
    numpy_summary = summarize_transactions(block, pct, max_rules, engine="numpy")
    python_summary = summarize_transactions(block, pct, max_rules, engine="python")
    assert numpy_summary == python_summary
    assert numpy_summary == _reference_summary(block, pct, max_rules)


def _summary_cases():
    wide = np.tile([[5, 80, 0xFFFFFFFF, 1000]], (90, 1))
    wide[:, 3] = np.arange(90)  # dport: no value is frequent
    server = [[9, 53, 1000 + i, 2000 + i] for i in range(70)]
    return {
        # 20 % of 5 rows is one row: each distinct row is a rule, the
        # repeated one first with its count.
        "duplicate": (
            [[1, 2, 3, 4], [1, 2, 3, 4], [5, 6, 7, 8], [9, 9, 9, 9], [1, 2, 3, 5]],
            20.0,
            20,
            [((1, 2, 3, 4), 2)] + [(row, 1) for row in ((1, 2, 3, 5), (5, 6, 7, 8), (9, 9, 9, 9))],
            100.0,
        ),
        # 25 distinct rules at 1 %; the 20-rule cut covers 80 %.
        "cut": (
            [[i, i, i, i] for i in range(25)],
            1.0,
            20,
            [((i, i, i, i), 1) for i in range(20)],
            80.0,
        ),
        "unique_field": (wide, 20.0, 20, [((5, 80, 0xFFFFFFFF, None), 90)], 100.0),
        "max_values": (
            [[0xFFFFFFFF, 0xFFFF, 0xFFFFFFFF, 0xFFFF]] * 70 + [[0, 0, 0, 0]] * 30,
            25.0,
            20,
            [((0xFFFFFFFF, 0xFFFF, 0xFFFFFFFF, 0xFFFF), 70), ((0, 0, 0, 0), 30)],
            100.0,
        ),
        # The more specific rule ranks first though it counts fewer
        # rows; the two-rule cut keeps both.
        "size_first": (
            [[1, 2, 3, 4]] * 30 + server,
            25.0,
            2,
            [((1, 2, 3, 4), 30), ((9, 53, None, None), 70)],
            100.0,
        ),
    }


@pytest.mark.parametrize("engine", ["numpy", "python"])
@pytest.mark.parametrize("case", sorted(_summary_cases()))
def test_summary_cases(case, engine):
    block, pct, max_rules, rules, rule_support = _summary_cases()[case]
    block = np.asarray(block, dtype=np.int64)
    summary = summarize_transactions(block, pct, max_rules, engine=engine)
    assert [
        ((r.src, r.sport, r.dst, r.dport), r.count) for r in summary.rules
    ] == rules
    assert summary.rule_support == rule_support
    assert summary == _reference_summary(block, pct, max_rules)


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
