"""Unit tests for repro.rules.apriori."""

import pytest

from repro.errors import RuleMiningError
from repro.rules.apriori import apriori, coverage, min_support_count


class TestBasics:
    def test_empty_transactions(self):
        result = apriori([], min_support_pct=20)
        assert result.itemsets == []
        assert result.n_transactions == 0

    def test_single_transaction(self):
        result = apriori([("a", "b")], min_support_pct=50)
        items = {frozenset(s.items) for s in result.itemsets}
        assert frozenset({"a"}) in items
        assert frozenset({"a", "b"}) in items

    def test_support_threshold_respected(self):
        transactions = [("a",)] * 8 + [("b",)] * 2
        result = apriori(transactions, min_support_pct=50)
        items = {next(iter(s.items)) for s in result.itemsets}
        assert items == {"a"}

    def test_percentage_semantics(self):
        # 20% of 10 transactions = 2; "b" appears twice -> kept.
        transactions = [("a",)] * 8 + [("b",)] * 2
        result = apriori(transactions, min_support_pct=20)
        items = {next(iter(s.items)) for s in result.itemsets}
        assert items == {"a", "b"}

    def test_counts_and_support(self):
        transactions = [("a",)] * 3 + [("a", "b")] * 2
        result = apriori(transactions, min_support_pct=20)
        by_items = {s.items: s for s in result.itemsets}
        assert by_items[frozenset({"a"})].count == 5
        assert by_items[frozenset({"a"})].support == pytest.approx(1.0)
        assert by_items[frozenset({"a", "b"})].count == 2
        assert by_items[frozenset({"a", "b"})].support == pytest.approx(0.4)

    def test_invalid_support_rejected(self):
        with pytest.raises(RuleMiningError):
            apriori([("a",)], min_support_pct=0)
        with pytest.raises(RuleMiningError):
            apriori([("a",)], min_support_pct=101)

    def test_fractional_support_rounds_up(self):
        # 20.1 % of 5 transactions is 1.005: an itemset needs 2 of them.
        transactions = [("a",)] * 4 + [("b",)]
        result = apriori(transactions, min_support_pct=20.1)
        assert [s.items for s in result.itemsets] == [frozenset({"a"})]
        assert apriori(transactions, min_support_pct=20.0).of_size(1)[1].items == (
            frozenset({"b"})
        )

    def test_min_support_count_is_exact(self):
        assert min_support_count(5, 20.1, 4) == 2
        assert min_support_count(5, 20.0, 4) == 1
        assert min_support_count(3, 100 / 3, 4) == 2
        assert min_support_count(10, 0.01, 4) == 1
        assert min_support_count(0, 20.0, 4) == 1

    @pytest.mark.parametrize("max_size", [0, -1])
    def test_max_size_below_one_rejected(self, max_size):
        with pytest.raises(RuleMiningError):
            apriori([("a",)], min_support_pct=50, max_size=max_size)
        with pytest.raises(RuleMiningError):
            apriori([], min_support_pct=50, max_size=max_size)

    @pytest.mark.parametrize("engine", ["numpy", "python"])
    @pytest.mark.parametrize("rows", [1, 40])
    def test_kernels_share_the_threshold_and_checks(self, engine, rows):
        import numpy as np

        from repro.engine import get_engine

        kernel = get_engine(engine).kernel("maximal_itemsets")
        block = np.zeros((rows * 5, 4), dtype=np.int64)
        block[: rows * 4, 0] = 7
        heavy = frozenset({("src", 7), ("sport", 0), ("dst", 0), ("dport", 0)})
        light = frozenset({("src", 0), ("sport", 0), ("dst", 0), ("dport", 0)})
        # 20.1 % of the rows is more than the `rows` rows with src 0.
        itemsets, covered = kernel(block, 20.1)
        assert [s.items for s in itemsets] == [heavy]
        assert covered == rows * 4
        itemsets, covered = kernel(block, 20.0)
        assert [(s.items, s.count) for s in itemsets] == [
            (heavy, rows * 4),
            (light, rows),
        ]
        assert covered == rows * 5
        for pct in (0.0, -1.0, 100.5):
            with pytest.raises(RuleMiningError):
                kernel(block, pct)
        with pytest.raises(RuleMiningError):
            kernel(block[:0], 0.0)

    def test_max_size_limits_itemsets(self):
        transactions = [("a", "b", "c", "d")] * 5
        result = apriori(transactions, min_support_pct=50, max_size=2)
        assert max(len(s) for s in result.itemsets) == 2


class TestAprioriProperty:
    def test_subsets_of_frequent_are_frequent(self):
        transactions = [
            ("a", "b", "c"),
            ("a", "b"),
            ("a", "c"),
            ("b", "c"),
            ("a", "b", "c"),
        ]
        result = apriori(transactions, min_support_pct=40)
        frequent = {s.items for s in result.itemsets}
        for itemset in frequent:
            if len(itemset) > 1:
                for item in itemset:
                    assert itemset - {item} in frequent

    def test_support_antimonotone(self):
        transactions = [("a", "b", "c")] * 3 + [("a", "b")] * 3 + [("a",)] * 4
        result = apriori(transactions, min_support_pct=10)
        by_items = {s.items: s.count for s in result.itemsets}
        assert by_items[frozenset({"a"})] >= by_items[frozenset({"a", "b"})]
        assert by_items[frozenset({"a", "b"})] >= by_items[
            frozenset({"a", "b", "c"})
        ]


class TestMaximal:
    def test_maximal_excludes_subsets(self):
        transactions = [("a", "b", "c")] * 10
        result = apriori(transactions, min_support_pct=50)
        maximal = result.maximal()
        assert len(maximal) == 1
        assert maximal[0].items == frozenset({"a", "b", "c"})

    def test_maximal_keeps_incomparable_sets(self):
        transactions = [("a", "b")] * 5 + [("c", "d")] * 5
        result = apriori(transactions, min_support_pct=40)
        maximal = {s.items for s in result.maximal()}
        assert frozenset({"a", "b"}) in maximal
        assert frozenset({"c", "d"}) in maximal

    def test_of_size(self):
        transactions = [("a", "b")] * 4
        result = apriori(transactions, min_support_pct=50)
        assert len(result.of_size(1)) == 2
        assert len(result.of_size(2)) == 1


class TestCoverage:
    def test_full_coverage(self):
        transactions = [("a", "b")] * 4
        result = apriori(transactions, min_support_pct=50)
        assert coverage(transactions, result.maximal()) == pytest.approx(1.0)

    def test_partial_coverage(self):
        transactions = [("a",)] * 6 + [("z",)] * 4
        result = apriori(transactions, min_support_pct=50)
        # Only "a" is frequent; it covers 60% of the data.
        assert coverage(transactions, result.maximal()) == pytest.approx(0.6)

    def test_empty(self):
        assert coverage([], []) == 0.0
