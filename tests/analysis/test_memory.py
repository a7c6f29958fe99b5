"""Tests for the paper-style space accounting."""

import pytest

from repro.algorithms import make_algorithm
from repro.analysis.memory import WORD, estimate_space
from repro.core.queries import TopKQuery
from repro.core.scoring import LinearFunction
from repro.core.tuples import RecordFactory


def feed(algorithm, count, dims=2, seed=1):
    import random

    rng = random.Random(seed)
    factory = RecordFactory()
    records = [
        factory.make(tuple(rng.random() for _ in range(dims)))
        for _ in range(count)
    ]
    algorithm.process_cycle(records, [])
    return records


class TestGridAccounting:
    def test_record_and_pointer_bytes(self):
        algo = make_algorithm("tma", 2, cells_per_axis=4)
        feed(algo, 100)
        space = estimate_space(algo)
        assert space.records == 100 * 4 * WORD  # (d + id + time) words
        assert space.point_lists == 100 * WORD
        assert space.sorted_lists == 0

    def test_influence_bytes_counted(self):
        algo = make_algorithm("tma", 2, cells_per_axis=4)
        feed(algo, 50)
        query = TopKQuery(LinearFunction([1.0, 1.0]), 5)
        query.qid = 0
        algo.register(query)
        space = estimate_space(algo)
        expected_entries = len(algo.influence_region(0))
        assert space.influence_lists == expected_entries * WORD
        assert expected_entries > 0

    def test_sma_charges_dominance_counters(self):
        tma = make_algorithm("tma", 2, cells_per_axis=4)
        sma = make_algorithm("sma", 2, cells_per_axis=4)
        feed(tma, 60, seed=2)
        feed(sma, 60, seed=2)
        for algo in (tma, sma):
            query = TopKQuery(LinearFunction([1.0, 1.0]), 10)
            query.qid = 0
            algo.register(query)
        # Same k entries but 3 words/entry vs 2 (Section 6).
        assert (
            estimate_space(sma).query_state
            > estimate_space(tma).query_state
        )


class TestTslAccounting:
    def test_sorted_lists_dominate(self):
        algo = make_algorithm("tsl", 3)
        feed(algo, 80, dims=3)
        space = estimate_space(algo)
        # d lists x N entries x (value + pointer)
        assert space.sorted_lists == 3 * 80 * 2 * WORD
        assert space.records == 80 * 5 * WORD

    def test_tsl_total_exceeds_grid_total(self):
        """Figure 20's shape: TSL's d sorted lists cost extra space."""
        tsl = make_algorithm("tsl", 2)
        tma = make_algorithm("tma", 2, cells_per_axis=4)
        feed(tsl, 200, seed=3)
        feed(tma, 200, seed=3)
        for algo in (tsl, tma):
            query = TopKQuery(LinearFunction([1.0, 1.0]), 10)
            query.qid = 0
            algo.register(query)
        assert estimate_space(tsl).total > estimate_space(tma).total


class TestMisc:
    def test_brute_records_only(self):
        algo = make_algorithm("brute", 2)
        feed(algo, 10)
        space = estimate_space(algo)
        assert space.records == 10 * 4 * WORD
        assert space.total == space.records

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            estimate_space(object())  # type: ignore[arg-type]

    def test_breakdown_dict(self):
        algo = make_algorithm("brute", 2)
        data = estimate_space(algo).as_dict()
        assert set(data) == {
            "records",
            "point_lists",
            "influence_lists",
            "query_state",
            "sorted_lists",
            "total",
        }

    def test_total_mb(self):
        algo = make_algorithm("brute", 2)
        feed(algo, 1000)
        space = estimate_space(algo)
        assert space.total_mb == pytest.approx(
            space.total / (1024 * 1024)
        )
