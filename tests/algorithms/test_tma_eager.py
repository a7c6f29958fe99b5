"""Tests for TMA's eager influence-region trim variant (ablation)."""

import random

import pytest

from repro.algorithms import make_algorithm
from repro.algorithms.tma import TopKMonitoringAlgorithm
from repro.core.queries import TopKQuery
from repro.core.scoring import LinearFunction
from repro.core.tuples import RecordFactory

from tests.conftest import brute_top_k


def test_factory_accepts_flag():
    algo = make_algorithm("tma", 2, cells_per_axis=4, eager_cleanup=True)
    assert isinstance(algo, TopKMonitoringAlgorithm)
    assert algo.eager_cleanup


def test_eager_trims_after_gate_rise():
    factory = RecordFactory()
    algo = TopKMonitoringAlgorithm(2, cells_per_axis=6, eager_cleanup=True)
    low = factory.make((0.5, 0.5))
    algo.process_cycle([low], [])
    query = TopKQuery(LinearFunction([1.0, 1.0]), k=1)
    query.qid = 0
    algo.register(query)
    cells_before = len(algo.influence_region(0))
    # A far better arrival raises the gate: the influence region
    # shrinks, and eager mode trims it immediately.
    high = factory.make((0.95, 0.95))
    algo.process_cycle([high], [])
    cells_after = len(algo.influence_region(0))
    assert cells_after < cells_before
    threshold = algo.current_result(0)[0].score
    for coords in algo.influence_region(0):
        assert algo.grid.maxscore(coords, query.function) >= threshold


def test_lazy_keeps_stale_entries():
    """The paper's default: the same scenario leaves the region alone."""
    factory = RecordFactory()
    algo = TopKMonitoringAlgorithm(2, cells_per_axis=6, eager_cleanup=False)
    algo.process_cycle([factory.make((0.5, 0.5))], [])
    query = TopKQuery(LinearFunction([1.0, 1.0]), k=1)
    query.qid = 0
    algo.register(query)
    cells_before = len(algo.influence_region(0))
    algo.process_cycle([factory.make((0.95, 0.95))], [])
    cells_after = len(algo.influence_region(0))
    assert cells_after == cells_before


@pytest.mark.parametrize("seed", range(4))
def test_eager_results_match_oracle(seed):
    rng = random.Random(400 + seed)
    factory = RecordFactory()
    algo = TopKMonitoringAlgorithm(2, cells_per_axis=5, eager_cleanup=True)
    queries = []
    for qid in range(3):
        query = TopKQuery(
            LinearFunction([rng.uniform(0.1, 1), rng.uniform(0.1, 1)]),
            k=rng.choice([1, 3, 6]),
        )
        query.qid = qid
        algo.register(query)
        queries.append(query)
    window = []
    for _ in range(30):
        arrivals = [
            factory.make((rng.random(), rng.random())) for _ in range(6)
        ]
        window.extend(arrivals)
        expired = []
        while len(window) > 40:
            expired.append(window.pop(0))
        algo.process_cycle(arrivals, expired)
        for query in queries:
            got = [e.rid for e in algo.current_result(query.qid)]
            expected = [e.rid for e in brute_top_k(window, query)]
            assert got == expected


def test_eager_constrained_query_oracle():
    from repro.extensions.constrained import constrained_query

    rng = random.Random(9)
    factory = RecordFactory()
    algo = TopKMonitoringAlgorithm(2, cells_per_axis=6, eager_cleanup=True)
    query = constrained_query(
        LinearFunction([1.0, 2.0]), k=3, ranges=[(0.2, 0.8), None]
    )
    query.qid = 0
    algo.register(query)
    window = []
    for _ in range(25):
        arrivals = [
            factory.make((rng.random(), rng.random())) for _ in range(5)
        ]
        window.extend(arrivals)
        expired = []
        while len(window) > 35:
            expired.append(window.pop(0))
        algo.process_cycle(arrivals, expired)
        got = [e.rid for e in algo.current_result(0)]
        expected = [e.rid for e in brute_top_k(window, query)]
        assert got == expected
