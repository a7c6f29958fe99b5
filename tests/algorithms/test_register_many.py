"""Grouped registration bursts (the PR 3 ROADMAP follow-up).

A burst of N similar queries registered in one cycle must get its
initial top-k computations through shared grid sweeps when
``grouped=True`` — previously each was computed solo even though the
cycle paths already grouped. Results must be identical either way.
"""

import random

import pytest

from repro.algorithms import make_algorithm
from repro.core.queries import TopKQuery
from repro.core.scoring import LinearFunction, QuadraticFunction
from repro.core.tuples import RecordFactory

from tests.integration.test_grouped_parity import influence_map


def fill_grid(algorithm, seed=11, count=60):
    rng = random.Random(seed)
    factory = RecordFactory()
    records = [
        factory.make((rng.random(), rng.random())) for _ in range(count)
    ]
    algorithm.process_cycle(records, [])
    return records


def similar_queries(count, seed=5):
    rng = random.Random(seed)
    queries = []
    for qid in range(count):
        weights = [
            max(0.05, 0.6 + rng.uniform(-0.05, 0.05)),
            max(0.05, 0.4 + rng.uniform(-0.05, 0.05)),
        ]
        query = TopKQuery(LinearFunction(weights), k=rng.choice([1, 3, 5]))
        query.qid = qid
        queries.append(query)
    return queries


@pytest.mark.parametrize("seed", [5, 6])
def test_burst_matches_solo_registration(seed):
    grouped = make_algorithm("sma-grouped", 2, cells_per_axis=5)
    solo = make_algorithm("sma", 2, cells_per_axis=5)
    fill_grid(grouped)
    fill_grid(solo)

    queries = similar_queries(8, seed)
    burst_results = grouped.register_many(similar_queries(8, seed))
    solo_results = {
        query.qid: solo.register(query) for query in queries
    }
    assert grouped.counters.grouped_registrations > 0
    for qid in solo_results:
        assert [entry.key for entry in burst_results[qid]] == [
            entry.key for entry in solo_results[qid]
        ], f"query {qid} initial result diverged"
        assert [entry.key for entry in grouped.current_result(qid)] == [
            entry.key for entry in solo.current_result(qid)
        ]
    assert influence_map(grouped) == influence_map(solo)


@pytest.mark.parametrize("name", ["tma", "sma"])
def test_ungrouped_burst_stays_solo(name):
    algorithm = make_algorithm(name, 2, cells_per_axis=5)
    fill_grid(algorithm)
    algorithm.register_many(similar_queries(4))
    assert algorithm.counters.grouped_registrations == 0
    assert algorithm.counters.topk_computations == 4


def test_mixed_family_burst_groups_only_linear_members():
    algorithm = make_algorithm("sma-grouped", 2, cells_per_axis=5)
    fill_grid(algorithm)
    queries = similar_queries(5)
    outlier = TopKQuery(QuadraticFunction([0.5, 0.5]), k=3)
    outlier.qid = 99
    results = algorithm.register_many(queries + [outlier])
    assert algorithm.counters.grouped_registrations == 5
    assert set(results) == {0, 1, 2, 3, 4, 99}
    # The outlier got a correct solo computation.
    reference = make_algorithm("sma", 2, cells_per_axis=5)
    fill_grid(reference)
    twin = TopKQuery(QuadraticFunction([0.5, 0.5]), k=3)
    twin.qid = 99
    assert [entry.key for entry in results[99]] == [
        entry.key for entry in reference.register(twin)
    ]


def test_singleton_burst_takes_solo_path():
    algorithm = make_algorithm("sma-grouped", 2, cells_per_axis=5)
    fill_grid(algorithm)
    algorithm.register_many(similar_queries(1))
    assert algorithm.counters.grouped_registrations == 0


def test_burst_then_cycles_stay_consistent():
    """After a grouped burst, normal maintenance must behave exactly
    as if the queries had been registered one by one."""
    grouped = make_algorithm("sma-grouped", 2, cells_per_axis=5)
    solo = make_algorithm("sma", 2, cells_per_axis=5)
    fill_grid(grouped, seed=3)
    fill_grid(solo, seed=3)
    grouped.register_many(similar_queries(6, seed=9))
    for query in similar_queries(6, seed=9):
        solo.register(query)

    rng = random.Random(21)
    factory = RecordFactory(start=60)
    window = []
    for _ in range(8):
        arrivals = [
            factory.make((rng.random(), rng.random())) for _ in range(6)
        ]
        window.extend(arrivals)
        expired = []
        while len(window) > 40:
            expired.append(window.pop(0))
        grouped.process_cycle(list(arrivals), list(expired))
        solo.process_cycle(list(arrivals), list(expired))
        for qid in range(6):
            assert [e.key for e in grouped.current_result(qid)] == [
                e.key for e in solo.current_result(qid)
            ]
