"""Soak test: long runs must not leak state or drift from the oracle.

Continuous monitors run for days; the invariants here are the ones
that silently rot in long-running systems — structure sizes staying
bounded, book-keeping matching the window exactly, and correctness
holding after hundreds of cycles and query churn.
"""

import random

import pytest

from repro.algorithms import make_algorithm
from repro.analysis.memory import estimate_space
from repro.core.queries import TopKQuery
from repro.core.scoring import LinearFunction
from repro.core.tuples import RecordFactory

from tests.conftest import brute_top_k

CYCLES = 150
WINDOW = 400
RATE = 40  # 10% churn per cycle


@pytest.mark.parametrize("algorithm", ["tma", "sma", "tsl"])
def test_long_run_invariants(algorithm):
    rng = random.Random(0xABCDEF)
    factory = RecordFactory()
    algo = make_algorithm(algorithm, 2, cells_per_axis=5)
    queries = []
    for qid in range(5):
        query = TopKQuery(
            LinearFunction([rng.uniform(0.1, 1), rng.uniform(0.1, 1)]),
            k=rng.choice([1, 5, 10]),
        )
        query.qid = qid
        algo.register(query)
        queries.append(query)

    window = []
    max_state = 0
    for cycle in range(CYCLES):
        arrivals = [
            factory.make((rng.random(), rng.random()))
            for _ in range(RATE)
        ]
        window.extend(arrivals)
        expired = []
        while len(window) > WINDOW:
            expired.append(window.pop(0))
        algo.process_cycle(arrivals, expired)

        sizes = algo.result_state_sizes()
        max_state = max(max_state, max(sizes.values()))

        if cycle % 25 == 0 or cycle == CYCLES - 1:
            for query in queries:
                got = [e.rid for e in algo.current_result(query.qid)]
                expected = [e.rid for e in brute_top_k(window, query)]
                assert got == expected, f"cycle {cycle} q{query.qid}"

    # No state leak: per-query structures stay within their bounds.
    for query in queries:
        size = algo.result_state_sizes()[query.qid]
        if algorithm == "tma":
            assert size == query.k
        elif algorithm == "sma":
            # The skyband is the k-skyband of the valid records above
            # the frozen gate: with ~15 window turnovers between
            # recomputations it grows like k·ln(m/k) (m = records
            # above the gate), not unboundedly. 8k+16 comfortably
            # covers that envelope while still catching a real leak.
            assert query.k <= size <= 8 * query.k + 16
        else:  # tsl: k <= k' <= kmax
            assert query.k <= size

    # Index book-keeping matches the window exactly.
    if algorithm in ("tma", "sma"):
        assert algo.grid.point_count() == len(window)
    else:
        assert algo.sorted_list_entries() == 2 * len(window)

    # Space accounting stays finite and window-proportional.
    space = estimate_space(algo)
    assert space.total_mb < 5.0


@pytest.mark.parametrize("algorithm", ["tma", "sma"])
def test_long_run_with_query_churn_leaves_clean_grid(algorithm):
    rng = random.Random(0xFEED)
    factory = RecordFactory()
    algo = make_algorithm(algorithm, 2, cells_per_axis=4)
    window = []
    qid_counter = 0
    active = {}
    for cycle in range(100):
        if rng.random() < 0.3 and len(active) < 6:
            query = TopKQuery(
                LinearFunction(
                    [rng.uniform(0.1, 1), rng.uniform(0.1, 1)]
                ),
                k=rng.choice([1, 4]),
            )
            query.qid = qid_counter
            qid_counter += 1
            algo.register(query)
            active[query.qid] = query
        if active and rng.random() < 0.25:
            victim = rng.choice(sorted(active))
            algo.unregister(victim)
            del active[victim]
        arrivals = [
            factory.make((rng.random(), rng.random())) for _ in range(10)
        ]
        window.extend(arrivals)
        expired = []
        while len(window) > 120:
            expired.append(window.pop(0))
        algo.process_cycle(arrivals, expired)

    # Only live queries hold influence regions.
    assert {query.qid for query in algo.queries()} == set(active)
    assert algo.influence_list_entries() == sum(
        len(algo.influence_region(qid)) for qid in active
    )
    for qid, query in active.items():
        got = [e.rid for e in algo.current_result(qid)]
        expected = [e.rid for e in brute_top_k(window, query)]
        assert got == expected
