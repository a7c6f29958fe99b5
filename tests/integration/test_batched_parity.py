"""Regression: batched cycle paths match brute force cycle-by-cycle.

The tentpole optimisation (PR 1) vectorized every hot path — TSL's
arrival scoring and TA refills, TMA/SMA's arrival pre-scoring and grid
batches, and the traversal's per-cell kernel scans. This suite replays
randomized streams (plus a tie-saturated lattice stream) through all
three maintained algorithms and asserts per-cycle result equality with
the brute-force oracle on every tier-1 run; CI replays it on the
pure-Python backend too.
"""

import random

import pytest

from repro.algorithms import make_algorithm
from repro.core.queries import TopKQuery
from repro.core.scoring import LinearFunction, ProductFunction
from repro.core.tuples import RecordFactory

MAINTAINED = ("tsl", "tma", "sma")


def run_stream(make_attrs, make_function, seed, cycles=12, dims=2,
               window=60, rate=8, num_queries=3):
    rng = random.Random(seed)
    factory = RecordFactory()
    algorithms = {
        name: make_algorithm(name, dims, cells_per_axis=4)
        for name in ("brute",) + MAINTAINED
    }
    queries = []
    for qid in range(num_queries):
        query = TopKQuery(make_function(rng), k=rng.choice([1, 3, 7]))
        query.qid = qid
        for algorithm in algorithms.values():
            algorithm.register(query)
        queries.append(query)

    window_records = []
    for cycle in range(cycles):
        arrivals = [
            factory.make(make_attrs(rng)) for _ in range(rate)
        ]
        window_records.extend(arrivals)
        expired = []
        while len(window_records) > window:
            expired.append(window_records.pop(0))
        outcomes = {}
        for name, algorithm in algorithms.items():
            algorithm.process_cycle(list(arrivals), list(expired))
            outcomes[name] = {
                query.qid: [
                    (entry.score, entry.rid)
                    for entry in algorithm.current_result(query.qid)
                ]
                for query in queries
            }
        for name in MAINTAINED:
            assert outcomes[name] == outcomes["brute"], (
                f"{name} diverged from brute at cycle {cycle} (seed {seed})"
            )


@pytest.mark.parametrize("seed", range(5))
def test_random_continuous_stream(seed):
    run_stream(
        make_attrs=lambda rng: (rng.random(), rng.random()),
        make_function=lambda rng: LinearFunction(
            [rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)]
        ),
        seed=seed,
    )


@pytest.mark.parametrize("seed", range(3))
def test_tie_saturated_lattice_stream(seed):
    """Attributes on a 5-point lattice: scores collide constantly, so
    any last-bit divergence between batched and scalar scoring would
    flip the (score, rid) order and fail the comparison."""
    run_stream(
        make_attrs=lambda rng: (
            rng.randrange(5) / 4.0,
            rng.randrange(5) / 4.0,
        ),
        make_function=lambda rng: LinearFunction(
            [rng.choice([0.25, 0.5, 1.0]), rng.choice([0.25, 0.5, 1.0])]
        ),
        seed=seed + 100,
    )


@pytest.mark.parametrize("seed", range(2))
def test_mixed_directions_and_product_functions(seed):
    def make_function(rng):
        if rng.random() < 0.5:
            return LinearFunction(
                [rng.uniform(-1.0, 1.0) or 0.3, rng.uniform(-1.0, 1.0) or -0.4]
            )
        return ProductFunction([rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)])

    run_stream(
        make_attrs=lambda rng: (rng.random(), rng.random()),
        make_function=make_function,
        seed=seed + 200,
    )
