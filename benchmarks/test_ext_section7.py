"""Section 7 extensions: constrained, threshold, update-stream costs.

The paper presents these qualitatively; the benches quantify that each
extension retains the framework's scalability properties:

- a constrained query processes no more cells than its unconstrained
  twin (its influence region is clipped by the constraint region);
- threshold monitoring via influence lists beats the naive
  check-every-query-on-every-update strategy;
- TMA on an explicit-deletion update stream stays far ahead of
  brute-force re-evaluation.
"""

import random

from repro.bench.reporting import format_table
from repro.core.engine import StreamMonitor
from repro.core.queries import ThresholdQuery, TopKQuery
from repro.core.scoring import LinearFunction
from repro.core.window import CountBasedWindow
from repro.extensions.constrained import constrained_query
from repro.extensions.threshold import ThresholdMonitor
from repro.extensions.update_model import UpdateStreamMonitor
from repro.streams.generators import Independent, make_distribution
from repro.streams.stream import StreamDriver
from repro.streams.update_stream import UpdateStreamDriver


def test_constrained_queries_stay_inside_their_region(benchmark):
    """Figure 12's property: a constrained query's book-keeping never
    leaves the cells intersecting its constraint rectangle.

    (A constrained query can legitimately *cost more* than an
    unconstrained twin — its kth score is lower, so the clipped
    influence region may span more cells; the guarantee the paper
    gives is locality, not cheapness.)
    """

    def measure():
        driver = StreamDriver(Independent(2), 50, seed=3)
        monitor = StreamMonitor(
            2,
            CountBasedWindow(3_000),
            algorithm="tma",
            cells_per_axis=12,
        )
        monitor.process(driver.warmup(3_000))
        query = constrained_query(
            LinearFunction([1.0, 2.0]),
            k=10,
            ranges=[(0.1, 0.6), (0.2, 0.7)],
        )
        qid = monitor.add_query(query)
        monitor.counters.reset()
        for batch in driver.batches(10):
            monitor.process(batch)
        grid = monitor.algorithm.grid
        influence_cells = [
            grid.bounds_of(coords)
            for coords in monitor.algorithm.influence_region(qid)
        ]
        return query, influence_cells, monitor.counters.cells_processed

    query, influence_cells, cells_processed = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    print(
        f"\nconstrained query: {len(influence_cells)} influence cells, "
        f"{cells_processed} cells processed over 10 cycles"
    )
    assert influence_cells, "query should influence at least one cell"
    for lower, upper in influence_cells:
        assert query.constraint.intersects(lower, upper), (
            f"influence cell outside the constraint region: {lower}"
        )


def test_threshold_monitor_beats_naive(benchmark):
    """Naive strategy: score every arrival against every query."""

    def measure():
        driver = StreamDriver(Independent(2), 100, seed=5)
        monitor = ThresholdMonitor(
            2, CountBasedWindow(5_000), cells_per_axis=12
        )
        monitor.process(driver.warmup(5_000))
        rng = random.Random(6)
        queries = []
        for _ in range(30):
            f = LinearFunction(
                [rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0)]
            )
            threshold = 0.9 * f.score((1.0, 1.0))
            queries.append(ThresholdQuery(f, threshold))
            monitor.add_query(queries[-1])
        monitor.counters.reset()
        batches = driver.materialize(10)
        for batch in batches:
            monitor.process(batch)
        smart_checks = monitor.counters.influence_checks
        naive_checks = sum(len(b) for b in batches) * len(queries) * 2
        return smart_checks, naive_checks

    smart, naive = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\nthreshold monitoring checks: influence-list={smart} naive={naive}")
    assert smart < naive / 5


def test_update_stream_tma_vs_brute(benchmark):
    def run(algorithm):
        driver = UpdateStreamDriver(
            make_distribution("ind", 2),
            rate=100,
            min_lifetime=5,
            max_lifetime=40,
            seed=7,
        )
        monitor = UpdateStreamMonitor(
            2, algorithm=algorithm, cells_per_axis=8
        )
        rng = random.Random(8)
        for _ in range(10):
            monitor.add_query(
                TopKQuery(
                    LinearFunction(
                        [rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)]
                    ),
                    k=10,
                )
            )
        for batch in driver.batches(20):
            monitor.process(batch.insertions, batch.deletions)
        counters = monitor.counters
        # Per-record work: brute re-scores every live record for every
        # query each cycle; TMA checks influence lists and scores only
        # the cells its recomputations visit.
        return sum(monitor.cycle_seconds), (
            counters.influence_checks + counters.points_scored
        )

    def measure():
        return {name: run(name) for name in ("tma", "brute")}

    out = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(
        f"\nupdate-stream monitoring: TMA={out['tma'][0]:.4f}s "
        f"({out['tma'][1]} checks + points scored) "
        f"brute={out['brute'][0]:.4f}s ({out['brute'][1]})"
    )
    assert out["tma"][1] < out["brute"][1] / 5
