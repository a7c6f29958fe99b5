"""TSL kmax fine-tuning (Section 8, text before Figure 15).

The paper tunes kmax per k "for fairness": small kmax means views
underflow constantly and TA refills dominate; large kmax means every
view update costs more and refills recompute more entries. The paper's
optima were kmax = (4, 10, 20, 30, 70, 120) for k = (1, 5, 10, 20, 50,
100). This bench sweeps the kmax multiplier at fixed k and shows the
refill/insert trade-off that creates the interior optimum.
"""

import pytest

from repro.bench.reporting import format_table
from repro.bench.runner import run_workload
from repro.bench.workloads import scaled_defaults

K = 10
MULTIPLIERS = [1.0, 1.5, 2.0, 3.0, 6.0]


def run_tsl(kmax=None, adaptive=False):
    from repro.algorithms.tsl import ThresholdSortedListAlgorithm
    from repro.core.engine import StreamMonitor
    from repro.core.window import CountBasedWindow
    from repro.streams.generators import make_distribution
    from repro.streams.stream import StreamDriver

    spec = scaled_defaults(n=8_000, rate=80, num_queries=12, cycles=10, k=K)
    driver = StreamDriver(
        make_distribution(spec.distribution, spec.dims),
        spec.rate,
        seed=spec.seed,
    )
    if adaptive:
        # Start from the degenerate kmax=k so the dynamic policy has
        # to discover the slack by itself (its whole selling point).
        kmax_fn = lambda k: k  # noqa: E731
    elif kmax is not None:
        kmax_fn = lambda k, km=kmax: km  # noqa: E731
    else:
        kmax_fn = None
    algorithm = ThresholdSortedListAlgorithm(
        spec.dims,
        kmax_for=kmax_fn,
        adaptive_kmax=adaptive,
    )
    monitor = StreamMonitor(
        spec.dims, CountBasedWindow(spec.n), algorithm=algorithm
    )
    monitor.process(driver.warmup(spec.n))
    for query in spec.make_queries():
        monitor.add_query(query)
    monitor.cycle_seconds.clear()
    monitor.counters.reset()
    for batch in driver.batches(spec.cycles):
        monitor.process(batch)
    kmaxes = [state.kmax for state in algorithm._states.values()]
    return {
        "kmax": "adaptive" if adaptive else kmax,
        "seconds": monitor.total_cpu_seconds,
        "refills": monitor.counters.view_refills,
        "view_inserts": monitor.counters.view_insertions,
        "final_kmax": f"{min(kmaxes)}..{max(kmaxes)}",
        # The work kmax trades: TA refill accesses against view upkeep.
        "work": monitor.counters.sorted_accesses
        + monitor.counters.random_accesses
        + monitor.counters.view_insertions,
    }


def sweep():
    rows = [
        run_tsl(kmax=max(K, int(round(K * multiplier))))
        for multiplier in MULTIPLIERS
    ]
    rows.append(run_tsl(adaptive=True))
    return rows


def test_tsl_kmax_tradeoff(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\n== TSL kmax tuning (k={K}) ==")
    print(
        format_table(
            [
                "kmax",
                "CPU [s]",
                "TA refills",
                "view inserts",
                "TA accesses + inserts",
                "kmax range",
            ],
            [
                [
                    row["kmax"],
                    f"{row['seconds']:.4f}",
                    row["refills"],
                    row["view_inserts"],
                    row["work"],
                    row["final_kmax"],
                ]
                for row in rows
            ],
        )
    )
    static = rows[:-1]
    adaptive = rows[-1]
    refills = [row["refills"] for row in static]
    inserts = [row["view_inserts"] for row in static]
    # The trade-off that creates the interior optimum: refills fall
    # with kmax while per-arrival view traffic rises.
    assert refills[0] > refills[-1]
    assert inserts[-1] > inserts[0]
    # The paper's tuned kmax for k=10 was 2k: at least verify kmax=k
    # (the degenerate choice) is never the cheapest configuration.
    work = [row["work"] for row in static]
    assert work.index(min(work)) != 0
    # Yi et al.'s adaptive policy: it discovers slack (kmax grows off
    # the degenerate start for queries that refilled) and stays within
    # bounds, but — as the paper reports — it does not beat a
    # fine-tuned static kmax: it pays refills while learning.
    low, high = adaptive["final_kmax"].split("..")
    assert K <= int(low) and int(high) <= 8 * K
    assert int(high) > K  # at least one query adapted upward
    assert adaptive["work"] > min(work)
