"""Figure 14: CPU time and space versus grid granularity (IND).

The paper sweeps 5^4..15^4 cells at N=1M and finds ~12^4 optimal: too
fine a grid wastes heap operations on empty cells, too coarse a grid
scans points outside influence regions; space grows monotonically with
granularity (book-keeping). The same trade-off appears at our scaled N
with the optimum shifted to the occupancy-equivalent granularity.

The time trade-off is asserted on its two operation counts, not on
seconds: cells en-heaped (the fine grid's cost) rise with granularity
while points scored (the coarse grid's cost) fall.
"""

import pytest

from repro.bench.reporting import print_series
from repro.bench.runner import run_workload
from repro.bench.workloads import scaled_defaults

GRANULARITIES = [2, 3, 4, 5, 6, 12]


@pytest.fixture(scope="module")
def sweep():
    spec = scaled_defaults(cycles=8)
    results = {"tma": [], "sma": []}
    spaces = {"tma": [], "sma": []}
    counters = {"tma": [], "sma": []}
    for per_axis in GRANULARITIES:
        for algorithm in ("tma", "sma"):
            run = run_workload(
                spec.with_(cells_per_axis=per_axis), algorithm
            )
            results[algorithm].append(run.total_seconds)
            spaces[algorithm].append(run.space.total_mb)
            counters[algorithm].append(run.counters)
    return results, spaces, counters


def test_fig14a_cpu_vs_granularity(benchmark, sweep):
    results, _, counters = sweep
    benchmark.pedantic(
        lambda: run_workload(
            scaled_defaults(cycles=8).with_(cells_per_axis=4), "sma"
        ),
        rounds=1,
        iterations=1,
    )
    print_series(
        "Figure 14(a): CPU time vs grid granularity (IND, d=4)",
        "cells/axis",
        GRANULARITIES,
        {"TMA": results["tma"], "SMA": results["sma"]},
    )
    # The two sides of the paper's interior optimum: a finer grid
    # pushes more cells through the heap (overhead on empty cells) and
    # scores fewer points outside influence regions.
    for algorithm in ("tma", "sma"):
        enheaped = [c.cells_enheaped for c in counters[algorithm]]
        scored = [c.points_scored for c in counters[algorithm]]
        assert all(a < b for a, b in zip(enheaped, enheaped[1:])), (
            f"{algorithm}: cells_enheaped not rising: {enheaped}"
        )
        assert all(a > b for a, b in zip(scored, scored[1:])), (
            f"{algorithm}: points_scored not falling: {scored}"
        )


def test_fig14b_space_vs_granularity(benchmark, sweep):
    _, spaces, _ = sweep
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_series(
        "Figure 14(b): space vs grid granularity (IND, d=4)",
        "cells/axis",
        GRANULARITIES,
        {"TMA": spaces["tma"], "SMA": spaces["sma"]},
        unit="MB",
    )
    # Space grows with granularity (influence-list book-keeping), and
    # SMA stores at least as much as TMA (skyband extras).
    for algorithm in ("tma", "sma"):
        assert spaces[algorithm][-1] > spaces[algorithm][0]
    assert all(
        sma >= tma * 0.99
        for tma, sma in zip(spaces["tma"], spaces["sma"])
    )
