"""Figure 20: space requirements versus k.

Paper shape: all methods store more as k grows (result tuples per
query + influence-list growth for the grid methods); TSL consumes more
than TMA/SMA because of its d additional sorted lists; SMA sits
slightly above TMA (dominance counters + skyband extras).
"""

import pytest

from harness import print_series, run_workload, scaled_defaults

KS = [1, 5, 10, 20, 50, 100]
ALGOS = ("tsl", "tma", "sma")


def sweep(distribution: str):
    spaces = {name: [] for name in ALGOS}
    for k in KS:
        spec = scaled_defaults(
            n=8_000,
            rate=80,
            num_queries=12,
            cycles=4,
            k=k,
            distribution=distribution,
        )
        for name in ALGOS:
            run = run_workload(spec, name)
            spaces[name].append(run.space.total_mb)
    return spaces


@pytest.mark.parametrize("distribution", ["ind", "ant"])
def test_fig20_space_vs_k(benchmark, distribution):
    spaces = benchmark.pedantic(
        lambda: sweep(distribution), rounds=1, iterations=1
    )
    label = "a" if distribution == "ind" else "b"
    print_series(
        f"Figure 20({label}): space vs k ({distribution.upper()})",
        "k",
        KS,
        {name.upper(): spaces[name] for name in ALGOS},
        unit="MB",
    )
    for name in ALGOS:
        assert spaces[name][-1] > spaces[name][0], name
    for index in range(len(KS)):
        # TSL pays for the d sorted lists at every k.
        assert spaces["tsl"][index] > spaces["tma"][index]
        assert spaces["tsl"][index] > spaces["sma"][index]
        # SMA stores the skyband (3 words/entry) vs TMA's top list.
        assert spaces["sma"][index] >= spaces["tma"][index]
