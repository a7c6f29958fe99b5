"""Figure 17: CPU time versus arrival rate r (0.1% .. 10% of N/cycle).

Paper shape: all methods degrade with r; the grid methods show better
resilience because TSL pays d sorted-list updates per arrival plus a
score evaluation against every query, while TMA/SMA touch only the
queries whose influence cells receive the update.
"""

import pytest

from repro.bench.reporting import print_series
from repro.bench.runner import compare_algorithms
from repro.bench.workloads import scaled_defaults

N = 10_000
RATES = [10, 50, 100, 500, 1_000]  # 0.1% .. 10% of N
ALGOS = ("tsl", "tma", "sma")


def sweep(distribution: str):
    series = {name: [] for name in ALGOS}
    scratch = {name: [] for name in ALGOS}
    for rate in RATES:
        spec = scaled_defaults(
            n=N,
            rate=rate,
            num_queries=12,
            cycles=6,
            distribution=distribution,
        )
        runs = compare_algorithms(spec, ALGOS)
        for name in ALGOS:
            series[name].append(runs[name].total_seconds)
            scratch[name].append(runs[name].scratch_work)
    return series, scratch


@pytest.mark.parametrize("distribution", ["ind", "ant"])
def test_fig17_cpu_vs_arrival_rate(benchmark, distribution):
    series, scratch = benchmark.pedantic(
        lambda: sweep(distribution), rounds=1, iterations=1
    )
    label = "a" if distribution == "ind" else "b"
    print_series(
        f"Figure 17({label}): CPU time vs r ({distribution.upper()}, "
        f"N={N})",
        "r",
        RATES,
        {name.upper(): series[name] for name in ALGOS},
    )
    for name in ALGOS:
        # Cost increases with the update rate ...
        assert series[name][-1] > series[name][0], name
    if distribution == "ind":
        # ... and the monitoring algorithms stay ahead of TSL
        # (sweep aggregates; single points are noisy).
        assert sum(series["tma"]) < sum(series["tsl"])
        assert sum(series["sma"]) < sum(series["tsl"])
    else:
        # ANT at sub-paper scale: the scale-robust ordering (see
        # EXPERIMENTS.md): SMA outperforms TMA, and markedly so at
        # high rates — the paper highlights exactly this panel as
        # where "SMA performs significantly better than TMA". As
        # work: at the top rate SMA recomputes less than half as
        # often, over less than half the cells and points.
        assert all(
            2 * sma < tma
            for sma, tma in zip(scratch["sma"][-1], scratch["tma"][-1])
        )
