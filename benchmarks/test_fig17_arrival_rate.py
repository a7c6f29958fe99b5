"""Figure 17: CPU time versus arrival rate r (0.1% .. 10% of N/cycle).

Paper shape: all methods degrade with r; the grid methods show better
resilience because TSL pays d sorted-list updates per arrival plus a
score evaluation against every query, while TMA/SMA touch only the
queries whose influence cells receive the update.

The figure's claims are about work, so they are asserted over
:class:`~repro.core.stats.OpCounters` — a function of the seeded
workload alone: ``influence_checks`` (score evaluations on the update
path), ``sorted_list_updates`` (TSL's list upkeep) and
``points_scored`` (what the grid methods pay in recomputations for
narrowing the scope). The seconds are printed, not asserted; timing is
the job of ``python3 -m perf.run``.
"""

import pytest

from repro.bench.reporting import print_series
from repro.bench.runner import compare_algorithms
from repro.bench.workloads import scaled_defaults

N = 10_000
RATES = [10, 50, 100, 500, 1_000]  # 0.1% .. 10% of N
QUERIES = 12
CYCLES = 6
DIMS = 4
ALGOS = ("tsl", "tma", "sma")
COUNTS = ("influence_checks", "sorted_list_updates", "points_scored")


def sweep(distribution: str):
    seconds = {name: [] for name in ALGOS}
    counts = {name: {field: [] for field in COUNTS} for name in ALGOS}
    scratch = {name: [] for name in ALGOS}
    for rate in RATES:
        spec = scaled_defaults(
            n=N,
            rate=rate,
            num_queries=QUERIES,
            cycles=CYCLES,
            dims=DIMS,
            distribution=distribution,
        )
        runs = compare_algorithms(spec, ALGOS)
        for name in ALGOS:
            seconds[name].append(runs[name].total_seconds)
            scratch[name].append(runs[name].scratch_work)
            for field in COUNTS:
                counts[name][field].append(
                    getattr(runs[name].counters, field)
                )
    return seconds, counts, scratch


@pytest.mark.parametrize("distribution", ["ind", "ant"])
def test_fig17_cpu_vs_arrival_rate(benchmark, distribution):
    seconds, counts, scratch = benchmark.pedantic(
        lambda: sweep(distribution), rounds=1, iterations=1
    )
    label = "a" if distribution == "ind" else "b"
    print_series(
        f"Figure 17({label}): CPU time vs r ({distribution.upper()}, "
        f"N={N})",
        "r",
        RATES,
        {name.upper(): seconds[name] for name in ALGOS},
    )
    print_series(
        f"Figure 17({label}): score evaluations on the update path vs r",
        "r",
        RATES,
        {name.upper(): counts[name]["influence_checks"] for name in ALGOS},
        unit="checks",
        precision=0,
    )
    checks = {name: counts[name]["influence_checks"] for name in ALGOS}
    for name in ALGOS:
        # Cost increases with the update rate ...
        assert checks[name] == sorted(set(checks[name])), name
    # ... for TSL as r·Q evaluations plus 2·r·d list updates a cycle,
    # exactly, whatever the data ...
    assert checks["tsl"] == [rate * QUERIES * CYCLES for rate in RATES]
    assert counts["tsl"]["sorted_list_updates"] == [
        2 * rate * DIMS * CYCLES for rate in RATES
    ]
    for name in ("tma", "sma"):
        # ... while the grid methods evaluate only the queries whose
        # influence cells an update lands in, and keep no lists.
        assert all(
            grid < tsl for grid, tsl in zip(checks[name], checks["tsl"])
        ), name
        assert not any(counts[name]["sorted_list_updates"]), name
    if distribution == "ind":
        # The monitoring algorithms stay ahead of TSL over the sweep
        # even with the points their recomputations score counted in.
        tsl_work = sum(checks["tsl"]) + sum(
            counts["tsl"]["sorted_list_updates"]
        )
        for name in ("tma", "sma"):
            assert (
                sum(checks[name]) + sum(counts[name]["points_scored"])
                < tsl_work
            ), name
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
