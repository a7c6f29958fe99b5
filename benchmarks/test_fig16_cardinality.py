"""Figure 16: CPU time versus data cardinality N, with r = N/100.

Paper shape: every method degrades as N (and with it r) grows; the
grid methods scale much better than TSL — "more than one order of
magnitude faster in most cases" — and ANT costs more than IND because
the top-k computation must descend through many near-frontier cells.

The orderings are asserted over :class:`~repro.core.stats.OpCounters`
(see Figures 15 and 17): the grid methods' ``influence_checks +
points_scored`` against TSL's checks plus ``sorted_list_updates``.
Seconds are printed, and compared by ``python3 -m perf.run``.
"""

import pytest

from harness import compare_algorithms, print_series, scaled_defaults

CARDINALITIES = [4_000, 8_000, 12_000, 16_000, 20_000]
ALGOS = ("tsl", "tma", "sma")


def sweep(distribution: str):
    series = {name: [] for name in ALGOS}
    work = {name: [] for name in ALGOS}
    scratch = {name: [] for name in ALGOS}
    for n in CARDINALITIES:
        spec = scaled_defaults(
            n=n,
            rate=max(1, n // 100),
            num_queries=12,
            cycles=6,
            distribution=distribution,
        )
        runs = compare_algorithms(spec, ALGOS)
        for name in ALGOS:
            counters = runs[name].counters
            series[name].append(runs[name].total_seconds)
            work[name].append(
                counters.influence_checks
                + counters.points_scored
                + counters.sorted_list_updates
            )
            scratch[name].append(runs[name].scratch_work)
    return series, work, scratch


@pytest.mark.parametrize("distribution", ["ind", "ant"])
def test_fig16_cpu_vs_cardinality(benchmark, distribution):
    series, work, scratch = benchmark.pedantic(
        lambda: sweep(distribution), rounds=1, iterations=1
    )
    label = "a" if distribution == "ind" else "b"
    print_series(
        f"Figure 16({label}): CPU time vs N, r=N/100 "
        f"({distribution.upper()})",
        "N",
        CARDINALITIES,
        {name.upper(): series[name] for name in ALGOS},
    )
    # TSL degrades with N: r grows with it, and r·Q evaluations plus
    # 2·r·d list updates a cycle are what TSL pays.
    assert work["tsl"] == sorted(set(work["tsl"]))
    if distribution == "ind":
        # The paper's ordering reproduces directly on IND, the points
        # the grid methods' recomputations score counted in.
        assert sum(work["tma"]) < sum(work["tsl"])
        assert sum(work["sma"]) < sum(work["tsl"])
    else:
        # ANT at sub-paper scale: assert the scale-robust ordering
        # (SMA <= TMA; the TSL gap needs paper-scale N·Q, see
        # test_scaling_crossover.py and EXPERIMENTS.md) as work: SMA
        # recomputes no more often, over no more cells and points.
        for n, sma, tma in zip(CARDINALITIES, scratch["sma"], scratch["tma"]):
            assert all(s <= t for s, t in zip(sma, tma)), f"N={n}"


def test_fig16_ant_costs_more_cells_than_ind(benchmark):
    """The paper's explanation, checked on the machine-independent
    counter: ANT forces the top-k computation module through more
    cells than IND at identical parameters."""

    def measure():
        out = {}
        for distribution in ("ind", "ant"):
            spec = scaled_defaults(
                n=8_000,
                rate=80,
                num_queries=12,
                cycles=6,
                distribution=distribution,
            )
            runs = compare_algorithms(spec, ("tma",), check_results=False)
            out[distribution] = runs["tma"].counters.cells_processed
        return out

    cells = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(
        f"\nTMA cells processed: IND={cells['ind']} ANT={cells['ant']}"
    )
    assert cells["ant"] > cells["ind"]
