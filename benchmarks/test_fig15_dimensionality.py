"""Figure 15: CPU time versus data dimensionality (IND and ANT).

Paper shape: all methods degrade with d (grid methods because top-k
computations en-heap d neighbours per processed cell; TSL because d
sorted lists must be maintained and TA probes d cursors); the grid
methods beat TSL by around an order of magnitude, with SMA ≤ TMA.

Scale note (see EXPERIMENTS.md): TSL's dominant cost is scoring every
arrival against every query — O(r·Q) per cycle — which buries it at
the paper's N=1M/Q=1000 but is mild at our scaled Q. The IND ordering
still reproduces outright; for ANT (whose dense frontier inflates the
grid methods' from-scratch traversals at small N) this bench asserts
the scale-robust parts: SMA ≤ TMA, and the influence lists cut the
per-arrival query checks far below TSL's r·Q — the architectural
mechanism behind the paper's gap. ``test_scaling_crossover.py`` shows
the gap widening toward paper scale.

Every ordering is asserted over :class:`~repro.core.stats.OpCounters`,
which are a function of the seeded workload alone: SMA ≤ TMA as how
often each recomputes from scratch and the cells and points those
recomputations visit, the grid methods against TSL as
``influence_checks + points_scored`` against TSL's checks plus
``sorted_list_updates`` (Figure 17's sum). Seconds are printed, and
compared by ``python3 -m perf.run``.
"""

import pytest

from harness import compare_algorithms, print_series, scaled_defaults

DIMS = [2, 3, 4, 5, 6]
ALGOS = ("tsl", "tma", "sma")


def sweep(distribution: str):
    spec = scaled_defaults(
        n=10_000,
        rate=100,
        num_queries=40,
        cycles=6,
        distribution=distribution,
    )
    series = {name: [] for name in ALGOS}
    checks = {name: [] for name in ALGOS}
    work = {name: [] for name in ALGOS}
    scratch = {name: [] for name in ALGOS}
    for dims in DIMS:
        runs = compare_algorithms(spec.with_(dims=dims), ALGOS)
        for name in ALGOS:
            counters = runs[name].counters
            series[name].append(runs[name].total_seconds)
            checks[name].append(counters.influence_checks)
            work[name].append(
                counters.influence_checks
                + counters.points_scored
                + counters.sorted_list_updates
            )
            scratch[name].append(runs[name].scratch_work)
    return series, checks, work, scratch


@pytest.mark.parametrize("distribution", ["ind", "ant"])
def test_fig15_cpu_vs_dimensionality(benchmark, distribution):
    series, checks, work, scratch = benchmark.pedantic(
        lambda: sweep(distribution), rounds=1, iterations=1
    )
    label = "a" if distribution == "ind" else "b"
    print_series(
        f"Figure 15({label}): CPU time vs d ({distribution.upper()})",
        "d",
        DIMS,
        {name.upper(): series[name] for name in ALGOS},
    )
    # TSL's cost grows with dimensionality (d sorted lists to keep).
    assert work["tsl"] == sorted(set(work["tsl"]))
    # Assertions are restricted to d <= 4: at the scaled-down N the
    # auto-tuned grid drops to 2-3 cells per axis for d >= 5, where an
    # influence region can no longer be isolated from the rest of the
    # workspace (see EXPERIMENTS.md, "high-dimensional caveat"); the
    # paper's N=1M sustains ~5 cells/axis at the same occupancy.
    asserted = [i for i, dims in enumerate(DIMS) if dims <= 4]
    for index in asserted:
        # Influence lists prune per-arrival work below TSL's r·Q scan.
        assert checks["tma"][index] < checks["tsl"][index], f"d={DIMS[index]}"
        assert checks["sma"][index] < checks["tsl"][index], f"d={DIMS[index]}"
    if distribution == "ind":
        # The monitoring algorithms stay ahead of TSL over the
        # asserted span even with the points their recomputations
        # score counted in (TSL: its checks plus its list updates).
        tsl_total = sum(work["tsl"][i] for i in asserted)
        assert sum(work["tma"][i] for i in asserted) < tsl_total
        assert sum(work["sma"][i] for i in asserted) < tsl_total
    else:
        # ANT: the scale-robust ordering (paper: SMA outperforms TMA
        # for all settings), as work — SMA recomputes no more often,
        # and its recomputations visit no more cells and points.
        for dims, sma, tma in zip(DIMS, scratch["sma"], scratch["tma"]):
            assert all(s <= t for s, t in zip(sma, tma)), f"d={dims}"
