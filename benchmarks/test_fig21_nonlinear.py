"""Figure 21: CPU time versus d for non-linear preference functions.

The paper repeats the Figure 15 experiment with
f(p) = Π (aᵢ + p.xᵢ)  (Figures 21 a/b) and
f(p) = Σ aᵢ·p.xᵢ²     (Figures 21 c/d)
and finds "the relative performance of the algorithms is similar to
the case of linear functions, illustrating the generality of our
methods".

Every ordering is asserted over :class:`~repro.core.stats.OpCounters`:
the grid methods against TSL as ``influence_checks + points_scored``
against TSL's checks plus ``sorted_list_updates`` (Figure 17's sum, as
in Figures 15 and 16). Seconds are printed, and compared by
``python3 -m perf.run``.
"""

import pytest

from harness import compare_algorithms, print_series, scaled_defaults

DIMS = [2, 3, 4, 5]
ALGOS = ("tsl", "tma", "sma")

PANELS = {
    ("product", "ind"): "a",
    ("product", "ant"): "b",
    ("quadratic", "ind"): "c",
    ("quadratic", "ant"): "d",
}


def sweep(family: str, distribution: str):
    series = {name: [] for name in ALGOS}
    checks = {name: [] for name in ALGOS}
    work = {name: [] for name in ALGOS}
    scratch = {name: [] for name in ALGOS}
    for dims in DIMS:
        spec = scaled_defaults(
            n=10_000,
            rate=100,
            num_queries=40,
            cycles=6,
            dims=dims,
            distribution=distribution,
            function_family=family,
        )
        runs = compare_algorithms(spec, ALGOS)
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


@pytest.mark.parametrize(
    "family,distribution",
    [
        ("product", "ind"),
        ("product", "ant"),
        ("quadratic", "ind"),
        ("quadratic", "ant"),
    ],
)
def test_fig21_nonlinear_functions(benchmark, family, distribution):
    series, checks, work, scratch = benchmark.pedantic(
        lambda: sweep(family, distribution), rounds=1, iterations=1
    )
    panel = PANELS[(family, distribution)]
    formula = (
        "prod(ai+xi)" if family == "product" else "sum(ai*xi^2)"
    )
    print_series(
        f"Figure 21({panel}): CPU vs d, f={formula} "
        f"({distribution.upper()})",
        "d",
        DIMS,
        {name.upper(): series[name] for name in ALGOS},
    )
    # Same relative performance as the linear case (Figure 15): the
    # full time ordering on IND, the scale-robust parts on ANT — both
    # restricted to d <= 4 for the same high-dimensional small-scale
    # caveat documented in EXPERIMENTS.md.
    asserted = [i for i, dims in enumerate(DIMS) if dims <= 4]
    for index in asserted:
        assert checks["tma"][index] < checks["tsl"][index], f"d={DIMS[index]}"
        assert checks["sma"][index] < checks["tsl"][index], f"d={DIMS[index]}"
    if distribution == "ind":
        tsl_total = sum(work["tsl"][i] for i in asserted)
        assert sum(work["tma"][i] for i in asserted) < tsl_total
        assert sum(work["sma"][i] for i in asserted) < tsl_total
    else:
        # SMA <= TMA as work: no more recomputations, over no more
        # cells and points.
        for dims, sma, tma in zip(DIMS, scratch["sma"], scratch["tma"]):
            assert all(s <= t for s, t in zip(sma, tma)), f"d={dims}"
