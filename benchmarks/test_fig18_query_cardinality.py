"""Figure 18: CPU time versus the number of running queries Q.

Paper shape: "the running time of all methods scales linearly with Q";
relative performance unchanged (SMA ≤ TMA ≪ TSL).

Asserted as work over :class:`~repro.core.stats.OpCounters` (see
Figure 17's note): ``influence_checks``, ``sorted_list_updates`` and
``points_scored`` depend on the seeded workload alone. The seconds are
printed, not asserted.
"""

import pytest

from repro.bench.reporting import print_series
from repro.bench.runner import compare_algorithms
from repro.bench.workloads import scaled_defaults

QUERY_COUNTS = [5, 10, 20, 40, 80]
RATE = 80
CYCLES = 6
DIMS = 4
ALGOS = ("tsl", "tma", "sma")
COUNTS = ("influence_checks", "sorted_list_updates", "points_scored")


def sweep(distribution: str):
    seconds = {name: [] for name in ALGOS}
    counts = {name: {field: [] for field in COUNTS} for name in ALGOS}
    for q in QUERY_COUNTS:
        spec = scaled_defaults(
            n=8_000,
            rate=RATE,
            num_queries=q,
            cycles=CYCLES,
            dims=DIMS,
            distribution=distribution,
        )
        runs = compare_algorithms(spec, ALGOS)
        for name in ALGOS:
            seconds[name].append(runs[name].total_seconds)
            for field in COUNTS:
                counts[name][field].append(
                    getattr(runs[name].counters, field)
                )
    return seconds, counts


@pytest.mark.parametrize("distribution", ["ind", "ant"])
def test_fig18_cpu_vs_query_cardinality(benchmark, distribution):
    seconds, counts = benchmark.pedantic(
        lambda: sweep(distribution), rounds=1, iterations=1
    )
    label = "a" if distribution == "ind" else "b"
    print_series(
        f"Figure 18({label}): CPU time vs Q ({distribution.upper()})",
        "Q",
        QUERY_COUNTS,
        {name.upper(): seconds[name] for name in ALGOS},
    )
    print_series(
        f"Figure 18({label}): score evaluations on the update path vs Q",
        "Q",
        QUERY_COUNTS,
        {name.upper(): counts[name]["influence_checks"] for name in ALGOS},
        unit="checks",
        precision=0,
    )
    checks = {name: counts[name]["influence_checks"] for name in ALGOS}
    spread = QUERY_COUNTS[-1] / QUERY_COUNTS[0]
    for name in ALGOS:
        assert checks[name] == sorted(set(checks[name])), name
        # Roughly linear growth in Q: within a factor of two of the
        # growth of Q itself.
        growth = checks[name][-1] / checks[name][0]
        assert spread / 2 < growth < spread * 2, f"{name}: {growth}"
    # TSL's per-arrival work is exactly r·Q checks per cycle (it has
    # no influence lists to narrow the scope) — the structural reason
    # its Q-scaling line sits highest in the paper's figure — on top of
    # a Q-independent floor of 2·r·d sorted-list updates.
    assert checks["tsl"] == [RATE * q * CYCLES for q in QUERY_COUNTS]
    assert counts["tsl"]["sorted_list_updates"] == [
        2 * RATE * DIMS * CYCLES
    ] * len(QUERY_COUNTS)
    for name in ("tma", "sma"):
        assert all(
            grid < tsl for grid, tsl in zip(checks[name], checks["tsl"])
        ), name
        assert not any(counts[name]["sorted_list_updates"]), name
    # SMA <= TMA at every Q: the skyband saves recomputations, so SMA
    # never scores more points than TMA on the same stream.
    assert all(
        sma <= tma
        for sma, tma in zip(
            counts["sma"]["points_scored"], counts["tma"]["points_scored"]
        )
    )
    if distribution == "ind":
        tsl_work = sum(checks["tsl"]) + sum(
            counts["tsl"]["sorted_list_updates"]
        )
        for name in ("tma", "sma"):
            assert (
                sum(checks[name]) + sum(counts[name]["points_scored"])
                < tsl_work
            ), name
