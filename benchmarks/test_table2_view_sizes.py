"""Table 2: average view (TSL) / skyband (SMA) size per query.

The paper's measurement: TSL must over-provision each materialized
view to kmax entries to avoid constant refills, while SMA's skyband
self-prunes to barely above k — "SMA maintains very few extra points"
and always fewer than TSL.

Paper values (IND):  k: 1, 5, 10, 20, 50, 100
                   TSL: 3.3, 8.6, 17.1, 26.7, 63.0, 113.2
                   SMA: 1.1, 5.9, 11.2, 21.6, 53.3, 104.6
"""

import pytest

from harness import format_table, run_workload, scaled_defaults

KS = [1, 5, 10, 20, 50]

PAPER = {
    "ind": {
        "tsl": {1: 3.3, 5: 8.6, 10: 17.1, 20: 26.7, 50: 63.0},
        "sma": {1: 1.1, 5: 5.9, 10: 11.2, 20: 21.6, 50: 53.3},
    },
    "ant": {
        "tsl": {1: 3.1, 5: 8.4, 10: 17.2, 20: 26.9, 50: 64.4},
        "sma": {1: 1.1, 5: 5.9, 10: 11.5, 20: 22.4, 50: 54.4},
    },
}


def sweep(distribution: str):
    sizes = {"tsl": [], "sma": []}
    for k in KS:
        spec = scaled_defaults(
            n=8_000,
            rate=80,
            num_queries=12,
            cycles=8,
            k=k,
            distribution=distribution,
        )
        for name in ("tsl", "sma"):
            run = run_workload(spec, name, state_size_probes=8)
            sizes[name].append(run.mean_state_size)
    return sizes


@pytest.mark.parametrize("distribution", ["ind", "ant"])
def test_table2_view_and_skyband_sizes(benchmark, distribution):
    sizes = benchmark.pedantic(
        lambda: sweep(distribution), rounds=1, iterations=1
    )
    rows = []
    for index, k in enumerate(KS):
        rows.append(
            [
                k,
                f"{PAPER[distribution]['tsl'][k]:.1f}",
                f"{sizes['tsl'][index]:.1f}",
                f"{PAPER[distribution]['sma'][k]:.1f}",
                f"{sizes['sma'][index]:.1f}",
            ]
        )
    print(
        f"\n== Table 2 ({distribution.upper()}): avg view/skyband size "
        f"per query ==")
    print(
        format_table(
            ["k", "TSL paper", "TSL ours", "SMA paper", "SMA ours"], rows
        )
    )
    for index, k in enumerate(KS):
        tsl = sizes["tsl"][index]
        sma = sizes["sma"][index]
        # The paper's relations: k <= SMA skyband < TSL view <= kmax,
        # with the skyband only slightly above k.
        assert k <= sma + 1e-9, f"k={k}: skyband {sma}"
        assert sma < tsl, f"k={k}: SMA {sma} !< TSL {tsl}"
        assert sma < 2 * k + 4, f"k={k}: skyband too fat: {sma}"
