"""Grouped traversal: CPU time vs Q at fixed query similarity.

The grouped-recomputation workload: Q linear queries drawn near one
base preference vector (``WorkloadSpec.query_similarity``), so TMA's
from-scratch recomputations cluster into large groups and the grouped
sweep amortises one cell scan over the whole cluster. The sweep grows
Q at fixed similarity and compares plain vs grouped TMA/SMA; the win
— cells visited, counted, not seconds — should widen with Q (more
queries per shared sweep), while results stay identical —
``compare_algorithms`` cross-checks every run.
"""

import pytest

from repro.bench.reporting import print_series
from repro.bench.runner import compare_algorithms
from repro.bench.workloads import scaled_defaults

QUERY_COUNTS = [8, 24, 48]
ALGOS = ("tma", "tma-grouped", "sma", "sma-grouped")
SIMILARITY = 0.9


def sweep():
    series = {name: [] for name in ALGOS}
    cells = {name: [] for name in ALGOS}
    grouped_served = []
    for q in QUERY_COUNTS:
        spec = scaled_defaults(
            n=6_000,
            rate=60,
            num_queries=q,
            cycles=6,
            query_similarity=SIMILARITY,
        )
        runs = compare_algorithms(spec, ALGOS)
        for name in ALGOS:
            series[name].append(runs[name].total_seconds)
            cells[name].append(runs[name].counters.cells_processed)
        grouped_served.append(
            runs["tma-grouped"].counters.grouped_queries_served
        )
    return series, cells, grouped_served


def test_grouped_sweep_query_cardinality(benchmark):
    series, cells, grouped_served = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    print_series(
        f"Grouped traversal: CPU time vs Q (similarity={SIMILARITY})",
        "Q",
        QUERY_COUNTS,
        {name.upper(): series[name] for name in ALGOS},
    )
    # The similar workload must actually drive queries through shared
    # sweeps, increasingly so as Q grows.
    assert grouped_served[0] > 0
    assert grouped_served[-1] > grouped_served[0]
    # What a shared sweep saves is cell visits — one scan of a cell
    # serves the whole cluster — and the saving widens with Q. (What
    # it costs is scoring every swept record for every member; which
    # side wins on the clock is ``perf/``'s question, see
    # docs/PERFORMANCE.md.)
    saving = [
        solo / grouped
        for solo, grouped in zip(cells["tma"], cells["tma-grouped"])
    ]
    assert saving[0] > 1.0
    assert saving[-1] > saving[0]
