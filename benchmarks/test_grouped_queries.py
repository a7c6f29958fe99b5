"""Grouped traversal: CPU time and cells swept vs Q at fixed similarity.

The grouped workload: Q linear queries drawn near one base preference
vector (``WorkloadSpec.query_similarity``), so SMA's registration
burst and skyband refills cluster into large groups and the grouped
sweep amortises one cell scan over the whole cluster. The sweep grows
Q at fixed similarity and compares plain vs grouped SMA (TMA rides
along as the per-query reference); results stay identical —
``compare_algorithms`` cross-checks every run. The win — cells
visited by the registration burst, counted, not seconds — should
widen with Q (more queries per shared sweep).
"""

from repro.algorithms import make_algorithm
from repro.streams.generators import make_distribution
from repro.streams.stream import StreamDriver

from harness import compare_algorithms, print_series, scaled_defaults

QUERY_COUNTS = [8, 24, 48]
ALGOS = ("tma", "sma", "sma-grouped")
SIMILARITY = 0.9


def burst_counters(spec, name):
    """Counters of registering the spec's Q queries in one burst over
    a full window (setup, which ``compare_algorithms`` leaves out)."""
    driver = StreamDriver(
        make_distribution(spec.distribution, spec.dims),
        spec.rate,
        seed=spec.seed,
    )
    algorithm = make_algorithm(
        name, spec.dims, cells_per_axis=spec.grid_cells_per_axis()
    )
    algorithm.process_cycle(driver.warmup(spec.n), [])
    algorithm.counters.reset()
    queries = spec.make_queries()
    for qid, query in enumerate(queries):
        query.qid = qid
    algorithm.register_many(queries)
    return algorithm.counters


def sweep():
    series = {name: [] for name in ALGOS}
    cells = {"sma": [], "sma-grouped": []}
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
        for name in cells:
            counters = burst_counters(spec, name)
            cells[name].append(counters.cells_processed)
            if name == "sma-grouped":
                grouped_served.append(counters.grouped_queries_served)
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
        for solo, grouped in zip(cells["sma"], cells["sma-grouped"])
    ]
    assert saving[0] > 1.0
    assert saving[-1] > saving[0]
