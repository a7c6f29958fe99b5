"""Scaling evidence: the TSL gap widens toward the paper's scale.

The paper benchmarks at N=1M, Q=1K, where TSL pays (i) r·Q score
evaluations per cycle (no influence lists to narrow the scope) and
(ii) 2·r·d sorted-list updates each costing O(N). Both costs grow with
the workload while the grid methods' per-update work stays bounded by
the influence-region occupancy — so the paper's order-of-magnitude gap
is a large-scale phenomenon. This bench sweeps N (with r = N/100 and Q
fixed) and shows TSL consistently behind SMA with an *absolute*
per-run gap that grows with N.

Note on the assertion shape: the claim is stated over
:class:`~repro.core.stats.OpCounters`, not wall-clock. The counters are
a function of the seeded workload alone, so this test cannot flake on a
busy host; timing is the job of ``python3 -m perf.run``. TSL's work per
run is its score evaluations (``influence_checks`` — every arrival is
scored against every query, r·Q per cycle) plus its
``sorted_list_updates`` (2·r·d per cycle); both are exactly linear in N
here. SMA's is what its grid narrows the scope to: influence-list
checks, skyband dominance updates, and the cells and points a
recomputation visits. (Before the batch-scoring kernels of PR 1 the
wall-clock TSL/SMA ratio tracked these counts closely; vectorization
compressed TSL's constant, not its count.) The table still prints the
measured seconds beside the counts.
"""

from repro.bench.reporting import format_table
from repro.bench.runner import compare_algorithms
from repro.bench.workloads import scaled_defaults

CARDINALITIES = [2_000, 8_000, 24_000, 48_000]


def tsl_work(counters) -> int:
    return counters.influence_checks + counters.sorted_list_updates


def sma_work(counters) -> int:
    return (
        counters.influence_checks
        + counters.dominance_updates
        + counters.cells_processed
        + counters.points_scored
    )


def sweep():
    tsl_ops = []
    sma_ops = []
    rows = []
    for n in CARDINALITIES:
        spec = scaled_defaults(
            n=n,
            rate=max(1, n // 100),
            num_queries=40,
            cycles=6,
            distribution="ind",
        )
        runs = compare_algorithms(spec, ("tsl", "sma"))
        tsl_ops.append(tsl_work(runs["tsl"].counters))
        sma_ops.append(sma_work(runs["sma"].counters))
        rows.append(
            [
                n,
                tsl_ops[-1],
                sma_ops[-1],
                f"{tsl_ops[-1] / max(sma_ops[-1], 1):.1f}x",
                f"{runs['tsl'].total_seconds:.4f}",
                f"{runs['sma'].total_seconds:.4f}",
            ]
        )
    return tsl_ops, sma_ops, rows


def test_tsl_gap_widens_with_scale(benchmark):
    tsl_ops, sma_ops, rows = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    print("\n== Scaling: TSL vs SMA operations vs N (IND, Q=40) ==")
    print(
        format_table(
            ["N", "TSL ops", "SMA ops", "TSL/SMA", "TSL [s]", "SMA [s]"],
            rows,
        )
    )
    # TSL does well over SMA's work at every cardinality in the sweep ...
    assert all(tsl > 1.5 * sma for tsl, sma in zip(tsl_ops, sma_ops))
    # ... its own work is linear in N (r = N/100 arrivals, each scored
    # against all Q queries and threaded through 2d sorted lists) ...
    scale = CARDINALITIES[-1] // CARDINALITIES[0]
    assert tsl_ops[-1] == tsl_ops[0] * scale
    # ... while the grid keeps SMA's growth well under that, so the
    # absolute gap keeps widening with N — the scaled-down signature of
    # the paper's order-of-magnitude separation at N=1M.
    assert sma_ops[-1] < sma_ops[0] * scale / 2
    gaps = [tsl - sma for tsl, sma in zip(tsl_ops, sma_ops)]
    assert all(later > earlier for earlier, later in zip(gaps, gaps[1:]))
    assert gaps[-1] > gaps[0] * 2.0
