"""The figure tests' harness: workloads, runs and paper-style tables.

The paper's defaults (d=4, N=1M, r=10K, Q=1K, k=20, ~12^4 grid cells,
100 timestamps) target a 2006-era C implementation. A pure-Python
reproduction runs the *same experiment design* at a scaled-down
operating point — :func:`scaled_defaults` — chosen so the full
benchmark suite finishes in minutes while keeping every ratio the
figures depend on (r = N/100, Q ≫ 1, k ≪ N, grid occupancy near the
paper's ~48 points/cell). Set the environment variable
``REPRO_SCALE`` (default 1.0) to scale N, r and Q together — e.g.
``REPRO_SCALE=50`` restores the paper's original N=1M.

Fairness contract (the paper's implicit setup): every algorithm under
comparison sees a byte-identical stream (same seed → same records with
the same ids), identical queries, and the same window — only the
maintenance machinery differs. :func:`compare_algorithms` enforces
this and additionally cross-checks that all algorithms finish with
identical top-k results, so a benchmark can never report the cost of
a wrong answer.

The figure tests assert :class:`~repro.core.stats.OpCounters` trends;
the seconds printed beside them are for reading only. Timing the
library end to end is ``python3 -m perf.run``'s job.
"""

from __future__ import annotations

import gc
import os
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms import GRID_ALGORITHMS
from repro.analysis.memory import SpaceBreakdown, estimate_space
from repro.core.engine import StreamMonitor
from repro.core.queries import TopKQuery
from repro.core.scoring import (
    LinearFunction,
    PreferenceFunction,
    ProductFunction,
    QuadraticFunction,
)
from repro.core.stats import OpCounters
from repro.core.window import CountBasedWindow
from repro.grid import default_cells_per_axis
from repro.streams.generators import make_distribution
from repro.streams.stream import StreamDriver


def env_scale() -> float:
    """Global workload scale factor from ``REPRO_SCALE`` (default 1)."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """One experiment configuration (a point in Table 1's space)."""

    dims: int = 4
    n: int = 20_000  # window size N (count-based)
    rate: int = 200  # arrivals per cycle r
    num_queries: int = 20  # Q
    k: int = 20
    cycles: int = 10  # measured timestamps (paper: 100)
    distribution: str = "ind"
    function_family: str = "linear"  # linear | product | quadratic
    seed: int = 1
    cells_per_axis: Optional[int] = None  # None = auto sweet spot
    #: None = independent random coefficients (the paper's setup).
    #: 0..1 = draw every query near one random base preference vector;
    #: 1.0 means identical queries, lower values widen the jitter —
    #: the knob the grouped-traversal workloads sweep Q against.
    query_similarity: Optional[float] = None

    def grid_cells_per_axis(self) -> int:
        if self.cells_per_axis is not None:
            return self.cells_per_axis
        return default_cells_per_axis(self.dims, self.n)

    def with_(self, **changes) -> "WorkloadSpec":
        """Functional update (dataclasses.replace sugar)."""
        return replace(self, **changes)

    def make_functions(self) -> List[PreferenceFunction]:
        """Q preference functions with random coefficients aᵢ ∈ [0, 1].

        Deterministic in ``seed`` so every algorithm sees identical
        queries (Section 8: "scoring functions of the form
        f(p) = Σ aᵢ·p.xᵢ where the aᵢ coefficients are randomly chosen
        between 0 and 1").
        """
        rng = random.Random(self.seed * 7919 + 13)
        if self.query_similarity is not None and not (
            0.0 <= self.query_similarity <= 1.0
        ):
            raise ValueError(
                f"query_similarity must be in [0, 1], "
                f"got {self.query_similarity}"
            )
        base: Optional[List[float]] = None
        if self.query_similarity is not None:
            base = [rng.uniform(0.3, 0.9) for _ in range(self.dims)]
            spread = (1.0 - self.query_similarity) * 0.5
        functions: List[PreferenceFunction] = []
        for _ in range(self.num_queries):
            if base is None:
                coefficients = [
                    rng.uniform(0.05, 1.0) for _ in range(self.dims)
                ]
            else:
                coefficients = [
                    min(1.0, max(0.05, value + rng.uniform(-spread, spread)))
                    for value in base
                ]
            if self.function_family == "linear":
                functions.append(LinearFunction(coefficients))
            elif self.function_family == "product":
                functions.append(ProductFunction(coefficients))
            elif self.function_family == "quadratic":
                functions.append(QuadraticFunction(coefficients))
            else:
                raise ValueError(
                    f"unknown function family {self.function_family!r}"
                )
        return functions

    def make_queries(self) -> List[TopKQuery]:
        return [
            TopKQuery(function, self.k, label=f"bench-{index}")
            for index, function in enumerate(self.make_functions())
        ]


def scaled_defaults(**overrides) -> WorkloadSpec:
    """The scaled-down default operating point (see module docstring)."""
    scale = env_scale()
    spec = WorkloadSpec(
        n=int(20_000 * scale),
        rate=int(200 * scale),
        num_queries=max(1, int(20 * scale)),
    )
    return spec.with_(**overrides) if overrides else spec


#: Table 1 — parameter ranges of the paper's evaluation (the conftest
#: banner of the benchmark suite prints it).
TABLE_1 = {
    "Data dimensionality (d)": {"default": 4, "range": [2, 3, 4, 5, 6]},
    "Data cardinality (N)": {
        "default": "1M",
        "range": ["1M", "2M", "3M", "4M", "5M"],
    },
    "Arrival rate (r)": {
        "default": "10K",
        "range": ["1K", "5K", "10K", "50K", "100K"],
    },
    "Query cardinality (Q)": {
        "default": "1K",
        "range": ["100", "500", "1K", "2K", "5K"],
    },
    "Result cardinality (k)": {
        "default": 20,
        "range": [1, 5, 10, 20, 50, 100],
    },
}


@dataclass(slots=True)
class RunResult:
    """What one (workload, algorithm) run produced."""

    algorithm: str
    spec: WorkloadSpec
    cycle_seconds: List[float]
    counters: OpCounters
    space: SpaceBreakdown
    #: mean per-query result-state size (view / skyband / top list)
    mean_state_size: float
    #: final top-k ids per query, for cross-algorithm equality checks
    final_results: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.cycle_seconds)

    @property
    def recomputation_rate(self) -> float:
        """Empirical Pr_rec: recomputations per query per cycle."""
        cycles = max(1, len(self.cycle_seconds))
        queries = max(1, self.spec.num_queries)
        return self.counters.recomputations / (cycles * queries)

    @property
    def scratch_work(self) -> Tuple[int, int, int]:
        """``(recomputations, cells processed, points scored)``.

        How often the run fell back to the top-k computation module
        and what those computations visited — the work behind the
        paper's TMA-vs-SMA cost orderings, as counts that depend on
        the seeded workload alone.
        """
        counters = self.counters
        return (
            counters.recomputations,
            counters.cells_processed,
            counters.points_scored,
        )


def run_workload(
    spec: WorkloadSpec, algorithm: str, state_size_probes: int = 4
) -> RunResult:
    """Execute one monitoring run and return its metrics.

    The run follows the paper's Section 8 protocol: fill the window
    with N warm-up tuples, register the Q queries (initial computation
    is *setup*, not measured), then process ``spec.cycles`` timestamps
    of r arrivals + r expirations each, measuring only maintenance.
    """
    distribution = make_distribution(spec.distribution, spec.dims)
    driver = StreamDriver(distribution, spec.rate, seed=spec.seed)
    warmup = driver.warmup(spec.n)
    monitor = StreamMonitor(
        spec.dims,
        CountBasedWindow(spec.n),
        algorithm=algorithm,
        cells_per_axis=(
            spec.grid_cells_per_axis()
            if algorithm in GRID_ALGORITHMS
            else None
        ),
    )
    try:
        monitor.process(warmup)
        # Burst registration: grouped algorithms serve similar queries'
        # initial computations through shared sweeps.
        qids = monitor.add_queries(spec.make_queries())
        monitor.cycle_seconds.clear()
        monitor.counters.reset()

        state_sizes: List[float] = []
        probe_every = max(1, spec.cycles // max(1, state_size_probes))
        # Measured cycles run with the cyclic GC paused, so a gen-2
        # collection over the whole pytest heap never lands inside one
        # cycle's printed seconds. Collect once up front instead.
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for cycle_index in range(spec.cycles):
                monitor.process(driver.next_batch())
                if cycle_index % probe_every == 0:
                    sizes = monitor.algorithm.result_state_sizes()
                    if sizes:
                        state_sizes.append(sum(sizes.values()) / len(sizes))
        finally:
            if gc_was_enabled:
                gc.enable()

        return RunResult(
            algorithm=algorithm,
            spec=spec,
            cycle_seconds=list(monitor.cycle_seconds),
            counters=monitor.counters.snapshot(),
            space=estimate_space(monitor.algorithm),
            mean_state_size=(
                sum(state_sizes) / len(state_sizes) if state_sizes else 0.0
            ),
            final_results={
                int(qid): [entry.rid for entry in monitor.result(qid)]
                for qid in qids
            },
        )
    finally:
        monitor.close()


def compare_algorithms(
    spec: WorkloadSpec,
    algorithms: Sequence[str] = ("tsl", "tma", "sma"),
    check_results: bool = True,
) -> Dict[str, RunResult]:
    """Run several algorithms on the identical workload.

    Raises:
        AssertionError: when ``check_results`` and two algorithms
            disagree on any final top-k set — a benchmark must never
            report the cost of a wrong answer.
    """
    results = {name: run_workload(spec, name) for name in algorithms}
    if check_results and len(results) > 1:
        names = list(results)
        reference = results[names[0]].final_results
        for name in names[1:]:
            candidate = results[name].final_results
            if candidate != reference:
                diffs = [
                    qid
                    for qid in reference
                    if candidate.get(qid) != reference[qid]
                ]
                raise AssertionError(
                    f"{name} disagrees with {names[0]} on queries {diffs[:5]} "
                    f"(spec={spec})"
                )
    return results


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Monospace-align a small table."""
    columns = [
        [str(header)] + [str(row[i]) for row in rows]
        for i, header in enumerate(headers)
    ]
    widths = [max(len(value) for value in column) for column in columns]
    lines = []
    header_line = "  ".join(
        str(header).ljust(widths[i]) for i, header in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append(
            "  ".join(str(row[i]).ljust(widths[i]) for i in range(len(headers)))
        )
    return "\n".join(lines)


def print_series(
    title: str,
    x_label: str,
    xs: Sequence[object],
    series: Dict[str, Sequence[float]],
    unit: str = "s",
    precision: int = 4,
) -> None:
    """Print one paper-figure data block.

    Example output::

        == Figure 15(a): CPU time vs d (IND) ==
        d     TSL        TMA        SMA
        --    ------     ------     ------
        2     0.1200     0.0300     0.0210
    """
    headers = [x_label] + [f"{name} [{unit}]" for name in series]
    rows: List[List[object]] = []
    for index, x in enumerate(xs):
        row: List[object] = [x]
        for values in series.values():
            value = values[index]
            row.append(f"{value:.{precision}f}")
        rows.append(row)
    print(f"\n== {title} ==")
    print(format_table(headers, rows))
