"""Run algorithms over workloads and collect paper-comparable metrics.

Fairness contract (the paper's implicit setup): every algorithm under
comparison sees a byte-identical stream (same seed → same records with
the same ids), identical queries, and the same window — only the
maintenance machinery differs. :func:`compare_algorithms` enforces
this and additionally cross-checks that all algorithms finish with
identical top-k results, so a benchmark can never silently time a
wrong answer.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms import GRID_ALGORITHMS
from repro.analysis.memory import SpaceBreakdown, estimate_space
from repro.core.engine import StreamMonitor
from repro.core.stats import OpCounters
from repro.core.window import CountBasedWindow
from repro.bench.workloads import WorkloadSpec
from repro.streams.generators import make_distribution
from repro.streams.stream import StreamDriver


@dataclass(slots=True)
class RunResult:
    """Everything one (workload, algorithm) run produced."""

    algorithm: str
    spec: WorkloadSpec
    setup_seconds: float
    cycle_seconds: List[float]
    counters: OpCounters
    space: SpaceBreakdown
    #: mean per-query result-state size (view / skyband / top list)
    mean_state_size: float
    #: final top-k ids per query, for cross-algorithm equality checks
    final_results: Dict[int, List[int]] = field(default_factory=dict)
    #: registration-only share of setup_seconds (the engine-timed
    #: initial top-k computations — setup_seconds additionally covers
    #: the warm-up window fill)
    register_seconds: float = 0.0
    #: total seconds spent in in-flight mutations (handle.update /
    #: pause / resume) under ``spec.churn`` — kept out of
    #: cycle_seconds so mutation cost never pollutes maintenance cost
    mutation_seconds: float = 0.0
    #: churn operations performed (updates, pauses, resumes)
    churn_updates: int = 0
    churn_pauses: int = 0
    churn_resumes: int = 0
    #: transport accounting of sharded runs (pipe or TCP): cumulative
    #: and per-cycle bytes on the wire / in shared memory, as returned
    #: by ``ShardedMonitorAlgorithm.transport_stats``. None in-process.
    transport: Optional[Dict] = None
    #: per-phase time breakdown from the tracer's phase histograms
    #: (``{phase: {count, total_seconds, mean_seconds}}``) — populated
    #: only when the run executed with ``trace=True``, else None, so
    #: untraced benchmark numbers carry zero instrumentation cost.
    phases: Optional[Dict] = None
    #: full metrics-registry snapshot of the run (counters, gauges,
    #: histograms — in sharded runs including everything merged back
    #: from the workers). Only captured under ``trace=True``.
    metrics: Optional[Dict] = None

    @property
    def total_seconds(self) -> float:
        return sum(self.cycle_seconds)

    @property
    def mean_cycle_seconds(self) -> float:
        if not self.cycle_seconds:
            return 0.0
        return self.total_seconds / len(self.cycle_seconds)

    def percentile_cycle_seconds(self, fraction: float) -> float:
        """Per-cycle latency percentile (e.g. 0.95 for p95).

        Continuous monitoring is a latency problem as much as a
        throughput one: a recomputation-heavy cycle stalls every
        report in it, so tail latency separates TMA from SMA more
        sharply than the mean does.
        """
        if not self.cycle_seconds:
            return 0.0
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1]: {fraction}")
        ordered = sorted(self.cycle_seconds)
        index = min(
            len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1)))
        )
        return ordered[index]

    @property
    def p95_cycle_seconds(self) -> float:
        return self.percentile_cycle_seconds(0.95)

    @property
    def max_cycle_seconds(self) -> float:
        return max(self.cycle_seconds) if self.cycle_seconds else 0.0

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


class _ChurnDriver:
    """Deterministic mid-run handle churn for ``spec.churn`` runs.

    The schedule is a pure function of the cycle index and Q, so every
    algorithm under comparison performs byte-identical mutations and
    the cross-algorithm result check still holds:

    - every third cycle, one query (round-robin) toggles its k between
      ``spec.k`` and ``max(1, spec.k // 2)`` via ``handle.update``;
    - every fourth cycle, one query pauses for two cycles, then
      resumes (exact re-sync against the then-current window).

    All paused queries are resumed at the end so final results are
    fresh for the equality check.
    """

    def __init__(self, spec: WorkloadSpec, handles) -> None:
        self.spec = spec
        self.handles = list(handles)
        self.updates = 0
        self.pauses = 0
        self.resumes = 0
        self._resume_at: List = []  # (cycle, handle) pairs

    def step(self, cycle: int) -> None:
        due = [item for item in self._resume_at if item[0] <= cycle]
        self._resume_at = [
            item for item in self._resume_at if item[0] > cycle
        ]
        for _, handle in due:
            handle.resume()
            self.resumes += 1
        count = len(self.handles)
        if count == 0:
            return
        if cycle % 3 == 1:
            handle = self.handles[cycle % count]
            if not handle.paused:
                low = max(1, self.spec.k // 2)
                handle.update(
                    k=low if handle.query.k == self.spec.k else self.spec.k
                )
                self.updates += 1
        if cycle % 4 == 2:
            handle = self.handles[(cycle + 1) % count]
            if not handle.paused:
                handle.pause()
                self.pauses += 1
                self._resume_at.append((cycle + 2, handle))

    def finish(self) -> None:
        for _, handle in self._resume_at:
            handle.resume()
            self.resumes += 1
        self._resume_at = []


def phase_breakdown(snapshot: Dict) -> Dict[str, Dict[str, float]]:
    """Per-phase time account from a metrics-registry snapshot.

    Reduces every ``repro_phase_<name>_seconds`` histogram to
    ``{count, total_seconds, mean_seconds}`` — the view BENCH_PR*.json
    captures so phase regressions diff like counter regressions.
    """
    prefix, suffix = "repro_phase_", "_seconds"
    phases: Dict[str, Dict[str, float]] = {}
    for name, data in snapshot.get("histograms", {}).items():
        if not (name.startswith(prefix) and name.endswith(suffix)):
            continue
        count = int(data["count"])
        total = float(data["sum"])
        phases[name[len(prefix):-len(suffix)]] = {
            "count": count,
            "total_seconds": round(total, 9),
            "mean_seconds": round(total / count, 9) if count else 0.0,
        }
    return phases


def run_workload(
    spec: WorkloadSpec,
    algorithm: str,
    state_size_probes: int = 4,
    trace: bool = False,
) -> RunResult:
    """Execute one monitoring run and return its metrics.

    The run follows the paper's Section 8 protocol: fill the window
    with N warm-up tuples, register the Q queries (initial computation
    is *setup*, not measured), then process ``spec.cycles`` timestamps
    of r arrivals + r expirations each, measuring only maintenance.

    ``trace=True`` additionally runs the monitor with per-cycle phase
    tracing and captures the phase breakdown plus the full metrics
    snapshot on the result (results stay bitwise-identical; only the
    timings shift by the instrumentation overhead).
    """
    distribution = make_distribution(spec.distribution, spec.dims)
    driver = StreamDriver(distribution, spec.rate, seed=spec.seed)
    warmup = driver.warmup(spec.n)

    if spec.shard_hosts is not None:
        shards = list(spec.shard_hosts)
    elif spec.shards > 1:
        shards = spec.shards
    else:
        shards = None
    monitor = StreamMonitor(
        spec.dims,
        CountBasedWindow(spec.n),
        algorithm=algorithm,
        cells_per_axis=(
            spec.grid_cells_per_axis()
            if algorithm in GRID_ALGORITHMS
            else None
        ),
        shards=shards,
        trace=trace,
    )

    try:
        setup_started = time.perf_counter()
        monitor.process(warmup)
        # Burst registration: grouped algorithms serve similar queries'
        # initial computations through shared sweeps, and sharded runs
        # issue one round trip per shard (results identical either way).
        qids = monitor.add_queries(spec.make_queries())
        setup_seconds = time.perf_counter() - setup_started

        monitor.cycle_seconds.clear()
        monitor.counters.reset()

        state_sizes: List[float] = []
        probe_every = max(1, spec.cycles // max(1, state_size_probes))
        # Measured cycles run with the cyclic GC paused: a generation-2
        # collection scans the entire process heap (in a full pytest
        # session that is millions of objects) and its multi-millisecond
        # pause would land on whichever cycle trips the threshold,
        # distorting single-run comparisons at millisecond scale. Collect
        # once up front so the pause happens outside the timed region.
        churn = _ChurnDriver(spec, qids) if spec.churn else None
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for cycle_index in range(spec.cycles):
                monitor.process(driver.next_batch())
                if churn is not None:
                    churn.step(cycle_index)
                if cycle_index % probe_every == 0:
                    sizes = monitor.algorithm.result_state_sizes()
                    if sizes:
                        state_sizes.append(sum(sizes.values()) / len(sizes))
        finally:
            if gc_was_enabled:
                gc.enable()
        if churn is not None:
            churn.finish()

        final_results = {
            int(qid): [entry.rid for entry in monitor.result(qid)]
            for qid in qids
        }
        transport_stats = getattr(
            monitor.algorithm, "transport_stats", None
        )
        metrics_snapshot = monitor.metrics() if trace else None
        return RunResult(
            algorithm=algorithm,
            spec=spec,
            setup_seconds=setup_seconds,
            cycle_seconds=list(monitor.cycle_seconds),
            counters=monitor.counters.snapshot(),
            space=estimate_space(monitor.algorithm),
            mean_state_size=(
                sum(state_sizes) / len(state_sizes) if state_sizes else 0.0
            ),
            final_results=final_results,
            register_seconds=monitor.total_setup_seconds,
            mutation_seconds=monitor.total_mutation_seconds,
            churn_updates=churn.updates if churn else 0,
            churn_pauses=churn.pauses if churn else 0,
            churn_resumes=churn.resumes if churn else 0,
            transport=(
                transport_stats() if transport_stats is not None else None
            ),
            phases=(
                phase_breakdown(metrics_snapshot)
                if metrics_snapshot is not None
                else None
            ),
            metrics=metrics_snapshot,
        )
    finally:
        monitor.close()


def compare_algorithms(
    spec: WorkloadSpec,
    algorithms: Sequence[str] = ("tsl", "tma", "sma"),
    check_results: bool = True,
    trace: bool = False,
) -> Dict[str, RunResult]:
    """Run several algorithms on the identical workload.

    Raises:
        AssertionError: when ``check_results`` and two algorithms
            disagree on any final top-k set — a benchmark must never
            time a wrong answer.
    """
    results = {
        name: run_workload(spec, name, trace=trace) for name in algorithms
    }
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
