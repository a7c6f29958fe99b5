"""Plain-text and machine-readable reporting for bench runs.

Benchmarks print, next to pytest-benchmark's timing stats, the exact
series a figure plots (x-axis values against one line per algorithm)
so EXPERIMENTS.md can be regenerated by copy-paste.
:func:`run_result_to_dict` serialises a run for the ``--json`` output
of ``python -m repro.bench run``, which is how perf baselines like
``BENCH_PR1.json`` are captured and diffed across PRs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


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


def speedup(baseline: float, candidate: float) -> float:
    """How many times faster ``candidate`` is than ``baseline``."""
    if candidate <= 0:
        return float("inf")
    return baseline / candidate


def workload_to_dict(spec) -> Dict[str, object]:
    """JSON-friendly view of a :class:`~repro.bench.workloads.WorkloadSpec`."""
    return {
        "dims": spec.dims,
        "n": spec.n,
        "rate": spec.rate,
        "queries": spec.num_queries,
        "k": spec.k,
        "cycles": spec.cycles,
        "distribution": spec.distribution,
        "function": spec.function_family,
        "seed": spec.seed,
        "cells_per_axis": spec.grid_cells_per_axis(),
        "query_similarity": spec.query_similarity,
        "shards": spec.shards,
        "shard_hosts": (
            None if spec.shard_hosts is None else list(spec.shard_hosts)
        ),
        "churn": spec.churn,
    }


def run_result_to_dict(run) -> Dict[str, object]:
    """JSON-friendly view of a :class:`~repro.bench.runner.RunResult`.

    Times are seconds; counters are the machine-independent operation
    counts of :class:`~repro.core.stats.OpCounters`, so two captures
    are comparable across substrates as well as across commits.
    """
    return {
        "algorithm": run.algorithm,
        "setup_seconds": round(run.setup_seconds, 6),
        "register_seconds": round(run.register_seconds, 6),
        # In-flight handle mutations (update / pause / resume) under
        # --churn: their cost is a separate account, never mixed into
        # maintain_seconds.
        "mutation_seconds": round(run.mutation_seconds, 6),
        "churn_ops": {
            "updates": run.churn_updates,
            "pauses": run.churn_pauses,
            "resumes": run.churn_resumes,
        },
        "maintain_seconds": round(run.total_seconds, 6),
        "mean_cycle_seconds": round(run.mean_cycle_seconds, 9),
        "p95_cycle_seconds": round(run.p95_cycle_seconds, 9),
        "max_cycle_seconds": round(run.max_cycle_seconds, 9),
        "recomputations": run.counters.recomputations,
        "recomputation_rate": round(run.recomputation_rate, 6),
        "mean_state_size": round(run.mean_state_size, 3),
        "space_bytes": run.space.as_dict(),
        "counters": run.counters.as_dict(),
        # Sharded runs only (pipe workers or TCP remote hosts): the
        # coordinator's bytes-on-the-wire accounting, including the
        # per-cycle wire/shared split. None for in-process runs.
        "transport": run.transport,
        # --trace runs only: per-phase time breakdown ({phase: {count,
        # total_seconds, mean_seconds}}) and the full metrics-registry
        # snapshot (counters/gauges/histograms, merged across shards).
        # Both None for untraced runs, whose timings therefore carry
        # zero instrumentation cost.
        "phases": run.phases,
        "metrics": run.metrics,
    }
