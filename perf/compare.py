"""``python3 -m perf.compare A.json B.json`` — did B get worse than A?

Both files come from ``python3 -m perf.run --repeat K --json OUT``
with the same seeds, ``--seconds`` and workloads: a run's inputs come
from its seed, so only then is the difference between the two sets the
program's (or the machine's) and not the inputs'. Sets that differ in
any of these are refused. One row per (workload, end-to-end metric):
both medians, B as a ratio of A (A is the base), the metric's bound —
from ``BENCHMARK.json``, or from ``perf.metrics.ALSO`` for the three
metrics that file cannot declare — and a verdict:

- ``unresolved`` — the run-to-run spread of either side (distance
  between the quartiles over the median) is wider than the bound, so
  the runs cannot tell;
- ``worse`` — B's median is worse than A's by more than the bound;
- ``ok`` — otherwise.

A metric whose bound is 0 is a count that one seed must repeat: its
row is ``worse`` when any run of B reads worse than A's run of that
seed.

Exits non-zero when any row is ``worse``, 2 when the sets do not match.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

from perf.metrics import ALSO

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Samples = Dict[Tuple[str, str], List[float]]


def load(path: str) -> Tuple[Samples, List[tuple]]:
    """End-to-end values of every untraced run, by (workload, metric),
    and what the runs were: (workload, seed, seconds) in run order."""
    with open(path) as source:
        runs = json.load(source)["runs"]
    samples: Samples = {}
    made = []
    for run in runs:
        if run["trace"]:
            continue
        made.append((run["workload"], run["seed"], run["seconds"]))
        for name, metric in {**run["metrics"], **run["also"]}.items():
            samples.setdefault((run["workload"], name), []).append(
                metric["value"]
            )
    return samples, made


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else 0.0


def verdict(
    base: List[float], other: List[float], better: str, bound: float
) -> Tuple[str, float]:
    """``(verdict, ratio)`` of one row; ``ratio`` is other ÷ base."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    ratio = statistics.median(other) / base_median if base_median else 1.0
    if bound == 0:  # a count: no seed's run may give a worse one
        worse = any(sign * (b - a) > 0 for a, b in zip(base, other))
        return ("worse" if worse else "ok"), ratio
    if max(spread(base), spread(other)) > bound:
        return "unresolved", ratio
    return ("worse" if sign * (ratio - 1.0) > bound else "ok"), ratio


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perf.compare")
    parser.add_argument("base", metavar="A.json")
    parser.add_argument("other", metavar="B.json")
    args = parser.parse_args(argv)
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as source:
        declared = {
            metric["name"]: metric
            for metric in json.load(source)["end_to_end"]
        }
    declared.update(ALSO)
    (base, base_runs), (other, other_runs) = load(args.base), load(args.other)
    if base_runs != other_runs:
        print(
            "perf.compare: the two sets are not the same runs "
            "(workload, seed, seconds):\n"
            f"  A: {base_runs}\n  B: {other_runs}",
            file=sys.stderr,
        )
        return 2
    print(
        f"{'workload':<16} {'metric':<16} {'A median':>12} {'B median':>12} "
        f"{'B/A':>7} {'bound':>6} {'spread A':>9} {'spread B':>9}  verdict"
    )
    worse = 0
    for (workload, name), values in base.items():
        if (workload, name) not in other:
            continue  # a p99 one side had too few batches for
        bound = declared[name]["bound"]
        outcome, ratio = verdict(
            values, other[workload, name], declared[name]["better"], bound
        )
        worse += outcome == "worse"
        print(
            f"{workload:<16} {name:<16} "
            f"{statistics.median(values):>12.4f} "
            f"{statistics.median(other[workload, name]):>12.4f} "
            f"{ratio:>7.3f} {bound:>6.2f} "
            f"{spread(values):>9.3f} {spread(other[workload, name]):>9.3f}  "
            f"{outcome}"
        )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
