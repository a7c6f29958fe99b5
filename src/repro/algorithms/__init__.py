"""Monitoring algorithms: TMA, SMA, the TSL baseline, and a brute-force oracle.

All algorithms implement :class:`repro.algorithms.base.MonitorAlgorithm`
and report identical top-k sets (under the canonical rank order) —
they differ only in how much work maintenance costs, which is exactly
the comparison of the paper's Section 8.

Use :func:`make_algorithm` to construct one by name.
"""

from typing import Optional

from repro.algorithms.base import MonitorAlgorithm
from repro.algorithms.brute import BruteForceAlgorithm
from repro.algorithms.sma import SkybandMonitoringAlgorithm
from repro.algorithms.tma import TopKMonitoringAlgorithm
from repro.algorithms.tsl import ThresholdSortedListAlgorithm

ALGORITHMS = {
    "tma": TopKMonitoringAlgorithm,
    "sma": SkybandMonitoringAlgorithm,
    "tsl": ThresholdSortedListAlgorithm,
    "brute": BruteForceAlgorithm,
    # SMA with similarity-grouped refills and registration bursts:
    # identical results, shared grid sweeps per group (sugar for
    # grouped=True, so bench runs can compare it with plain SMA).
    "sma-grouped": SkybandMonitoringAlgorithm,
}

#: names whose algorithms index a grid (take ``cells_per_axis``).
GRID_ALGORITHMS = frozenset(
    name
    for name in ALGORITHMS
    if name.split("-")[0] in ("tma", "sma")
)


def make_algorithm(
    name: str,
    dims: int,
    cells_per_axis: Optional[int] = None,
    **kwargs,
) -> MonitorAlgorithm:
    """Construct a monitoring algorithm by name.

    Args:
        name: one of ``tma``, ``sma``, ``tsl``, ``brute``, or
            ``sma-grouped`` (SMA with ``grouped=True``).
        dims: data dimensionality.
        cells_per_axis: grid granularity for the grid-based methods
            (ignored by ``tsl``/``brute``); defaults to the paper's
            sweet spot of roughly 12^4 total cells via
            :func:`repro.bench.workloads.default_cells_per_axis` when
            omitted.
        **kwargs: algorithm-specific options (e.g. ``kmax_for`` for
            TSL, ``grouped`` for SMA, ``eager_cleanup`` for TMA).
    """
    key = name.lower()
    if key not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        )
    cls = ALGORITHMS[key]
    if key.endswith("-grouped"):
        kwargs.setdefault("grouped", True)
    if key in GRID_ALGORITHMS:
        if cells_per_axis is None:
            from repro.bench.workloads import default_cells_per_axis

            cells_per_axis = default_cells_per_axis(dims)
        return cls(dims=dims, cells_per_axis=cells_per_axis, **kwargs)
    return cls(dims=dims, **kwargs)


__all__ = [
    "ALGORITHMS",
    "GRID_ALGORITHMS",
    "BruteForceAlgorithm",
    "MonitorAlgorithm",
    "SkybandMonitoringAlgorithm",
    "ThresholdSortedListAlgorithm",
    "TopKMonitoringAlgorithm",
    "make_algorithm",
]
