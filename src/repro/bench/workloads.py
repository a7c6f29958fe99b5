"""Workload construction mirroring the paper's Table 1.

The paper's defaults (d=4, N=1M, r=10K, Q=1K, k=20, ~12^4 grid cells,
100 timestamps) target a 2006-era C implementation. A pure-Python
reproduction runs the *same experiment design* at a scaled-down
operating point — :func:`scaled_defaults` — chosen so the full
benchmark suite finishes in minutes while keeping every ratio the
figures depend on (r = N/100, Q ≫ 1, k ≪ N, grid occupancy near the
paper's ~48 points/cell). Set the environment variable
``REPRO_SCALE`` (default 1.0) to scale N, r and Q together — e.g.
``REPRO_SCALE=50`` restores the paper's original N=1M.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace
from typing import List, Optional

from repro.core.queries import TopKQuery
from repro.core.scoring import (
    LinearFunction,
    PreferenceFunction,
    ProductFunction,
    QuadraticFunction,
)

#: the paper's measured-optimum grid occupancy (1M records / 12^4 cells)
PAPER_POINTS_PER_CELL = 1_000_000 / 12**4


def env_scale() -> float:
    """Global workload scale factor from ``REPRO_SCALE`` (default 1)."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def default_cells_per_axis(dims: int, n: int = 20_000) -> int:
    """Grid granularity matching the paper's occupancy sweet spot.

    The paper fixes ~12^4 total cells for N=1M (≈48 points per cell)
    across all dimensionalities. We solve for the per-axis count that
    reproduces that occupancy at the configured N.
    """
    target_cells = max(1.0, n / PAPER_POINTS_PER_CELL)
    per_axis = round(target_cells ** (1.0 / dims))
    return max(2, int(per_axis))


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
    #: 1 = in-process execution (the default). N > 1 = partition the
    #: queries across N worker processes (bitwise-identical results;
    #: see :mod:`repro.parallel`).
    shards: int = 1
    #: None = local execution per ``shards``. A tuple of
    #: ``"host:port"`` addresses = run the shards on those remote
    #: shard hosts over TCP instead (:mod:`repro.cluster`); ``shards``
    #: is ignored when set. Results stay bitwise-identical; the run
    #: additionally records bytes-on-the-wire per cycle.
    shard_hosts: Optional[tuple] = None
    #: True = exercise the handle API mid-run: a deterministic
    #: schedule of ``handle.update(k=…)`` mutations and
    #: ``pause()``/``resume()`` churn runs between measured cycles
    #: (identical across algorithms, so results stay comparable);
    #: the mutation cost is recorded separately from maintenance.
    churn: bool = False

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


def paper_defaults(**overrides) -> WorkloadSpec:
    """The paper's original Table 1 defaults (heavy: N=1M, Q=1K)."""
    spec = WorkloadSpec(
        dims=4,
        n=1_000_000,
        rate=10_000,
        num_queries=1_000,
        k=20,
        cycles=100,
        cells_per_axis=12,
    )
    return spec.with_(**overrides) if overrides else spec


#: Table 1 — parameter ranges of the paper's evaluation (documentation
#: + the conftest banner of the benchmark suite).
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
