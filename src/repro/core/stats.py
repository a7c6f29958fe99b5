"""Machine-independent operation counters and run statistics.

The paper reports CPU seconds on a fixed machine. Absolute seconds are
not portable across substrates (its testbed is C-like code on a 2006
Pentium; ours is CPython), so every algorithm additionally counts the
operations Section 6's cost model is written in terms of: cells
en-heaped and processed, points scored, from-scratch recomputations
(the empirical Pr_rec), skyband and view maintenance work. Benchmarks
report both wall-clock and counters, and the cost-model ablation checks
the counters against the analytical predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Union


@dataclass(slots=True)
class OpCounters:
    """Additive operation counters. All fields default to zero."""

    arrivals: int = 0
    expirations: int = 0
    cells_enheaped: int = 0
    cells_processed: int = 0
    points_scored: int = 0
    topk_computations: int = 0
    recomputations: int = 0
    grouped_traversals: int = 0
    grouped_queries_served: int = 0
    grouped_registrations: int = 0
    influence_checks: int = 0
    influence_list_updates: int = 0
    influence_trim_visits: int = 0
    top_list_updates: int = 0
    skyband_insertions: int = 0
    skyband_evictions: int = 0
    dominance_updates: int = 0
    view_insertions: int = 0
    view_refills: int = 0
    sorted_accesses: int = 0
    random_accesses: int = 0
    sorted_list_updates: int = 0

    def add(self, other: "OpCounters") -> None:
        for spec in fields(self):
            setattr(
                self,
                spec.name,
                getattr(self, spec.name) + getattr(other, spec.name),
            )

    def snapshot(self) -> "OpCounters":
        return OpCounters(
            **{spec.name: getattr(self, spec.name) for spec in fields(self)}
        )

    def reset(self) -> None:
        for spec in fields(self):
            setattr(self, spec.name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}


class _NullOpCounters:
    """Null object standing in for :class:`OpCounters` when none is given.

    Reads return 0 and increments vanish, so hot loops can update
    ``counters.x += n`` unconditionally instead of branching on
    ``counters is not None`` at every step. Shared singleton:
    :data:`NULL_COUNTERS`.
    """

    __slots__ = ()

    def __getattr__(self, name: str) -> int:
        if name.startswith("__"):  # keep copy/pickle protocols sane
            raise AttributeError(name)
        return 0

    def __setattr__(self, name: str, value) -> None:
        pass


#: shared do-nothing counter sink (see :class:`_NullOpCounters`).
NULL_COUNTERS = _NullOpCounters()


@dataclass(slots=True)
class RunStats:
    """Aggregate over a monitoring run: cycle times + total counters."""

    cycle_seconds: List[float] = field(default_factory=list)
    counters: OpCounters = field(default_factory=OpCounters)

    @property
    def cycles(self) -> int:
        return len(self.cycle_seconds)

    @property
    def total_seconds(self) -> float:
        return sum(self.cycle_seconds)

    @property
    def mean_cycle_seconds(self) -> float:
        return self.total_seconds / self.cycles if self.cycles else 0.0

    def record_cycle(self, seconds: float, counters: OpCounters) -> None:
        self.cycle_seconds.append(seconds)
        self.counters.add(counters)

    def summary(self) -> Dict[str, Union[int, float]]:
        """Flat run summary. Counts stay ``int`` (cycles and every
        OpCounters field); only the timing aggregates are floats —
        so a JSON dump renders ``17``, not ``17.0``."""
        data: Dict[str, Union[int, float]] = {
            "cycles": self.cycles,
            "total_seconds": self.total_seconds,
            "mean_cycle_seconds": self.mean_cycle_seconds,
        }
        data.update(self.counters.as_dict())
        return data
