"""Paper-style space accounting (Figures 14(b) and 20).

The paper reports megabytes of a C-style implementation: 8-byte floats
and 8-byte pointers/ids, no per-object headers. Python object overhead
(dozens of bytes per float) would swamp the comparison, so this module
walks the *actual live structures* of an algorithm instance and prices
them with the paper's inventory:

- every valid record: d attribute floats + id + arrival time;
- every point-list entry: one pointer;
- every influence-list entry: one query id (the paper keeps one per
  cell of each query's region; here the regions are held by the
  queries, and ``influence_list_entries()`` sums their sizes);
- TMA query state: function coefficients (d) + k × (id, score);
- SMA query state: function coefficients (d) + |skyband| × (id, score,
  dominance counter) — the skyband's three columns, one word a cell;
- TSL: d sorted lists of (value, pointer) entries + views of k' ×
  (id, score).

The breakdown mirrors S_TMA / S_SMA of Section 6, so measured curves
are directly comparable with the analytical model and with the
relative shapes in the paper's space figures.

It prices the paper's layout, not this implementation's: the valid
records live once in a slot-indexed
:class:`~repro.core.window.RecordStore` (columns, a rid index, a cell
id per slot) and cells hold slots, but the inventory above — one
record, one point-list pointer per record — is what Section 6 counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.algorithms.base import MonitorAlgorithm
from repro.algorithms.brute import BruteForceAlgorithm
from repro.algorithms.sma import SkybandMonitoringAlgorithm
from repro.algorithms.tma import TopKMonitoringAlgorithm
from repro.algorithms.tsl import ThresholdSortedListAlgorithm

#: bytes per float / pointer / id / counter — the paper's C layout.
WORD = 8


@dataclass(slots=True)
class SpaceBreakdown:
    """Byte totals per structural component."""

    records: int = 0
    point_lists: int = 0
    influence_lists: int = 0
    query_state: int = 0
    sorted_lists: int = 0

    @property
    def total(self) -> int:
        return (
            self.records
            + self.point_lists
            + self.influence_lists
            + self.query_state
            + self.sorted_lists
        )

    @property
    def total_mb(self) -> float:
        return self.total / (1024.0 * 1024.0)

    def as_dict(self) -> Dict[str, int]:
        return {
            "records": self.records,
            "point_lists": self.point_lists,
            "influence_lists": self.influence_lists,
            "query_state": self.query_state,
            "sorted_lists": self.sorted_lists,
            "total": self.total,
        }


def _record_bytes(count: int, dims: int) -> int:
    # d attributes + id + arrival time
    return count * (dims + 2) * WORD


def estimate_space(algorithm: MonitorAlgorithm) -> SpaceBreakdown:
    """Price the live structures of ``algorithm`` in paper bytes."""
    shard_spaces = getattr(algorithm, "shard_spaces", None)
    if shard_spaces is not None:
        # Sharded execution: stream state is replicated per shard, so
        # the honest footprint is the sum of the per-shard breakdowns.
        total = SpaceBreakdown()
        for breakdown in shard_spaces():
            total.records += breakdown.records
            total.point_lists += breakdown.point_lists
            total.influence_lists += breakdown.influence_lists
            total.query_state += breakdown.query_state
            total.sorted_lists += breakdown.sorted_lists
        return total
    if isinstance(algorithm, (TopKMonitoringAlgorithm, SkybandMonitoringAlgorithm)):
        return _grid_space(algorithm)
    if isinstance(algorithm, ThresholdSortedListAlgorithm):
        return _tsl_space(algorithm)
    if isinstance(algorithm, BruteForceAlgorithm):
        breakdown = SpaceBreakdown()
        breakdown.records = _record_bytes(
            len(algorithm.valid_records()), algorithm.dims
        )
        return breakdown
    raise TypeError(f"no space model for {type(algorithm).__name__}")


def _grid_space(algorithm) -> SpaceBreakdown:
    breakdown = SpaceBreakdown()
    points = algorithm.grid.point_count()
    breakdown.records = _record_bytes(points, algorithm.dims)
    breakdown.point_lists = points * WORD
    breakdown.influence_lists = algorithm.influence_list_entries() * WORD
    per_query_entry_words = (
        3 if isinstance(algorithm, SkybandMonitoringAlgorithm) else 2
    )  # SMA also stores the dominance counter (Section 6)
    state_bytes = 0
    sizes = algorithm.result_state_sizes()
    for query in algorithm.queries():
        entries = sizes.get(query.qid, query.k)
        state_bytes += (
            algorithm.dims + per_query_entry_words * entries
        ) * WORD
    breakdown.query_state = state_bytes
    return breakdown


def _tsl_space(algorithm: ThresholdSortedListAlgorithm) -> SpaceBreakdown:
    breakdown = SpaceBreakdown()
    entries = algorithm.sorted_list_entries()  # d lists × N records
    records = entries // max(1, algorithm.dims)
    breakdown.records = _record_bytes(records, algorithm.dims)
    # each sorted-list entry: attribute value + pointer (Figure 3)
    breakdown.sorted_lists = entries * 2 * WORD
    state_bytes = 0
    sizes = algorithm.result_state_sizes()
    for query in algorithm.queries():
        entries_q = sizes.get(query.qid, query.k)
        state_bytes += (algorithm.dims + 2 * entries_q) * WORD
    breakdown.query_state = state_bytes
    return breakdown
