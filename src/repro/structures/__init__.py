"""Substrate data structures used by the monitoring algorithms.

These are the in-memory building blocks the paper's system relies on:

- :class:`~repro.structures.heap.BinaryMaxHeap` — the cell heap of the
  top-k computation module (Section 4.2).
- :class:`~repro.structures.ostree.OrderStatisticTree` — the balanced
  tree ``BT`` used by SMA to compute dominance counters in
  ``O(k log k)`` time (Section 5).
- :class:`~repro.structures.sorted_list.SortedKeyList` — the sorted
  attribute lists maintained by the TSL baseline (Section 3.2) and the
  ordered top-lists / skybands of the monitoring algorithms.

Everything here is pure Python with no third-party dependencies so the
operation counts measured by the benchmarks reflect the paper's cost
model rather than vectorisation artefacts.
"""

from repro.structures.heap import BinaryMaxHeap
from repro.structures.ostree import OrderStatisticTree
from repro.structures.sorted_list import SortedKeyList

__all__ = [
    "BinaryMaxHeap",
    "OrderStatisticTree",
    "SortedKeyList",
]
