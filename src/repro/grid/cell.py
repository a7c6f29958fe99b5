"""A grid cell: geometry + the slots of the records it covers.

Paper Section 4.1: each cell keeps (i) a list of pointers to the valid
records it covers, maintained FIFO because window eviction is FIFO,
and (ii) an *influence list* with an entry for every query whose
influence region intersects the cell. Only (i) lives here. The
influence regions belong to the queries — each query state holds the
set of cells its region covers (see
:mod:`repro.algorithms.topk_computation`), so a cell needs no upkeep
when a region grows, shrinks or disappears.

The pointers are *slots* of the grid's
:class:`~repro.core.window.RecordStore`, the one copy of each record.
They sit in an insertion-ordered dict keyed by slot: iteration order
is FIFO (the sliding-window model) while deletion is O(1) (the
update-stream model of Section 7, where the paper switches the point
lists to hash tables). A cell holds no attribute copy: the traversal
gathers a whole wave of cells' rows from the store in one call
(:meth:`~repro.core.window.RecordStore.gather`).
"""

from __future__ import annotations

from typing import Dict, Tuple


class Cell:
    """One grid cell. Created lazily by :class:`repro.grid.grid.Grid`."""

    __slots__ = ("coords", "lower", "upper", "slots")

    def __init__(
        self,
        coords: Tuple[int, ...],
        lower: Tuple[float, ...],
        upper: Tuple[float, ...],
    ) -> None:
        self.coords = coords
        self.lower = lower
        self.upper = upper
        #: store slot -> None, insertion-ordered (FIFO iteration).
        self.slots: Dict[int, None] = {}

    def __len__(self) -> int:
        return len(self.slots)

    def __repr__(self) -> str:
        return f"Cell{self.coords}[{len(self.slots)} pts]"
