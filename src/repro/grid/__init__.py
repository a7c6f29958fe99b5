"""Regular-grid index over the d-dimensional workspace (Section 4.1).

The grid is the only index the system needs: cells hold *point lists*
(the valid records inside the cell). The top-k computation module in
:mod:`repro.grid.traversal` walks cells in descending ``maxscore``
order and provably touches only the cells that intersect a query's
influence region; the cells it touched become that region, held by the
query (:mod:`repro.algorithms.topk_computation`).
"""

from repro.grid.cell import Cell
from repro.grid.grid import Grid
from repro.grid.traversal import (
    SweepOrder,
    TraversalOutcome,
    collect_cells_above_threshold,
    compute_top_k,
)

__all__ = [
    "Cell",
    "Grid",
    "SweepOrder",
    "TraversalOutcome",
    "collect_cells_above_threshold",
    "compute_top_k",
]
