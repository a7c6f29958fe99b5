"""A grid cell: geometry + point list.

Paper Section 4.1: each cell keeps (i) a list of pointers to the valid
records it covers, maintained FIFO because window eviction is FIFO,
and (ii) an *influence list* with an entry for every query whose
influence region intersects the cell. Only (i) lives here. The
influence regions belong to the queries — each query state holds the
set of cells its region covers (see
:mod:`repro.algorithms.topk_computation`), so a cell needs no upkeep
when a region grows, shrinks or disappears.

The point list here is an insertion-ordered dict keyed by record id:
iteration order is FIFO (covering the sliding-window model) while
deletion by id is O(1) (covering the update-stream model of Section 7,
where the paper switches the point lists to hash tables).

On top of the dict, the cell maintains a *columnar* view for the batch
scoring kernels: :meth:`columns` returns the records as a list plus
their attributes packed by :func:`repro.core.batch.as_matrix`, so the
Figure-6 traversal scores a whole cell with one
:meth:`~repro.core.scoring.PreferenceFunction.score_batch` call. The
packed block is built lazily and cached until the next point mutation —
a cell untouched between two top-k computations (the common case: per
cycle only the cells covering that cycle's arrivals/expirations change)
re-serves its block for free, to any number of queries.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core import batch
from repro.core.tuples import StreamRecord


class Cell:
    """One grid cell. Created lazily by :class:`repro.grid.grid.Grid`."""

    __slots__ = (
        "coords",
        "lower",
        "upper",
        "points",
        "_col_records",
        "_col_matrix",
    )

    def __init__(
        self,
        coords: Tuple[int, ...],
        lower: Tuple[float, ...],
        upper: Tuple[float, ...],
    ) -> None:
        self.coords = coords
        self.lower = lower
        self.upper = upper
        #: record id -> record, insertion-ordered (FIFO iteration).
        self.points: Dict[int, StreamRecord] = {}
        #: cached columnar view (records list + packed attribute block);
        #: None whenever the point list changed since the last build.
        self._col_records: Optional[List[StreamRecord]] = None
        self._col_matrix = None

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"Cell{self.coords}[{len(self.points)} pts]"

    def add_point(self, record: StreamRecord) -> None:
        self.points[record.rid] = record
        self._col_matrix = None

    def remove_point(self, record: StreamRecord) -> None:
        """Remove a record; KeyError if absent (callers guarantee it)."""
        del self.points[record.rid]
        self._col_matrix = None

    def iter_points(self) -> Iterator[StreamRecord]:
        """Valid records in this cell, oldest-first."""
        return iter(self.points.values())

    def columns(self):
        """Columnar view ``(records, matrix)`` for batch scoring.

        ``records[i]`` owns row ``i`` of ``matrix``; row order is the
        FIFO point-list order. Rebuilt lazily after mutations, cached
        otherwise. Callers must not mutate either object.
        """
        if self._col_matrix is None:
            records = list(self.points.values())
            self._col_records = records
            self._col_matrix = batch.as_matrix(
                [record.attrs for record in records]
            )
        return self._col_records, self._col_matrix
