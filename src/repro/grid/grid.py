"""The regular grid index (paper Section 4.1).

Cell extent is ``δ = 1/g`` per axis for ``g`` cells per axis over the
unit workspace. Given a record with attributes ``(x1 .. xd)`` its
covering cell is ``c(i1 .. id)`` with ``ij = xj / δ`` — computed in
constant time, which is why the paper prefers a grid over any
hierarchical main-memory index under high update rates.

Cells are materialised lazily: a 144-per-axis 2-D grid or a 5-per-axis
6-D grid both stay cheap when queries only ever touch the cells near
the preference-optimal corner. Geometry (bounds, neighbours) works for
non-materialised cells; only a point forces materialisation.

The workspace is the paper's unit cube: domain adapters (e.g. the
NetFlow example) normalise attributes before insertion, and
:class:`~repro.core.engine.StreamMonitor` refuses rows outside
``[0, 1]``, because cell maxscores bound only in-workspace rows. The
index itself still clamps an outside value into the boundary cell, so
``1.0`` (the upper face) maps to the last cell and the grid never
indexes out of range.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import batch
from repro.core.errors import DimensionalityError
from repro.core.regions import Rectangle
from repro.core.scoring import PreferenceFunction
from repro.core.tuples import StreamRecord
from repro.grid.cell import Cell

Coords = Tuple[int, ...]


class Grid:
    """Lazy regular grid over ``[0, 1]^dims`` with ``cells_per_axis^dims`` cells."""

    __slots__ = (
        "dims",
        "cells_per_axis",
        "delta",
        "_cells",
        "_flat_cells",
        "_strides",
    )

    def __init__(self, dims: int, cells_per_axis: int) -> None:
        if dims < 1:
            raise DimensionalityError(f"dims must be >= 1, got {dims}")
        if cells_per_axis < 1:
            raise DimensionalityError(
                f"cells_per_axis must be >= 1, got {cells_per_axis}"
            )
        self.dims = dims
        self.cells_per_axis = cells_per_axis
        self.delta = 1.0 / cells_per_axis
        self._cells: Dict[Coords, Cell] = {}
        #: same cells keyed by row-major flat index — the batch insert/
        #: delete paths hash one machine int (computed by a vectorized
        #: dot with _strides) instead of building and hashing a tuple
        #: per record.
        self._flat_cells: Dict[int, Cell] = {}
        self._strides = tuple(
            cells_per_axis ** (dims - 1 - dim) for dim in range(dims)
        )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def coords_of(self, attrs) -> Coords:
        """Covering-cell coordinates of an attribute vector (clamped)."""
        if len(attrs) != self.dims:
            raise DimensionalityError(
                f"point has {len(attrs)} dims, grid has {self.dims}"
            )
        top = self.cells_per_axis - 1
        return tuple(
            min(top, max(0, int(value * self.cells_per_axis)))
            for value in attrs
        )

    def coords_of_many(self, rows: Sequence[Sequence[float]]) -> List[Coords]:
        """Covering-cell coordinates of a whole batch of rows.

        The per-record cost of :meth:`coords_of`'s validation is
        hoisted: the NumPy path verifies the whole batch shape in one
        check during packing, and the fallback pays one length
        comparison per row (no per-record call or exception setup).
        Both paths raise :class:`DimensionalityError` on any malformed
        row, exactly like the scalar method. Under NumPy the
        scale-truncate-clamp pipeline runs as three array operations;
        truncation toward zero matches the scalar ``int(value * g)``
        exactly.
        """
        if not rows:
            return []
        if batch.np is not None and len(rows) >= 8:
            if len(rows[0]) != self.dims:
                raise DimensionalityError(
                    f"batch rows have {len(rows[0])} dims, "
                    f"grid has {self.dims}"
                )
            return [tuple(row) for row in self._index_matrix(rows).tolist()]
        g = self.cells_per_axis
        top = g - 1
        dims = self.dims
        out: List[Coords] = []
        for row in rows:
            if len(row) != dims:
                raise DimensionalityError(
                    f"batch row has {len(row)} dims, grid has {dims}"
                )
            out.append(
                tuple(min(top, max(0, int(value * g))) for value in row)
            )
        return out

    def _index_matrix(self, rows: Sequence[Sequence[float]]):
        """Clipped per-dimension cell indices of a batch, as ``(n, d)``
        int64 (NumPy backend only). Truncation toward zero matches the
        scalar ``int(value * g)``; the batch shape is validated once.
        """
        np = batch.np
        g = self.cells_per_axis
        try:
            scaled = np.asarray(rows, dtype=np.float64) * g
        except ValueError as exc:  # ragged batch
            raise DimensionalityError(
                f"inhomogeneous batch rows: {exc}"
            ) from None
        if scaled.shape[1] != self.dims:
            raise DimensionalityError(
                f"batch rows have {scaled.shape[1]} dims, "
                f"grid has {self.dims}"
            )
        if np.isnan(scaled).any():
            # Match the scalar path: int(nan) raises instead of the
            # astype(int64) silently producing a clamped garbage cell.
            raise ValueError("cannot map NaN attributes to grid cells")
        return np.clip(scaled.astype(np.int64), 0, g - 1)

    def bounds_of(self, coords: Coords) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """``(lower, upper)`` corners of the cell at ``coords``."""
        lower = tuple(index * self.delta for index in coords)
        upper = tuple((index + 1) * self.delta for index in coords)
        return lower, upper

    def in_bounds(self, coords: Coords) -> bool:
        """Whether ``coords`` addresses a cell inside this grid."""
        return all(0 <= index < self.cells_per_axis for index in coords)

    def best_corner_coords(self, function: PreferenceFunction) -> Coords:
        """Cell at the workspace corner that maximises ``function``.

        For an all-increasing function this is the top-right cell
        (paper Figure 5(b), cell c6,6); a decreasing dimension flips
        that axis to index 0 (Figure 7(a) starts bottom-right).
        """
        top = self.cells_per_axis - 1
        return tuple(
            top if direction > 0 else 0 for direction in function.directions
        )

    def steps_toward_worse(
        self, coords: Coords, function: PreferenceFunction
    ) -> List[Coords]:
        """In-bounds neighbour coords one step down the preference order.

        After processing cell ci,j the paper en-heaps ci-1,j and
        ci,j-1 (for increasing dimensions; decreasing dimensions step
        +1 instead, cf. Figure 7(a)). One neighbour per dimension.
        """
        neighbours: List[Coords] = []
        for dim, direction in enumerate(function.directions):
            index = coords[dim] - direction
            if 0 <= index < self.cells_per_axis:
                neighbours.append(coords[:dim] + (index,) + coords[dim + 1:])
        return neighbours

    def maxscore(self, coords: Coords, function: PreferenceFunction) -> float:
        """Upper score bound of any point in the cell at ``coords``."""
        lower, upper = self.bounds_of(coords)
        return function.maxscore(lower, upper)

    def maxscore_in_region(
        self,
        coords: Coords,
        function: PreferenceFunction,
        region: Rectangle,
    ) -> Optional[float]:
        """Upper score bound within ``cell ∩ region``; None if disjoint."""
        lower, upper = self.bounds_of(coords)
        clipped = region.clip(lower, upper)
        if clipped is None:
            return None
        return function.maxscore(clipped.lower, clipped.upper)

    # ------------------------------------------------------------------
    # Cell storage
    # ------------------------------------------------------------------

    def get_cell(self, coords: Coords) -> Cell:
        """Materialise (if needed) and return the cell at ``coords``."""
        cell = self._cells.get(coords)
        if cell is None:
            if not self.in_bounds(coords):
                raise DimensionalityError(
                    f"cell coords {coords} outside grid of "
                    f"{self.cells_per_axis}^{self.dims}"
                )
            lower, upper = self.bounds_of(coords)
            cell = Cell(coords, lower, upper)
            self._cells[coords] = cell
            flat = 0
            for index in coords:
                flat = flat * self.cells_per_axis + index
            self._flat_cells[flat] = cell
        return cell

    def peek_cell(self, coords: Coords) -> Optional[Cell]:
        """Return the cell at ``coords`` if materialised, else None."""
        return self._cells.get(coords)

    def cells(self) -> Iterator[Cell]:
        """Iterate over materialised cells (arbitrary order)."""
        return iter(self._cells.values())

    @property
    def allocated_cells(self) -> int:
        return len(self._cells)

    @property
    def total_cells(self) -> int:
        return self.cells_per_axis**self.dims

    # ------------------------------------------------------------------
    # Point maintenance
    # ------------------------------------------------------------------

    def insert(self, record: StreamRecord) -> Cell:
        """Add ``record`` to its covering cell's point list."""
        cell = self.get_cell(self.coords_of(record.attrs))
        cell.add_point(record)
        return cell

    def delete(self, record: StreamRecord) -> Cell:
        """Remove ``record`` from its covering cell's point list."""
        cell = self.get_cell(self.coords_of(record.attrs))
        cell.remove_point(record)
        return cell

    def insert_many(self, records: Sequence[StreamRecord]) -> List[Cell]:
        """Add a batch of records; return each record's covering cell.

        The batched entry point of the cycle hot path: one vectorized
        pass replaces per-record validation, tuple building and tuple
        hashing (cells resolve through the flat-int index), and callers
        get the cells back so they can run their influence-region tests
        without a second lookup.
        """
        cells = self._cells_of_many(records)
        for record, cell in zip(records, cells):
            cell.add_point(record)
        return cells

    def delete_many(self, records: Sequence[StreamRecord]) -> List[Cell]:
        """Remove a batch of records; return each record's covering cell."""
        cells = self._cells_of_many(records)
        for record, cell in zip(records, cells):
            cell.remove_point(record)
        return cells

    def _cells_of_many(self, records: Sequence[StreamRecord]) -> List[Cell]:
        """Covering cells of a record batch, materialising as needed."""
        rows = [record.attrs for record in records]
        if batch.np is None or len(rows) < 8:
            return [self.get_cell(coords) for coords in self.coords_of_many(rows)]
        indices = self._index_matrix(rows)
        # Integer matmul: cell indices x strides is exact int
        # arithmetic, so accumulation order cannot change the result
        # (the dual-backend hazard only exists for floats).
        flats = (indices @ batch.np.asarray(self._strides)).tolist()  # repro: ignore[DET103]
        known = self._flat_cells
        cells: List[Cell] = []
        for position, flat in enumerate(flats):
            cell = known.get(flat)
            if cell is None:  # rare after warm-up: materialise via coords
                cell = self.get_cell(tuple(indices[position].tolist()))
            cells.append(cell)
        return cells

    def locate(self, record: StreamRecord) -> Cell:
        """Covering cell of ``record`` (materialising it if needed)."""
        return self.get_cell(self.coords_of(record.attrs))

    def point_count(self) -> int:
        """Total points across materialised cells (O(cells))."""
        return sum(len(cell) for cell in self._cells.values())
