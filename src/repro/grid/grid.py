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

Points are slots of a :class:`~repro.core.window.RecordStore` — the
monitor's one copy of the valid records, or a private store for a
stand-alone grid. The store keeps each slot's flat cell id, so a
delete finds the cell without mapping the record again.

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
from repro.core.window import RecordStore
from repro.grid.cell import Cell

Coords = Tuple[int, ...]

#: the paper's measured-optimum grid occupancy (1M records / 12^4 cells)
PAPER_POINTS_PER_CELL = 1_000_000 / 12**4


def default_cells_per_axis(dims: int, n: int = 20_000) -> int:
    """Grid granularity matching the paper's occupancy sweet spot.

    The paper fixes ~12^4 total cells for N=1M (≈48 points per cell)
    across all dimensionalities. We solve for the per-axis count that
    reproduces that occupancy at the configured N.
    """
    target_cells = max(1.0, n / PAPER_POINTS_PER_CELL)
    per_axis = round(target_cells ** (1.0 / dims))
    return max(2, int(per_axis))


class Grid:
    """Lazy regular grid over ``[0, 1]^dims`` with ``cells_per_axis^dims`` cells."""

    __slots__ = (
        "dims",
        "cells_per_axis",
        "delta",
        "_cells",
        "_flat_cells",
        "_strides",
        "store",
    )

    def __init__(
        self,
        dims: int,
        cells_per_axis: int,
        store: Optional[RecordStore] = None,
    ) -> None:
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
        #: the records the cells' slots index (a private store unless
        #: the owner shares one).
        self.store = RecordStore(dims) if store is None else store

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

    def insert_many(self, slots: Sequence[int]) -> List[Cell]:
        """Add a batch of stored records; return each one's covering cell.

        ``slots`` index :attr:`store`. One vectorized pass maps the
        batch's rows to flat cell ids, which the store keeps per slot
        (so :meth:`delete_many` never maps a record again), and callers
        get the cells back for their influence-region tests.
        """
        if not slots:
            return []
        flats = self._flat_ids(self.store.gather(slots))
        self.store.put_cells(slots, flats)
        cells = self._cells_of_flats(flats)
        for slot, cell in zip(slots, cells):
            cell.slots[slot] = None
        return cells

    def delete_many(self, slots: Sequence[int]) -> List[Cell]:
        """Remove a batch of stored records; return each one's covering
        cell (read from the cell id the store kept at insert)."""
        cells = list(map(self._flat_cells.__getitem__, self.store.cells_of(slots)))
        for slot, cell in zip(slots, cells):
            del cell.slots[slot]
        return cells

    def cells_of_slots(self, slots: Sequence[int]) -> List[Cell]:
        """Covering cells of records already inserted."""
        return list(map(self._flat_cells.__getitem__, self.store.cells_of(slots)))

    def insert(self, record: StreamRecord) -> Cell:
        """Store ``record`` and add it to its covering cell."""
        return self.insert_many(self.store.add_records([record]))[0]

    def delete(self, record: StreamRecord) -> Cell:
        """Remove ``record`` from its cell and from the store."""
        slots = self.store.slots_of_records([record])
        cell = self.delete_many(slots)[0]
        self.store.release(slots)
        return cell

    def _flat_ids(self, rows) -> List[int]:
        """Row-major flat cell ids of a block of rows."""
        if batch.is_matrix(rows):
            # Integer matmul: cell indices x strides is exact int
            # arithmetic, so accumulation order cannot change the result
            # (the dual-backend hazard only exists for floats).
            return (self._index_matrix(rows) @ batch.np.asarray(self._strides)).tolist()  # repro: ignore[DET103]
        g = self.cells_per_axis
        flats = []
        for coords in self.coords_of_many(rows):
            flat = 0
            for index in coords:
                flat = flat * g + index
            flats.append(flat)
        return flats

    def _cells_of_flats(self, flats: Sequence[int]) -> List[Cell]:
        """The cells at flat ids, materialising as needed."""
        known = self._flat_cells
        cells: List[Cell] = []
        for flat in flats:
            cell = known.get(flat)
            if cell is None:  # rare after warm-up: materialise via coords
                coords = []
                for stride in self._strides:
                    coords.append(flat // stride)
                    flat %= stride
                cell = self.get_cell(tuple(coords))
            cells.append(cell)
        return cells

    def records_in(self, cell: Cell) -> List[StreamRecord]:
        """The records of ``cell``, oldest first (built on read)."""
        return self.store.records(cell.slots)

    def locate(self, record: StreamRecord) -> Cell:
        """Covering cell of ``record`` (materialising it if needed)."""
        return self.get_cell(self.coords_of(record.attrs))

    def point_count(self) -> int:
        """Total points across materialised cells (O(cells))."""
        return sum(len(cell) for cell in self._cells.values())
