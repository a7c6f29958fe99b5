"""Tests for the regular grid index and cell geometry."""

import pytest

from repro.core.errors import DimensionalityError
from repro.core.regions import Rectangle
from repro.core.scoring import LinearFunction
from repro.core.tuples import RecordFactory
from repro.grid.grid import Grid


@pytest.fixture
def factory():
    return RecordFactory()


class TestGeometry:
    def test_invalid_construction(self):
        with pytest.raises(DimensionalityError):
            Grid(0, 4)
        with pytest.raises(DimensionalityError):
            Grid(2, 0)

    def test_coords_of(self):
        grid = Grid(2, 10)
        assert grid.coords_of((0.05, 0.95)) == (0, 9)
        assert grid.coords_of((0.55, 0.51)) == (5, 5)

    def test_coords_clamping(self):
        grid = Grid(2, 10)
        assert grid.coords_of((1.0, 1.0)) == (9, 9)  # 1.0 is inside
        assert grid.coords_of((-0.5, 2.0)) == (0, 9)  # clamp out-of-range

    def test_coords_dim_mismatch(self):
        with pytest.raises(DimensionalityError):
            Grid(2, 4).coords_of((0.5,))

    def test_bounds_of(self):
        grid = Grid(2, 4)
        lower, upper = grid.bounds_of((1, 3))
        assert lower == (0.25, 0.75)
        assert upper == (0.5, 1.0)

    def test_cell_extent_matches_paper(self):
        # Paper: cell ci,j covers [i*delta, (i+1)*delta) per axis.
        grid = Grid(2, 7)
        coords = grid.coords_of((0.99, 0.99))
        assert coords == (6, 6)  # the paper's c6,6 in a 7x7 grid

    def test_total_cells(self):
        assert Grid(4, 12).total_cells == 12**4


class TestDirections:
    def test_best_corner_all_increasing(self):
        grid = Grid(2, 7)
        f = LinearFunction([1.0, 2.0])
        assert grid.best_corner_coords(f) == (6, 6)

    def test_best_corner_mixed(self):
        # Figure 7(a): f = x1 - x2 starts at the bottom-right cell.
        grid = Grid(2, 7)
        f = LinearFunction([1.0, -1.0])
        assert grid.best_corner_coords(f) == (6, 0)

    def test_steps_toward_worse_interior(self):
        grid = Grid(2, 7)
        f = LinearFunction([1.0, 2.0])
        assert set(grid.steps_toward_worse((5, 6), f)) == {(4, 6), (5, 5)}

    def test_steps_toward_worse_mixed_direction(self):
        grid = Grid(2, 7)
        f = LinearFunction([1.0, -1.0])
        # Decreasing x2: the "worse" neighbour moves up (+1).
        assert set(grid.steps_toward_worse((6, 0), f)) == {(5, 0), (6, 1)}

    def test_steps_stop_at_border(self):
        grid = Grid(2, 7)
        f = LinearFunction([1.0, 2.0])
        assert grid.steps_toward_worse((0, 0), f) == []

    def test_steps_3d(self):
        grid = Grid(3, 4)
        f = LinearFunction([1.0, 1.0, 1.0])
        assert set(grid.steps_toward_worse((3, 3, 3), f)) == {
            (2, 3, 3),
            (3, 2, 3),
            (3, 3, 2),
        }


class TestMaxscore:
    def test_maxscore(self):
        grid = Grid(2, 4)
        f = LinearFunction([1.0, 2.0])
        # Cell (3,3) = [0.75,1.0)^2; best corner (1.0, 1.0).
        assert grid.maxscore((3, 3), f) == pytest.approx(3.0)

    def test_maxscore_in_region(self):
        grid = Grid(2, 4)
        f = LinearFunction([1.0, 1.0])
        region = Rectangle((0.0, 0.0), (0.85, 0.85))
        clipped = grid.maxscore_in_region((3, 3), f, region)
        assert clipped == pytest.approx(1.7)

    def test_maxscore_in_disjoint_region(self):
        grid = Grid(2, 4)
        f = LinearFunction([1.0, 1.0])
        region = Rectangle((0.0, 0.0), (0.5, 0.5))
        assert grid.maxscore_in_region((3, 3), f, region) is None


class TestStorage:
    def test_lazy_materialisation(self, factory):
        grid = Grid(2, 4)
        assert grid.allocated_cells == 0
        grid.insert(factory.make((0.1, 0.1)))
        assert grid.allocated_cells == 1
        assert grid.peek_cell((3, 3)) is None
        grid.get_cell((3, 3))
        assert grid.allocated_cells == 2

    def test_out_of_bounds_cell(self):
        with pytest.raises(DimensionalityError):
            Grid(2, 4).get_cell((4, 0))

    def test_insert_delete_roundtrip(self, factory):
        grid = Grid(2, 4)
        record = factory.make((0.3, 0.7))
        cell = grid.insert(record)
        assert grid.store.index[record.rid] in cell.slots
        assert grid.point_count() == 1
        assert grid.locate(record) is cell
        grid.delete(record)
        assert grid.point_count() == 0

    def test_point_list_fifo_iteration(self, factory):
        grid = Grid(2, 2)
        records = [factory.make((0.1, 0.1)) for _ in range(3)]
        for record in records:
            grid.insert(record)
        cell = grid.locate(records[0])
        assert [r.rid for r in grid.records_in(cell)] == [0, 1, 2]

    def test_cells_iterator(self, factory):
        grid = Grid(2, 4)
        grid.insert(factory.make((0.1, 0.1)))
        grid.insert(factory.make((0.9, 0.9)))
        assert len(list(grid.cells())) == 2

    def test_cell_repr(self, factory):
        grid = Grid(2, 4)
        cell = grid.insert(factory.make((0.1, 0.1)))
        assert "1 pts" in repr(cell)
        assert "(0, 0)" in repr(cell)
