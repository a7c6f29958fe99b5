"""Batched grid paths: coords_of_many, insert/delete_many, columnar cells,
and the precomputed linear maxscore tables of the traversal."""

import random

import pytest

from repro.core import batch
from repro.core.errors import DimensionalityError
from repro.core.scoring import LinearFunction
from repro.core.stats import NULL_COUNTERS, OpCounters
from repro.core.tuples import RecordFactory
from repro.grid.grid import Grid
from repro.grid.traversal import _linear_maxscore_fn, compute_top_k


class TestCoordsOfMany:
    def test_matches_scalar_coords_of(self):
        rng = random.Random(3)
        grid = Grid(3, 7)
        rows = [
            tuple(rng.uniform(-0.2, 1.2) for _ in range(3))
            for _ in range(100)
        ]
        assert grid.coords_of_many(rows) == [
            grid.coords_of(row) for row in rows
        ]

    def test_boundary_values_match_scalar(self):
        grid = Grid(2, 4)
        rows = [
            (0.0, 1.0),
            (0.25, 0.25),  # exactly on a cell boundary
            (0.9999999, 1.0000001),
            (-0.5, 2.0),  # clamped into the boundary cells
        ]
        assert grid.coords_of_many(rows) == [
            grid.coords_of(row) for row in rows
        ]

    def test_empty_batch(self):
        assert Grid(2, 4).coords_of_many([]) == []

    def test_small_batch_uses_scalar_path(self):
        grid = Grid(2, 4)
        rows = [(0.1, 0.9)]  # below the vectorization threshold
        assert grid.coords_of_many(rows) == [grid.coords_of(rows[0])]

    def test_validates_once_per_batch(self):
        grid = Grid(2, 4)
        with pytest.raises(DimensionalityError):
            grid.coords_of_many([(0.1, 0.2, 0.3)] * 10)

    def test_malformed_row_raises_on_every_path(self):
        # Scalar path (small batch) and vector path must both reject a
        # malformed row, wherever it sits in the batch — a silent
        # wrong-dims coords tuple would materialise a phantom cell no
        # traversal ever visits.
        grid = Grid(2, 4)
        with pytest.raises(DimensionalityError):
            grid.coords_of_many([(0.1, 0.2), (0.3,)])  # small batch
        with pytest.raises(DimensionalityError):
            grid.coords_of_many([(0.1, 0.2)] * 9 + [(0.3,)])  # ragged, large


class TestBatchedPointMaintenance:
    def test_insert_many_matches_insert(self):
        rng = random.Random(5)
        factory = RecordFactory()
        records = [
            factory.make((rng.random(), rng.random())) for _ in range(40)
        ]
        one = Grid(2, 5)
        many = Grid(2, 5)
        scalar_cells = [one.insert(record) for record in records]
        batch_cells = many.insert_many(many.store.add_records(records))
        assert [cell.coords for cell in batch_cells] == [
            cell.coords for cell in scalar_cells
        ]
        assert one.point_count() == many.point_count() == 40

    def test_delete_many_roundtrip(self):
        factory = RecordFactory()
        records = [factory.make((i / 10.0, i / 10.0)) for i in range(10)]
        grid = Grid(2, 5)
        slots = grid.store.add_records(records)
        inserted = grid.insert_many(slots)
        cells = grid.delete_many(slots)
        assert grid.point_count() == 0
        assert cells == inserted


class TestSlotCell:
    """Cells hold store slots; a cell's block is one gather."""

    def test_gather_tracks_point_list(self):
        factory = RecordFactory()
        grid = Grid(2, 2)
        first = factory.make((0.1, 0.1))
        second = factory.make((0.2, 0.2))
        cell = grid.insert(first)
        assert grid.insert(second) is cell
        assert grid.records_in(cell) == [first, second]
        matrix = grid.store.gather(list(cell.slots))
        assert batch.to_list(
            LinearFunction([1.0, 1.0]).score_batch(matrix)
        ) == [
            LinearFunction([1.0, 1.0]).score(record.attrs)
            for record in (first, second)
        ]

    def test_delete_frees_the_slot_for_reuse(self):
        factory = RecordFactory()
        grid = Grid(2, 2)
        record = factory.make((0.1, 0.1))
        cell = grid.insert(record)
        (slot,) = cell.slots
        grid.delete(record)
        assert len(cell) == 0 and record.rid not in grid.store.index
        again = factory.make((0.6, 0.6))
        assert list(grid.insert(again).slots) == [slot]
        assert grid.store.record(slot) is again

    def test_fifo_iteration_preserved(self):
        factory = RecordFactory()
        grid = Grid(2, 2)
        records = [factory.make((0.1, 0.1)) for _ in range(5)]
        for record in records:
            grid.insert(record)
        cell = grid.peek_cell(grid.coords_of((0.1, 0.1)))
        assert grid.records_in(cell) == records
        assert grid.store.rids[: len(records)] == [r.rid for r in records]


class TestLinearMaxscoreTables:
    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_equal_to_generic_maxscore(self, seed):
        rng = random.Random(seed)
        dims = rng.choice([1, 2, 3, 4])
        grid = Grid(dims, rng.choice([2, 5, 12, 144]))
        function = LinearFunction(
            [rng.uniform(-1.0, 1.0) for _ in range(dims)]
        )
        evaluator = _linear_maxscore_fn(grid, function)
        for _ in range(50):
            coords = tuple(
                rng.randrange(grid.cells_per_axis) for _ in range(dims)
            )
            assert evaluator(coords) == grid.maxscore(coords, function)


class TestNullCounters:
    def test_increments_vanish_and_reads_are_zero(self):
        NULL_COUNTERS.points_scored += 5
        assert NULL_COUNTERS.points_scored == 0

    def test_traversal_accepts_missing_counters(self):
        factory = RecordFactory()
        grid = Grid(2, 4)
        grid.insert(factory.make((0.9, 0.9)))
        outcome = compute_top_k(grid, LinearFunction([1.0, 1.0]), 1)
        assert [entry.rid for entry in outcome.entries] == [0]

    def test_real_counters_still_update(self):
        factory = RecordFactory()
        grid = Grid(2, 4)
        grid.insert(factory.make((0.9, 0.9)))
        counters = OpCounters()
        compute_top_k(
            grid, LinearFunction([1.0, 1.0]), 1, counters=counters
        )
        assert counters.points_scored == 1
        assert counters.topk_computations == 1
