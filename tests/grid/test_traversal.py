"""Tests for the top-k computation module (paper Figure 6).

Includes the paper's worked examples (Figures 5 and 7) plus minimality
and correctness properties on randomized data.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regions import Rectangle
from repro.core.scoring import LinearFunction, ProductFunction
from repro.core.stats import OpCounters
from repro.core.tuples import RecordFactory
from repro.grid.grid import Grid
from repro.grid.traversal import (
    collect_cells_above_threshold,
    compute_top_k,
    start_coords,
)

from tests.conftest import brute_top_k, make_records, random_rows
from repro.core.queries import TopKQuery


def populated_grid(rows, cells=7, dims=2):
    grid = Grid(dims, cells)
    records = make_records(rows)
    for record in records:
        grid.insert(record)
    return grid, records


class TestPaperFigure5:
    """Figure 5: top-1, f = x1 + 2*x2, 7x7 grid, points p1 and p2."""

    def setup_method(self):
        # p1 high in the top-right region, p2 slightly worse.
        self.rows = [(0.62, 0.93), (0.11, 0.95)]  # p1, p2
        self.grid, self.records = populated_grid(self.rows)
        self.f = LinearFunction([1.0, 2.0])

    def test_returns_p1(self):
        outcome = compute_top_k(self.grid, self.f, 1)
        assert [e.rid for e in outcome.entries] == [0]

    def test_starts_at_c66(self):
        outcome = compute_top_k(self.grid, self.f, 1)
        assert outcome.processed[0] == (6, 6)

    def test_minimality(self):
        """Processed cells are exactly those that can beat the result."""
        outcome = compute_top_k(self.grid, self.f, 1)
        top_score = outcome.entries[0].score
        processed = set(outcome.processed)
        for x in range(7):
            for y in range(7):
                if self.grid.maxscore((x, y), self.f) > top_score:
                    assert (x, y) in processed
        for coords in processed:
            assert self.grid.maxscore(coords, self.f) >= top_score

    def test_processed_cells_are_a_prefix_of_the_order(self):
        outcome = compute_top_k(self.grid, self.f, 1)
        top_score = outcome.entries[0].score
        order = outcome.order
        reach = len(outcome.processed)
        assert order.coords[:reach] == outcome.processed
        # The sweep stopped at the first cell that cannot contribute.
        assert order.reaches(reach)
        assert order.keys[reach] < top_score
        assert order.keys[: reach + 1] == sorted(
            order.keys[: reach + 1], reverse=True
        )


class TestPaperFigure7:
    def test_mixed_direction_function(self):
        """Figure 7(a): f = x1 - x2, k=2 starts bottom-right."""
        rows = [(0.9, 0.15), (0.8, 0.3), (0.2, 0.8)]  # p3, p4, p5-ish
        grid, records = populated_grid(rows)
        f = LinearFunction([1.0, -1.0])
        outcome = compute_top_k(grid, f, 2)
        assert outcome.processed[0] == (6, 0)
        assert [e.rid for e in outcome.entries] == [0, 1]

    def test_nonlinear_product_function(self):
        """Figure 7(b): f = x1 * x2, top-1."""
        rows = [(0.85, 0.85), (0.99, 0.2)]
        grid, records = populated_grid(rows)
        f = ProductFunction([0.0, 0.0])
        outcome = compute_top_k(grid, f, 1)
        assert [e.rid for e in outcome.entries] == [0]


class TestEdgeCases:
    def test_empty_grid(self):
        grid = Grid(2, 4)
        outcome = compute_top_k(grid, LinearFunction([1.0, 1.0]), 3)
        assert outcome.entries == []
        # With nothing found the whole grid is processed.
        assert len(outcome.processed) == 16
        assert not outcome.order.reaches(16)

    def test_fewer_records_than_k(self):
        grid, records = populated_grid([(0.5, 0.5), (0.2, 0.2)], cells=4)
        outcome = compute_top_k(grid, LinearFunction([1.0, 1.0]), 10)
        assert len(outcome.entries) == 2
        assert outcome.kth_key == (pytest.approx(0.4), 1)

    def test_kth_key_empty(self):
        grid = Grid(2, 2)
        outcome = compute_top_k(grid, LinearFunction([1.0, 1.0]), 1)
        assert outcome.kth_key == (float("-inf"), -1)

    def test_counters_updated(self):
        grid, _ = populated_grid([(0.9, 0.9)], cells=4)
        counters = OpCounters()
        compute_top_k(grid, LinearFunction([1.0, 1.0]), 1, counters=counters)
        assert counters.topk_computations == 1
        assert counters.cells_processed >= 1
        assert counters.points_scored == 1

    def test_score_ties_resolved_by_recency(self):
        # Two records with identical attributes: later rid wins.
        grid, records = populated_grid([(0.5, 0.5), (0.5, 0.5)], cells=4)
        outcome = compute_top_k(grid, LinearFunction([1.0, 1.0]), 1)
        assert [e.rid for e in outcome.entries] == [1]

    def test_single_cell_grid(self):
        grid, records = populated_grid([(0.2, 0.9), (0.7, 0.1)], cells=1)
        outcome = compute_top_k(grid, LinearFunction([1.0, 1.0]), 1)
        assert [e.rid for e in outcome.entries] == [0]


class TestConstrainedTraversal:
    def test_region_start_cell(self):
        grid = Grid(2, 10)
        f = LinearFunction([1.0, 1.0])
        region = Rectangle((0.2, 0.2), (0.5, 0.7))
        # Upper corner 0.5 lies exactly on a cell boundary: start cell
        # must be pulled back inside the region.
        assert start_coords(grid, f, region) == (4, 6)

    def test_record_one_ulp_below_the_region_bound_is_found(self):
        # 10/12 - 1 ulp lies inside [0.5, 10/12), yet times 6 it rounds
        # to 5.0: the record sits in cell 5, which the sweep must reach.
        upper = 10 / 12
        inside = math.nextafter(upper, 0.0)
        grid, records = populated_grid([(0.6, 0.0), (inside, 0.0)], cells=6)
        assert grid.coords_of(records[1].attrs) == (5, 0)
        region = Rectangle((0.5, 0.0), (upper, 0.5))
        f = LinearFunction([1.0, 1.0])
        outcome = compute_top_k(grid, f, 1, region=region)
        assert [e.rid for e in outcome.entries] == [1]

    def test_region_filtering(self):
        rows = [(0.9, 0.9), (0.45, 0.65), (0.3, 0.3)]
        grid, records = populated_grid(rows, cells=10)
        f = LinearFunction([1.0, 1.0])
        region = Rectangle((0.2, 0.2), (0.5, 0.7))
        outcome = compute_top_k(grid, f, 1, region=region)
        assert [e.rid for e in outcome.entries] == [1]

    def test_region_with_mixed_directions(self):
        rows = [(0.9, 0.1), (0.45, 0.25), (0.4, 0.6)]
        grid, records = populated_grid(rows, cells=10)
        f = LinearFunction([1.0, -1.0])
        region = Rectangle((0.2, 0.2), (0.5, 0.7))
        outcome = compute_top_k(grid, f, 1, region=region)
        assert [e.rid for e in outcome.entries] == [1]

    def test_point_filter(self):
        rows = [(0.9, 0.9), (0.8, 0.8)]
        grid, records = populated_grid(rows, cells=4)
        outcome = compute_top_k(
            grid,
            LinearFunction([1.0, 1.0]),
            1,
            point_filter=lambda record: record.rid != 0,
        )
        assert [e.rid for e in outcome.entries] == [1]


class TestThresholdCollection:
    def test_collects_threshold_staircase(self):
        grid = Grid(2, 4)
        f = LinearFunction([1.0, 1.0])
        cells = collect_cells_above_threshold(grid, f, 1.5)
        expected = {
            (x, y)
            for x in range(4)
            for y in range(4)
            if grid.maxscore((x, y), f) > 1.5
        }
        assert set(cells) == expected

    def test_threshold_above_max_collects_nothing(self):
        grid = Grid(2, 4)
        f = LinearFunction([1.0, 1.0])
        assert collect_cells_above_threshold(grid, f, 2.5) == []


class TestRandomizedCorrectness:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        rows = random_rows(rng, 120, 2)
        grid, records = populated_grid(rows, cells=6)
        weights = [rng.uniform(-1, 1) or 0.5 for _ in range(2)]
        f = LinearFunction(weights)
        k = rng.choice([1, 3, 7])
        query = TopKQuery(f, k)
        outcome = compute_top_k(grid, f, k)
        expected = brute_top_k(records, query)
        assert [e.rid for e in outcome.entries] == [e.rid for e in expected]

    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_higher_dimensions(self, dims):
        rng = random.Random(dims)
        rows = random_rows(rng, 80, dims)
        grid = Grid(dims, 3)
        records = make_records(rows)
        for record in records:
            grid.insert(record)
        f = LinearFunction([1.0] * dims)
        query = TopKQuery(f, 5)
        outcome = compute_top_k(grid, f, 5)
        expected = brute_top_k(records, query)
        assert [e.rid for e in outcome.entries] == [e.rid for e in expected]

    @settings(max_examples=40, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.integers(0, 9),
                st.integers(0, 9),
            ),
            min_size=1,
            max_size=40,
        ),
        k=st.integers(1, 6),
    )
    def test_tie_heavy_integer_grid(self, points, k):
        """Crafted ties: scores collide constantly; canonical order must hold."""
        rows = [(x / 10.0, y / 10.0) for x, y in points]
        grid, records = populated_grid(rows, cells=5)
        f = LinearFunction([1.0, 1.0])
        outcome = compute_top_k(grid, f, k)
        expected = brute_top_k(records, TopKQuery(f, k))
        assert [e.rid for e in outcome.entries] == [e.rid for e in expected]
