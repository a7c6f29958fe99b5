"""Tests for the naive sorted-cell scan (Section 4.2's strawman)."""

import random

import pytest

from repro.core.queries import TopKQuery
from repro.core.scoring import LinearFunction
from repro.core.stats import OpCounters
from repro.grid.grid import Grid
from repro.grid.naive import compute_top_k_naive
from repro.grid.traversal import compute_top_k

from tests.conftest import brute_top_k, make_records, random_rows


def populated(rows, cells=6, dims=2):
    grid = Grid(dims, cells)
    records = make_records(rows)
    for record in records:
        grid.insert(record)
    return grid, records


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute(self, seed):
        rng = random.Random(seed)
        rows = random_rows(rng, 80, 2)
        grid, records = populated(rows)
        f = LinearFunction([rng.uniform(0.1, 1), rng.uniform(0.1, 1)])
        k = rng.choice([1, 4, 9])
        outcome = compute_top_k_naive(grid, f, k)
        expected = brute_top_k(records, TopKQuery(f, k))
        assert [e.rid for e in outcome.entries] == [e.rid for e in expected]

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_heap_traversal(self, seed):
        rng = random.Random(30 + seed)
        rows = random_rows(rng, 60, 3)
        grid, records = populated(rows, cells=4, dims=3)
        f = LinearFunction([1.0, 0.5, 0.8])
        naive = compute_top_k_naive(grid, f, 5)
        smart = compute_top_k(grid, f, 5)
        assert [e.rid for e in naive.entries] == [
            e.rid for e in smart.entries
        ]

    def test_empty_grid(self):
        grid = Grid(2, 4)
        outcome = compute_top_k_naive(grid, LinearFunction([1.0, 1.0]), 2)
        assert outcome.entries == []

    def test_mixed_directions(self):
        grid, records = populated([(0.9, 0.1), (0.1, 0.9)], cells=5)
        f = LinearFunction([1.0, -1.0])
        outcome = compute_top_k_naive(grid, f, 1)
        assert [e.rid for e in outcome.entries] == [0]


class TestCostProfile:
    def test_naive_prices_every_cell(self):
        """The strawman's defining cost: maxscore for all cells."""
        grid, _ = populated([(0.9, 0.9)], cells=8)
        counters = OpCounters()
        compute_top_k_naive(grid, LinearFunction([1.0, 1.0]), 1, counters)
        assert counters.cells_enheaped == 64  # every cell priced

    def test_heap_traversal_prices_fewer(self):
        rng = random.Random(1)
        rows = random_rows(rng, 200, 2)
        grid, _ = populated(rows, cells=10)
        f = LinearFunction([1.0, 1.0])
        naive_counters = OpCounters()
        smart_counters = OpCounters()
        compute_top_k_naive(grid, f, 3, naive_counters)
        compute_top_k(grid, f, 3, smart_counters)
        assert smart_counters.cells_enheaped < naive_counters.cells_enheaped

    def test_naive_processes_the_influence_region(self):
        grid, _ = populated([(0.5, 0.5)], cells=4)
        f = LinearFunction([1.0, 1.0])
        outcome = compute_top_k_naive(grid, f, 1)
        assert set(outcome.processed) == set(
            compute_top_k(grid, f, 1).processed
        )
