"""Tests for shared from-scratch computation + influence-list plumbing."""

import random

from repro.algorithms.topk_computation import (
    cleanup_influence,
    compute_and_install,
    compute_and_install_group,
    drop_stale_influence,
    query_region,
    remove_query_everywhere,
)
from repro.core.queries import ConstrainedTopKQuery, TopKQuery
from repro.core.regions import Rectangle
from repro.core.scoring import LinearFunction
from repro.grid.grid import Grid

from tests.conftest import make_records


def build_grid(rows, cells=6):
    grid = Grid(2, cells)
    records = make_records(rows)
    for record in records:
        grid.insert(record)
    return grid, records


class TestQueryRegion:
    def test_plain_query_has_no_region(self):
        assert query_region(TopKQuery(LinearFunction([1.0, 1.0]), 1)) is None

    def test_constrained_query_region(self):
        region = Rectangle((0.1, 0.1), (0.9, 0.9))
        query = ConstrainedTopKQuery(
            LinearFunction([1.0, 1.0]), 1, constraint=region
        )
        assert query_region(query) is region


class TestInstall:
    def test_processed_cells_receive_query(self):
        grid, _ = build_grid([(0.9, 0.9), (0.1, 0.1)])
        query = TopKQuery(LinearFunction([1.0, 1.0]), 1)
        query.qid = 7
        outcome = compute_and_install(grid, query)
        for coords in outcome.processed:
            assert 7 in grid.get_cell(coords).influence

    def test_influence_set_is_threshold_staircase(self):
        rng = random.Random(2)
        rows = [(rng.random(), rng.random()) for _ in range(60)]
        grid, _ = build_grid(rows)
        f = LinearFunction([1.0, 2.0])
        query = TopKQuery(f, 3)
        query.qid = 0
        outcome = compute_and_install(grid, query)
        threshold = outcome.entries[-1].score
        for x in range(6):
            for y in range(6):
                cell = grid.peek_cell((x, y))
                has_query = cell is not None and 0 in cell.influence
                if grid.maxscore((x, y), f) > threshold:
                    assert has_query, (x, y)

    def test_empty_cells_are_materialised_for_influence(self):
        # A query must be discoverable by arrivals into cells that were
        # empty at registration time.
        grid = Grid(2, 3)
        query = TopKQuery(LinearFunction([1.0, 1.0]), 1)
        query.qid = 1
        compute_and_install(grid, query)
        # No data at all: every cell processed and referenced.
        assert grid.allocated_cells == 9
        assert all(1 in cell.influence for cell in grid.cells())


class TestCleanup:
    @staticmethod
    def _assert_threshold_set(grid, qid, f, threshold):
        for x in range(6):
            for y in range(6):
                has_query = qid in grid.get_cell((x, y)).influence
                if grid.maxscore((x, y), f) < threshold:
                    assert not has_query, (x, y)
                if grid.maxscore((x, y), f) >= threshold:
                    assert has_query, (x, y)

    def test_walk_removes_stale_entries(self):
        grid, _ = build_grid([(0.9, 0.9)])
        f = LinearFunction([1.0, 1.0])
        query = TopKQuery(f, 1)
        query.qid = 3
        outcome = compute_and_install(grid, query)
        # Manually mark a larger (stale) region: every cell.
        for x in range(6):
            for y in range(6):
                grid.get_cell((x, y)).influence.add(3)
        removed = drop_stale_influence(
            grid, 3, outcome.order, len(outcome.processed)
        )
        assert removed == 36 - len(outcome.processed)
        self._assert_threshold_set(grid, 3, f, outcome.entries[0].score)

    def test_flood_removes_stale_entries(self):
        """A group sweep's members have no order: its heap leftovers
        seed the flood."""
        grid, _ = build_grid([(0.9, 0.9)])
        queries = [
            TopKQuery(LinearFunction(weights), 1)
            for weights in ([1.0, 1.0], [1.0, 0.9])
        ]
        for qid, query in enumerate(queries):
            query.qid = qid
            for x in range(6):
                for y in range(6):
                    grid.get_cell((x, y)).influence.add(qid)
        outcomes = compute_and_install_group(grid, queries)
        for query, outcome in zip(queries, outcomes):
            assert outcome.order is None
            self._assert_threshold_set(
                grid, query.qid, query.function, outcome.entries[0].score
            )

    def test_seeds_without_query_stop_immediately(self):
        grid = Grid(2, 4)
        removed = cleanup_influence(
            grid, 9, LinearFunction([1.0, 1.0]), [(0, 0), (3, 3)]
        )
        assert removed == 0


class TestRemoveEverywhere:
    def test_unregistered_query_fully_scrubbed(self):
        grid, _ = build_grid([(0.5, 0.5), (0.9, 0.2)])
        query = TopKQuery(LinearFunction([1.0, 1.0]), 2)
        query.qid = 4
        compute_and_install(grid, query)
        assert any(4 in cell.influence for cell in grid.cells())
        remove_query_everywhere(grid, query)
        assert all(4 not in cell.influence for cell in grid.cells())

    def test_constrained_query_scrubbed_from_region(self):
        grid, _ = build_grid([(0.4, 0.4)])
        region = Rectangle((0.0, 0.0), (0.5, 0.5))
        query = ConstrainedTopKQuery(
            LinearFunction([1.0, 1.0]), 1, constraint=region
        )
        query.qid = 5
        compute_and_install(grid, query)
        assert any(5 in cell.influence for cell in grid.cells())
        remove_query_everywhere(grid, query)
        assert all(5 not in cell.influence for cell in grid.cells())
