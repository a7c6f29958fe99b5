"""Tests for shared from-scratch computation + the query-owned region."""

import random

from repro.algorithms.sma import SkybandMonitoringAlgorithm
from repro.algorithms.tma import TopKMonitoringAlgorithm
from repro.algorithms.topk_computation import (
    RegionState,
    RegionTable,
    compute_and_install,
    compute_and_install_group,
    query_region,
)
from repro.core.queries import ConstrainedTopKQuery, TopKQuery
from repro.core.regions import Rectangle
from repro.core.scoring import LinearFunction
from repro.core.stats import OpCounters
from repro.grid.grid import Grid
from repro.grid.traversal import TraversalOutcome

from tests.conftest import make_records

ALL_CELLS = frozenset((x, y) for x in range(6) for y in range(6))


def build_grid(rows, cells=6):
    grid = Grid(2, cells)
    records = make_records(rows)
    for record in records:
        grid.insert(record)
    return grid, records


def widen(state):
    """Give ``state`` the whole 6 x 6 grid as its region."""
    state.install(TraversalOutcome(processed=list(ALL_CELLS)), OpCounters())


def threshold_set(grid, function, threshold):
    return {
        coords
        for coords in ALL_CELLS
        if grid.maxscore(coords, function) >= threshold
    }


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
    def test_processed_cells_are_the_region(self):
        grid, _ = build_grid([(0.9, 0.9), (0.1, 0.1)])
        state = RegionState(TopKQuery(LinearFunction([1.0, 1.0]), 1))
        counters = OpCounters()
        outcome = compute_and_install(grid, state, counters)
        assert state.cells == frozenset(outcome.processed)
        assert counters.influence_list_updates == len(state.cells)
        assert state.order is outcome.order

    def test_influence_set_is_threshold_staircase(self):
        rng = random.Random(2)
        rows = [(rng.random(), rng.random()) for _ in range(60)]
        grid, _ = build_grid(rows)
        f = LinearFunction([1.0, 2.0])
        state = RegionState(TopKQuery(f, 3))
        outcome = compute_and_install(grid, state, OpCounters())
        assert state.cells == threshold_set(grid, f, outcome.entries[-1].score)

    def test_empty_grid_region_covers_every_cell_unmaterialised(self):
        # Arrivals into cells that were empty at registration time must
        # still meet the query; the region says so without any cell.
        grid = Grid(2, 3)
        state = RegionState(TopKQuery(LinearFunction([1.0, 1.0]), 1))
        compute_and_install(grid, state, OpCounters())
        assert len(state.cells) == 9
        assert grid.allocated_cells == 0


class TestReplace:
    def test_solo_install_replaces_a_wider_region(self):
        grid, _ = build_grid([(0.9, 0.9)])
        f = LinearFunction([1.0, 1.0])
        state = RegionState(TopKQuery(f, 1))
        widen(state)  # a stale, larger region
        counters = OpCounters()
        outcome = compute_and_install(grid, state, counters)
        assert state.cells == threshold_set(grid, f, outcome.entries[0].score)
        # The paper's flood would remove exactly the stale entries.
        assert counters.influence_list_updates == 36 - len(state.cells)

    def test_group_install_replaces_a_wider_region(self):
        grid, _ = build_grid([(0.9, 0.9)])
        states = [
            RegionState(TopKQuery(LinearFunction(weights), 1))
            for weights in ([1.0, 1.0], [1.0, 0.9])
        ]
        for state in states:
            widen(state)
        outcomes = compute_and_install_group(grid, states, OpCounters())
        for state, outcome in zip(states, outcomes):
            assert outcome.order is None
            assert state.order is None
            assert state.cells == threshold_set(
                grid, state.query.function, outcome.entries[0].score
            )

    def test_reinstalling_the_same_region_costs_nothing(self):
        grid, _ = build_grid([(0.5, 0.5), (0.9, 0.2)])
        state = RegionState(TopKQuery(LinearFunction([1.0, 1.0]), 2))
        compute_and_install(grid, state, OpCounters())
        counters = OpCounters()
        compute_and_install(grid, state, counters)
        assert counters.influence_list_updates == 0


class TestTrimRegion:
    def test_trim_keeps_cells_reaching_the_threshold(self):
        grid = Grid(2, 6)
        f = LinearFunction([1.0, 2.0])
        state = RegionState(TopKQuery(f, 1))
        compute_and_install(grid, state, OpCounters())
        counters = OpCounters()
        state.trim_region(grid, 2.0, counters)
        assert state.cells == threshold_set(grid, f, 2.0)
        assert counters.influence_trim_visits == 36
        assert counters.influence_list_updates == 36 - len(state.cells)

    def test_constrained_trim_uses_clipped_maxscores(self):
        grid = Grid(2, 6)
        f = LinearFunction([1.0, 1.0])
        region = Rectangle((0.0, 0.0), (0.5, 0.5))
        state = RegionState(ConstrainedTopKQuery(f, 1, constraint=region))
        compute_and_install(grid, state, OpCounters())
        state.trim_region(grid, 0.9, OpCounters())
        assert state.cells == {
            coords
            for coords in ALL_CELLS
            if (grid.maxscore_in_region(coords, f, region) or -1.0) >= 0.9
        }


class TestRegionTable:
    def test_equal_regions_share_one_object(self):
        grid, _ = build_grid([(0.9, 0.9), (0.2, 0.7)])
        table = RegionTable()
        states = [
            RegionState(TopKQuery(LinearFunction([1.0, 1.0]), 1), table)
            for _ in range(3)
        ]
        for state in states:
            compute_and_install(grid, state, OpCounters())
        assert states[0].cells is states[1].cells is states[2].cells
        assert len(table) == 1
        for state in states:
            state.release()
        assert len(table) == 0

    def test_a_replaced_region_is_forgotten(self):
        table = RegionTable()
        state = RegionState(TopKQuery(LinearFunction([1.0, 1.0]), 1), table)
        widen(state)
        compute_and_install(Grid(2, 6), state, OpCounters())
        assert len(table) == 1  # the wide region is gone


class TestUnregister:
    def test_unregister_counts_the_region(self):
        for cls in (TopKMonitoringAlgorithm, SkybandMonitoringAlgorithm):
            algo = cls(2, 6)
            algo.process_cycle(make_records([(0.5, 0.5), (0.9, 0.2)]), [])
            query = TopKQuery(LinearFunction([1.0, 1.0]), 2)
            query.qid = 4
            algo.register(query)
            cells = len(algo.influence_region(4))
            assert cells and algo.influence_list_entries() == cells
            before = algo.counters.influence_list_updates
            algo.unregister(4)
            assert algo.counters.influence_list_updates == before + cells
            assert algo.influence_list_entries() == 0

    def test_constrained_region_lies_inside_the_constraint(self):
        algo = TopKMonitoringAlgorithm(2, 6)
        algo.process_cycle(make_records([(0.4, 0.4)]), [])
        region = Rectangle((0.0, 0.0), (0.5, 0.5))
        query = ConstrainedTopKQuery(
            LinearFunction([1.0, 1.0]), 1, constraint=region
        )
        query.qid = 5
        algo.register(query)
        cells = algo.influence_region(5)
        assert cells
        for coords in cells:
            lower, upper = algo.grid.bounds_of(coords)
            assert region.clip(lower, upper) is not None
        algo.unregister(5)
        assert algo.influence_list_entries() == 0
