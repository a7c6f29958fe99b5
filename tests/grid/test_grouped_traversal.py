"""Grouped traversal ≡ per-query traversal, at the traversal level.

``compute_top_k_group`` promises bitwise-identical entries — same
``(score, rid)`` order — and the same *set* of processed cells per
query as running ``compute_top_k`` once per group member. These tests
pin that contract directly against the solo traversal across weight
families, group sizes, ties, underfull grids and mixed-k groups. The
group sweep takes its certain cells a wave at a time when the caller
holds an upper bound on the kth scores (``at_most``): Hypothesis
properties pin that any valid bound — and any invalid one — changes
nothing a caller can see, and that the influence region a group
install leaves each member is its threshold set. The whole file is re-run under
the pure-Python batch backend by :func:`test_python_backend_subprocess`.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.grid.traversal as traversal
from repro.algorithms.sma import SkybandMonitoringAlgorithm
from repro.algorithms.topk_computation import (
    RegionState,
    compute_and_install_group,
)
from repro.core import batch
from repro.core.queries import TopKQuery
from repro.core.scoring import LinearFunction, ProductFunction
from repro.core.stats import OpCounters
from repro.core.tuples import RecordFactory
from repro.grid.grid import Grid
from repro.grid.traversal import compute_top_k, compute_top_k_group

from tests.conftest import rerun_under_python_backend
from tests.grid.test_sweep_order import LATTICE, Churn


def fill_grid(grid, rows):
    factory = RecordFactory()
    records = [factory.make(row) for row in rows]
    grid.insert_many(grid.store.add_records(records))
    return records


def random_rows(rng, count, dims):
    return [tuple(rng.random() for _ in range(dims)) for _ in range(count)]


def assert_group_matches_solo(grid, functions, ks):
    outcomes = compute_top_k_group(grid, functions, ks)
    assert len(outcomes) == len(functions)
    for function, k, grouped in zip(functions, ks, outcomes):
        solo = compute_top_k(grid, function, k)
        assert [
            (entry.score, entry.record.rid) for entry in grouped.entries
        ] == [(entry.score, entry.record.rid) for entry in solo.entries]
        # Same *set* of cells must form the query's influence region;
        # visiting order follows the group key and may differ.
        assert set(grouped.processed) == set(solo.processed)
    return outcomes


class TestGroupedEqualsSolo:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13, 21, 32])
    def test_group_sizes_on_similar_queries(self, size):
        rng = random.Random(size)
        grid = Grid(2, 6)
        fill_grid(grid, random_rows(rng, 150, 2))
        base = (0.7, 0.4)
        functions = [
            LinearFunction(
                [
                    max(0.05, value + rng.uniform(-0.08, 0.08))
                    for value in base
                ]
            )
            for _ in range(size)
        ]
        ks = [rng.choice([1, 3, 5, 9]) for _ in range(size)]
        assert_group_matches_solo(grid, functions, ks)

    @pytest.mark.parametrize("seed", range(4))
    def test_dissimilar_weights_still_exact(self, seed):
        """Grouping is a heuristic: any shared-direction group must be
        exact, even when the members' staircases barely overlap."""
        rng = random.Random(seed + 50)
        grid = Grid(3, 4)
        fill_grid(grid, random_rows(rng, 120, 3))
        functions = [
            LinearFunction([rng.uniform(0.05, 1.0) for _ in range(3)])
            for _ in range(6)
        ]
        assert_group_matches_solo(grid, functions, [4] * 6)

    def test_negative_weights_shared_directions(self):
        rng = random.Random(7)
        grid = Grid(2, 5)
        fill_grid(grid, random_rows(rng, 100, 2))
        functions = [
            LinearFunction([0.8, -0.5]),
            LinearFunction([0.7, -0.6]),
            LinearFunction([0.9, -0.1]),
        ]
        assert_group_matches_solo(grid, functions, [3, 5, 2])

    def test_tie_saturated_lattice(self):
        """Lattice attributes collide scores constantly; any deviation
        from the solo kernel's bit pattern would reorder rid ties."""
        rng = random.Random(11)
        grid = Grid(2, 4)
        rows = [
            (rng.randrange(5) / 4.0, rng.randrange(5) / 4.0)
            for _ in range(90)
        ]
        fill_grid(grid, rows)
        functions = [
            LinearFunction([0.5, 0.5]),
            LinearFunction([0.5, 0.25]),
            LinearFunction([0.25, 0.5]),
        ]
        assert_group_matches_solo(grid, functions, [6, 6, 6])

    def test_underfull_grid_processes_everything(self):
        grid = Grid(2, 4)
        fill_grid(grid, [(0.2, 0.3), (0.8, 0.9)])
        functions = [LinearFunction([1.0, 0.5]), LinearFunction([0.9, 0.6])]
        outcomes = assert_group_matches_solo(grid, functions, [5, 7])
        for outcome in outcomes:
            assert len(outcome.entries) == 2  # fewer than k valid records

    def test_empty_grid(self):
        grid = Grid(2, 3)
        functions = [LinearFunction([1.0, 1.0]), LinearFunction([0.9, 1.0])]
        outcomes = compute_top_k_group(grid, functions, [2, 2])
        assert all(outcome.entries == [] for outcome in outcomes)

    def test_counters_account_for_group(self):
        rng = random.Random(3)
        grid = Grid(2, 5)
        fill_grid(grid, random_rows(rng, 80, 2))
        functions = [LinearFunction([0.6, 0.4]), LinearFunction([0.55, 0.45])]
        counters = OpCounters()
        compute_top_k_group(grid, functions, [3, 3], counters=counters)
        assert counters.grouped_traversals == 1
        assert counters.grouped_queries_served == 2
        assert counters.topk_computations == 2
        assert counters.cells_processed > 0

    def test_singleton_group_takes_solo_path(self):
        rng = random.Random(4)
        grid = Grid(2, 5)
        fill_grid(grid, random_rows(rng, 60, 2))
        counters = OpCounters()
        [outcome] = compute_top_k_group(
            grid, [LinearFunction([0.6, 0.4])], [3], counters=counters
        )
        solo = compute_top_k(grid, LinearFunction([0.6, 0.4]), 3)
        assert [(e.score, e.record.rid) for e in outcome.entries] == [
            (e.score, e.record.rid) for e in solo.entries
        ]
        assert counters.grouped_traversals == 0  # solo path, no overhead


class TestGroupValidation:
    def test_rejects_mixed_directions(self):
        grid = Grid(2, 4)
        with pytest.raises(ValueError, match="directions"):
            compute_top_k_group(
                grid,
                [LinearFunction([0.5, 0.5]), LinearFunction([0.5, -0.5])],
                [2, 2],
            )

    def test_rejects_non_linear_members(self):
        grid = Grid(2, 4)
        with pytest.raises(ValueError, match="LinearFunction"):
            compute_top_k_group(
                grid,
                [LinearFunction([0.5, 0.5]), ProductFunction([0.1, 0.1])],
                [2, 2],
            )

    def test_rejects_mismatched_lengths(self):
        grid = Grid(2, 4)
        with pytest.raises(ValueError, match="functions but"):
            compute_top_k_group(grid, [LinearFunction([0.5, 0.5])], [2, 3])

    def test_empty_group_is_empty(self):
        assert compute_top_k_group(Grid(2, 4), [], []) == []


class TestDuplicateMemberMerge:
    """Near-identical members collapse to one shared, aliased result."""

    def test_duplicates_alias_one_outcome(self):
        rng = random.Random(91)
        grid = Grid(2, 6)
        fill_grid(grid, random_rows(rng, 150, 2))
        shared = LinearFunction([0.6, 0.4])
        functions = [
            shared,
            LinearFunction([0.3, 0.8]),
            LinearFunction([0.6, 0.4]),  # equal weights, equal k
            shared,
        ]
        ks = [4, 3, 4, 4]
        outcomes = compute_top_k_group(grid, functions, ks)
        assert len(outcomes) == 4
        # Members 0, 2, 3 share one (weights, k) spec: one sweep
        # result, aliased per member.
        assert outcomes[0] is outcomes[2]
        assert outcomes[0] is outcomes[3]
        assert outcomes[1] is not outcomes[0]

    def test_deduplicated_group_matches_solo(self):
        rng = random.Random(92)
        grid = Grid(2, 5)
        fill_grid(grid, random_rows(rng, 120, 2))
        functions = [
            LinearFunction([0.7, 0.4]),
            LinearFunction([0.7, 0.4]),
            LinearFunction([0.65, 0.45]),
            LinearFunction([0.7, 0.4]),
        ]
        assert_group_matches_solo(grid, functions, [5, 5, 3, 5])

    def test_same_weights_different_k_not_merged(self):
        rng = random.Random(93)
        grid = Grid(2, 5)
        fill_grid(grid, random_rows(rng, 100, 2))
        functions = [LinearFunction([0.5, 0.5]), LinearFunction([0.5, 0.5])]
        outcomes = assert_group_matches_solo(grid, functions, [2, 6])
        assert outcomes[0] is not outcomes[1]
        assert len(outcomes[0].entries) == 2
        assert len(outcomes[1].entries) == 6

    def test_all_duplicates_collapse_to_solo_path(self):
        rng = random.Random(94)
        grid = Grid(2, 5)
        fill_grid(grid, random_rows(rng, 110, 2))
        functions = [LinearFunction([0.4, 0.7])] * 3
        counters = OpCounters()
        outcomes = compute_top_k_group(grid, functions, [4] * 3, counters)
        solo = compute_top_k(grid, functions[0], 4)
        assert outcomes[0] is outcomes[1] is outcomes[2]
        assert [
            (entry.score, entry.record.rid) for entry in outcomes[0].entries
        ] == [(entry.score, entry.record.rid) for entry in solo.entries]
        # Every member still counts as one served top-k computation.
        assert counters.topk_computations == 3

    def test_counter_parity_with_duplicates(self):
        rng = random.Random(95)
        grid = Grid(2, 6)
        fill_grid(grid, random_rows(rng, 130, 2))
        functions = [
            LinearFunction([0.8, 0.3]),
            LinearFunction([0.8, 0.3]),
            LinearFunction([0.75, 0.35]),
        ]
        counters = OpCounters()
        compute_top_k_group(grid, functions, [3, 3, 3], counters)
        assert counters.topk_computations == 3
        assert counters.grouped_queries_served == 3
        assert counters.grouped_traversals == 1


# ----------------------------------------------------------------------
# Waves: a bound on the kth scores changes nothing a caller can see
# ----------------------------------------------------------------------

#: tier-1 is deterministic: the same examples on every run.
PROPERTY = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

GROUP_COUNTERS = (
    "cells_processed",
    "cells_enheaped",
    "points_scored",
    "topk_computations",
    "grouped_traversals",
    "grouped_queries_served",
    "influence_list_updates",
)


def draw_group(rng, dims):
    """2–40 linear members sharing directions, weights from a small
    lattice — so duplicate weight vectors and mixed k are the rule."""
    signs = [rng.choice([1, 1, -1]) for _ in range(dims)]
    functions = [
        LinearFunction(
            [
                sign * rng.choice([0.25, 0.5, 1.0] + [0.0] * (sign > 0))
                for sign in signs
            ]
        )
        for _ in range(rng.randint(2, 40))
    ]
    return functions, [rng.randint(1, 6) for _ in functions]


def snapshot(outcomes):
    return [
        (
            [(entry.score.hex(), entry.rid) for entry in outcome.entries],
            set(outcome.processed),
        )
        for outcome in outcomes
    ]


def counts(counters):
    return [getattr(counters, field) for field in GROUP_COUNTERS]


def kth_scores(outcomes, ks):
    return [
        outcome.entries[-1].score
        for outcome, k in zip(outcomes, ks)
        if len(outcome.entries) >= k
    ]


@PROPERTY
@given(
    rng=st.randoms(use_true_random=False),
    dims=st.integers(1, 3),
    cells=st.integers(1, 6),
)
def test_any_valid_bound_matches_the_cold_call(rng, dims, cells):
    churn = Churn(rng, dims, cells)
    functions, ks = draw_group(rng, dims)
    for _ in range(3):
        churn.step()
        cold_counters = OpCounters()
        cold = compute_top_k_group(churn.grid, functions, ks, cold_counters)
        for function, k, outcome in zip(functions, ks, cold):
            solo = compute_top_k(churn.grid, function, k)
            assert snapshot([outcome]) == snapshot([solo])
        found = kth_scores(cold, ks)
        # Anything from the smallest true kth score up is a valid bound
        # (with an underfull member every cell is certain anyway).
        lowest = min(found) if found else rng.choice(LATTICE)
        for slack in (0.0, rng.choice(LATTICE), 10.0):
            counters = OpCounters()
            warm = compute_top_k_group(
                churn.grid, functions, ks, counters, at_most=lowest + slack
            )
            assert snapshot(warm) == snapshot(cold)
            assert counts(counters) == counts(cold_counters)


@PROPERTY
@given(
    rng=st.randoms(use_true_random=False),
    dims=st.integers(1, 3),
    cells=st.integers(1, 6),
)
def test_a_bound_that_is_too_low_still_gives_exact_entries(rng, dims, cells):
    churn = Churn(rng, dims, cells)
    functions, ks = draw_group(rng, dims)
    churn.step()
    churn.step()
    cold = snapshot(compute_top_k_group(churn.grid, functions, ks))
    found = kth_scores(compute_top_k_group(churn.grid, functions, ks), ks)
    low = (min(found) if found else 0.0) - rng.choice(LATTICE[1:])
    warm = snapshot(compute_top_k_group(churn.grid, functions, ks, at_most=low))
    for (entries, processed), (cold_entries, cold_processed) in zip(
        warm, cold
    ):
        assert entries == cold_entries
        assert processed == cold_processed  # extra cells are the sweep's


@PROPERTY
@given(
    rng=st.randoms(use_true_random=False),
    dims=st.integers(1, 3),
    cells=st.integers(1, 6),
)
def test_group_install_leaves_each_member_its_threshold_set(rng, dims, cells):
    """A member's influence region is its solo processed set, whatever
    wave shape and bound the installs before it had."""
    churn = Churn(rng, dims, cells)
    functions, ks = draw_group(rng, dims)
    states = [
        RegionState(TopKQuery(function, k))
        for function, k in zip(functions, ks)
    ]
    bound = None
    for _ in range(4):
        churn.step()
        outcomes = compute_and_install_group(
            churn.grid, states, OpCounters(), at_most=bound
        )
        for state, outcome in zip(states, outcomes):
            query = state.query
            solo = compute_top_k(churn.grid, query.function, query.k)
            assert state.cells == set(solo.processed) == set(outcome.processed)
        # The next round's bound: sometimes valid, sometimes not, sometimes none.
        found = kth_scores(outcomes, ks)
        bound = rng.choice([None, rng.choice(LATTICE) * 3] + found[:1])


def test_refill_burst_is_scored_in_at_most_two_kernel_calls(monkeypatch):
    """Structure, not speed: when 32 similar queries underflow on one
    expiry, the group sweep scores its certain cells as one block (plus
    at most one straggler), not one block per cell."""
    if not batch.HAVE_NUMPY:
        pytest.skip("the pure-Python backend scores lazily per member")
    rng = random.Random(25)
    factory = RecordFactory()
    algorithm = SkybandMonitoringAlgorithm(2, 20, grouped=True)
    window = [factory.make(row) for row in random_rows(rng, 1500, 2)]
    algorithm.process_cycle(window, [])
    queries = []
    for qid in range(32):
        query = TopKQuery(
            LinearFunction(
                [0.6 + rng.uniform(-0.01, 0.01), 0.8 + rng.uniform(-0.01, 0.01)]
            ),
            10,
        )
        query.qid = qid
        queries.append(query)
    results = algorithm.register_many(queries)
    # Expire one current result member of every query; nothing arrives
    # that could take its place, so every skyband underflows.
    doomed = {results[query.qid][-1].rid for query in queries}
    expired = [record for record in window if record.rid in doomed]

    calls = []
    kernel = traversal.linear_scores
    monkeypatch.setattr(
        traversal,
        "linear_scores",
        lambda matrix, weights: calls.append(len(matrix))
        or kernel(matrix, weights),
    )
    before = algorithm.counters.snapshot()
    algorithm.process_cycle([factory.make((0.0, 0.0))], expired)
    after = algorithm.counters
    assert after.recomputations - before.recomputations >= 30
    assert after.grouped_traversals - before.grouped_traversals == 1
    swept_cells = after.cells_processed - before.cells_processed
    assert swept_cells >= 5  # cell by cell this would be as many calls
    assert 1 <= len(calls) <= 2


def test_python_backend_subprocess():
    rerun_under_python_backend(__file__)
