"""Deep property tests: invariants that must hold through any stream.

These go beyond result equality: they pin down the book-keeping
invariants the paper's correctness argument rests on, replayed under
randomized (hypothesis-driven) streams.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import make_algorithm
from repro.core.queries import TopKQuery
from repro.core.results import diff_results
from repro.core.scoring import LinearFunction
from repro.core.tuples import RecordFactory

from tests.conftest import brute_top_k

# One hypothesis-driven stream: a list of per-cycle arrival batches,
# each batch a list of integer-lattice points (ties on purpose).
streams = st.lists(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        min_size=1,
        max_size=6,
    ),
    min_size=1,
    max_size=12,
)


def lattice_records(factory, batch):
    return [factory.make((x / 8.0, y / 8.0)) for x, y in batch]


class TestChangeReportSoundness:
    """Reports must be exactly the diff of consecutive oracle results."""

    @pytest.mark.parametrize("algorithm", ["tma", "sma", "tsl"])
    @settings(max_examples=20, deadline=None)
    @given(stream=streams, k=st.integers(1, 4))
    def test_reports_equal_oracle_diffs(self, algorithm, stream, k):
        factory = RecordFactory()
        algo = make_algorithm(algorithm, 2, cells_per_axis=4)
        query = TopKQuery(LinearFunction([1.0, 1.0]), k)
        query.qid = 0
        algo.register(query)
        window = []
        previous = []
        for batch in stream:
            arrivals = lattice_records(factory, batch)
            window.extend(arrivals)
            expired = []
            while len(window) > 25:
                expired.append(window.pop(0))
            changes = algo.process_cycle(arrivals, expired)
            current = brute_top_k(window, query)
            expected = diff_results(0, previous, current)
            if expected.changed:
                assert 0 in changes, "change not reported"
                got = changes[0]
                assert [e.rid for e in got.added] == [
                    e.rid for e in expected.added
                ]
                assert [e.rid for e in got.removed] == [
                    e.rid for e in expected.removed
                ]
                assert got.top_ids() == [e.rid for e in current]
            else:
                assert 0 not in changes, "spurious change report"
            previous = current


class TestInfluenceCoverageInvariant:
    """Every cell that could host a result-changing update is in q's
    influence region.

    Formally: after any cycle, every cell whose (region-clipped)
    maxscore is >= the query's current kth score must lie in the
    query's region — otherwise a future arrival there could be
    missed. This is the safety half of the lazy-region argument.
    """

    @pytest.mark.parametrize("algorithm", ["tma", "sma"])
    @pytest.mark.parametrize("seed", range(3))
    def test_coverage_holds_through_stream(self, algorithm, seed):
        rng = random.Random(seed)
        factory = RecordFactory()
        algo = make_algorithm(algorithm, 2, cells_per_axis=5)
        query = TopKQuery(
            LinearFunction([rng.uniform(0.3, 1), rng.uniform(0.3, 1)]), 3
        )
        query.qid = 0
        algo.register(query)
        window = []
        for _ in range(25):
            arrivals = [
                factory.make((rng.random(), rng.random()))
                for _ in range(6)
            ]
            window.extend(arrivals)
            expired = []
            while len(window) > 30:
                expired.append(window.pop(0))
            algo.process_cycle(arrivals, expired)

            result = algo.current_result(0)
            if len(result) < query.k:
                continue
            threshold = result[-1].score
            grid = algo.grid
            for x in range(5):
                for y in range(5):
                    if grid.maxscore((x, y), query.function) > threshold:
                        assert (x, y) in algo.influence_region(0), (
                            f"uncovered cell {(x, y)}"
                        )


class TestMemberCellInvariant:
    """Result members always live in cells of their query's region —
    the property TMA's expiry detection depends on."""

    @pytest.mark.parametrize("seed", range(3))
    def test_tma_members_discoverable(self, seed):
        rng = random.Random(100 + seed)
        factory = RecordFactory()
        algo = make_algorithm("tma", 2, cells_per_axis=5)
        query = TopKQuery(LinearFunction([0.9, 0.8]), 4)
        query.qid = 0
        algo.register(query)
        window = []
        for _ in range(25):
            arrivals = [
                factory.make((rng.random(), rng.random()))
                for _ in range(5)
            ]
            window.extend(arrivals)
            expired = []
            while len(window) > 30:
                expired.append(window.pop(0))
            algo.process_cycle(arrivals, expired)
            for entry in algo.current_result(0):
                cell = algo.grid.locate(entry.record)
                assert cell.coords in algo.influence_region(0)
                assert algo.store.index[entry.record.rid] in cell.slots


class TestSkybandAgreesWithPrediction:
    """With arrivals frozen, SMA's live evolution must match the
    offline prediction from the score–time skyband (Section 3.1)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_drain_matches_prediction(self, seed):
        from repro.skyband.prediction import predict_future_results

        rng = random.Random(200 + seed)
        factory = RecordFactory()
        algo = make_algorithm("sma", 2, cells_per_axis=4)
        window = [
            factory.make((rng.random(), rng.random())) for _ in range(25)
        ]
        algo.process_cycle(list(window), [])
        query = TopKQuery(LinearFunction([0.7, 0.6]), 3)
        query.qid = 0
        algo.register(query)

        timeline = predict_future_results(window, query)
        predicted = {
            change.expiring_rid: [e.rid for e in change.top]
            for change in timeline
        }
        assert [e.rid for e in algo.current_result(0)] == predicted[-1]

        while window:
            expiring = window.pop(0)
            algo.process_cycle([], [expiring])
            live = [e.rid for e in algo.current_result(0)]
            if expiring.rid in predicted:
                assert live == predicted[expiring.rid]
            # Between predicted change points the result is stable and
            # always oracle-exact:
            assert live == [
                e.rid for e in brute_top_k(window, query)
            ]
