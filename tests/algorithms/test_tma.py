"""Tests for TMA, including the paper's Figure 8 walk-through."""

import random

import pytest

from repro.algorithms.tma import TopKMonitoringAlgorithm
from repro.core.errors import DimensionalityError, QueryError
from repro.core.queries import TopKQuery
from repro.core.scoring import LinearFunction
from repro.core.tuples import RecordFactory

from tests.conftest import brute_top_k


@pytest.fixture
def factory():
    return RecordFactory()


def make_tma(dims=2, cells=7):
    return TopKMonitoringAlgorithm(dims=dims, cells_per_axis=cells)


class TestPaperFigure8:
    """Figures 5(a) + 8: top-1, f = x1 + 2*x2, on a 7x7 grid.

    Timeline: p1, p2 valid; q registered with result p1. Then
    (a) P_ins = {p3, p4}, P_del = {p1, p2}: p3 beats the current
        top score, so when p1 expires the result is already p3 —
        *no recomputation* (the reason TMA handles arrivals first);
    (b) P_ins = {p5}, P_del = {p3}: p5 changes nothing, the expiry of
        p3 invalidates the result, and the recomputation returns p4.
    """

    def setup_method(self):
        self.algo = make_tma()
        self.f = LinearFunction([1.0, 2.0])
        factory = RecordFactory()
        self.p1 = factory.make((0.62, 0.93))  # initial top-1
        self.p2 = factory.make((0.11, 0.95))
        self.p3 = factory.make((0.70, 0.92))  # better than p1
        self.p4 = factory.make((0.55, 0.80))  # worse than p1
        self.p5 = factory.make((0.30, 0.40))  # irrelevant
        self.algo.process_cycle([self.p1, self.p2], [])
        self.query = TopKQuery(self.f, k=1)
        self.query.qid = 0
        self.algo.register(self.query)

    def test_initial_result_is_p1(self):
        assert [e.rid for e in self.algo.current_result(0)] == [self.p1.rid]

    def test_arrival_replaces_expiring_result_without_recomputation(self):
        before = self.algo.counters.recomputations
        changes = self.algo.process_cycle(
            [self.p3, self.p4], [self.p1, self.p2]
        )
        assert self.algo.counters.recomputations == before
        assert [e.rid for e in self.algo.current_result(0)] == [self.p3.rid]
        assert 0 in changes
        assert [e.rid for e in changes[0].added] == [self.p3.rid]
        assert [e.rid for e in changes[0].removed] == [self.p1.rid]

    def test_expiry_of_result_triggers_recomputation(self):
        self.algo.process_cycle([self.p3, self.p4], [self.p1, self.p2])
        before = self.algo.counters.recomputations
        changes = self.algo.process_cycle([self.p5], [self.p3])
        assert self.algo.counters.recomputations == before + 1
        assert [e.rid for e in self.algo.current_result(0)] == [self.p4.rid]
        assert [e.rid for e in changes[0].top] == [self.p4.rid]

    def test_stale_influence_cells_dropped_after_recomputation(self):
        """Figure 8(b): cells of the old (larger) region lose q."""
        self.algo.process_cycle([self.p3, self.p4], [self.p1, self.p2])
        self.algo.process_cycle([self.p5], [self.p3])
        threshold = self.f.score(self.p4.attrs)
        grid = self.algo.grid
        for x in range(7):
            for y in range(7):
                has_query = (x, y) in self.algo.influence_region(0)
                if grid.maxscore((x, y), self.f) > threshold:
                    assert has_query, (x, y)
                elif grid.maxscore((x, y), self.f) < threshold:
                    assert not has_query, (x, y)


class TestLifecycle:
    def test_register_dimension_mismatch(self):
        algo = make_tma(dims=3)
        query = TopKQuery(LinearFunction([1.0, 1.0]), 1)
        query.qid = 0
        with pytest.raises(DimensionalityError):
            algo.register(query)

    def test_unregister_unknown(self):
        with pytest.raises(QueryError):
            make_tma().unregister(9)

    def test_current_result_unknown(self):
        with pytest.raises(QueryError):
            make_tma().current_result(9)

    def test_unregister_scrubs_influence(self, factory):
        algo = make_tma()
        algo.process_cycle([factory.make((0.5, 0.5))], [])
        query = TopKQuery(LinearFunction([1.0, 1.0]), 1)
        query.qid = 0
        algo.register(query)
        algo.unregister(0)
        assert algo.influence_list_entries() == 0
        with pytest.raises(QueryError):
            algo.influence_region(0)

    def test_queries_listing(self, factory):
        algo = make_tma()
        query = TopKQuery(LinearFunction([1.0, 1.0]), 2)
        query.qid = 0
        algo.register(query)
        assert list(algo.queries()) == [query]
        assert algo.result_state_sizes() == {0: 0}  # empty grid


class TestMaintenance:
    def test_underfull_top_list_fills_from_arrivals(self, factory):
        algo = make_tma()
        query = TopKQuery(LinearFunction([1.0, 1.0]), 3)
        query.qid = 0
        algo.register(query)
        records = [factory.make((0.2 * i, 0.1)) for i in range(1, 3)]
        algo.process_cycle(records, [])
        assert len(algo.current_result(0)) == 2

    def test_worse_arrival_ignored(self, factory):
        algo = make_tma()
        query = TopKQuery(LinearFunction([1.0, 1.0]), 1)
        query.qid = 0
        good = factory.make((0.9, 0.9))
        algo.process_cycle([good], [])
        algo.register(query)
        worse = factory.make((0.1, 0.1))
        changes = algo.process_cycle([worse], [])
        assert changes == {}
        assert [e.rid for e in algo.current_result(0)] == [good.rid]

    def test_expiry_of_nonresult_is_silent(self, factory):
        algo = make_tma()
        good = factory.make((0.9, 0.9))
        poor = factory.make((0.85, 0.85))
        algo.process_cycle([good, poor], [])
        query = TopKQuery(LinearFunction([1.0, 1.0]), 1)
        query.qid = 0
        algo.register(query)
        before = algo.counters.recomputations
        changes = algo.process_cycle([], [poor])
        assert algo.counters.recomputations == before
        assert changes == {}

    def test_score_tie_prefers_newer(self, factory):
        algo = make_tma()
        older = factory.make((0.5, 0.5))
        algo.process_cycle([older], [])
        query = TopKQuery(LinearFunction([1.0, 1.0]), 1)
        query.qid = 0
        algo.register(query)
        newer = factory.make((0.5, 0.5))
        algo.process_cycle([newer], [])
        assert [e.rid for e in algo.current_result(0)] == [newer.rid]

    def test_multi_query_independent_results(self, factory):
        algo = make_tma()
        q_max = TopKQuery(LinearFunction([1.0, 1.0]), 1)
        q_max.qid = 0
        q_min = TopKQuery(LinearFunction([-1.0, -1.0]), 1)
        q_min.qid = 1
        algo.register(q_max)
        algo.register(q_min)
        high = factory.make((0.9, 0.9))
        low = factory.make((0.1, 0.1))
        algo.process_cycle([high, low], [])
        assert [e.rid for e in algo.current_result(0)] == [high.rid]
        assert [e.rid for e in algo.current_result(1)] == [low.rid]


class TestRandomizedAgainstOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_sliding_stream_matches_brute(self, seed):
        rng = random.Random(seed)
        factory = RecordFactory()
        algo = make_tma(cells=5)
        query = TopKQuery(
            LinearFunction([rng.uniform(0.1, 1), rng.uniform(0.1, 1)]),
            k=4,
        )
        query.qid = 0
        algo.register(query)
        window = []
        for _ in range(30):
            arrivals = [
                factory.make((rng.random(), rng.random())) for _ in range(5)
            ]
            window.extend(arrivals)
            expired = []
            while len(window) > 40:
                expired.append(window.pop(0))
            algo.process_cycle(arrivals, expired)
            got = [e.rid for e in algo.current_result(0)]
            expected = [e.rid for e in brute_top_k(window, query)]
            assert got == expected
