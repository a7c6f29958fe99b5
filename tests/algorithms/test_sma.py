"""Tests for SMA: skyband maintenance, frozen gate, recompute-on-underflow."""

import random

import pytest

from repro.algorithms.sma import SkybandMonitoringAlgorithm
from repro.core.errors import QueryError
from repro.core.queries import TopKQuery
from repro.core.scoring import LinearFunction
from repro.core.tuples import RecordFactory

from tests.conftest import brute_top_k


@pytest.fixture
def factory():
    return RecordFactory()


def make_sma(dims=2, cells=7):
    return SkybandMonitoringAlgorithm(dims=dims, cells_per_axis=cells)


class TestFigure8ScenarioUnderSMA:
    """The paper's Figure 8(b) point: where TMA recomputes, SMA kept
    p4 in the skyband and answers the expiry of p3 for free."""

    def setup_method(self):
        self.algo = make_sma()
        self.f = LinearFunction([1.0, 2.0])
        factory = RecordFactory()
        self.p1 = factory.make((0.62, 0.93))  # score 2.48 = the gate
        self.p2 = factory.make((0.11, 0.95))
        self.p3 = factory.make((0.70, 0.92))  # 2.54: new top-1
        self.p4 = factory.make((0.55, 0.97))  # 2.49: above the gate
        self.p5 = factory.make((0.30, 0.40))
        self.algo.process_cycle([self.p1, self.p2], [])
        self.query = TopKQuery(self.f, k=1)
        self.query.qid = 0
        self.algo.register(self.query)

    def test_no_recompute_when_skyband_holds_replacement(self):
        self.algo.process_cycle([self.p3, self.p4], [self.p1, self.p2])
        before = self.algo.counters.recomputations
        # p4 was admitted (its score beats the frozen gate score(p1));
        # when p3 expires the skyband still holds it.
        changes = self.algo.process_cycle([self.p5], [self.p3])
        assert self.algo.counters.recomputations == before
        assert [e.rid for e in self.algo.current_result(0)] == [self.p4.rid]
        assert [e.rid for e in changes[0].top] == [self.p4.rid]


class TestGateSemantics:
    def test_gate_is_frozen_between_recomputations(self, factory):
        """Arrivals between the frozen gate and the current kth score
        are still admitted to the skyband (Figure 11, line 7 note)."""
        algo = make_sma()
        base = factory.make((0.5, 0.5))  # gate anchor: score 1.0
        algo.process_cycle([base], [])
        query = TopKQuery(LinearFunction([1.0, 1.0]), k=1)
        query.qid = 0
        algo.register(query)
        state = algo._states[0]
        assert state.gate == (pytest.approx(1.0), base.rid)

        better = factory.make((0.9, 0.9))  # raises current kth to 1.8
        algo.process_cycle([better], [])
        assert state.gate == (pytest.approx(1.0), base.rid)  # unchanged

        middle = factory.make((0.7, 0.7))  # 1.4: below kth, above gate
        algo.process_cycle([middle], [])
        assert middle.rid in state.skyband

    def test_gate_resets_on_recompute(self, factory):
        algo = make_sma()
        a = factory.make((0.9, 0.9))
        b = factory.make((0.5, 0.5))
        algo.process_cycle([a, b], [])
        query = TopKQuery(LinearFunction([1.0, 1.0]), k=1)
        query.qid = 0
        algo.register(query)
        # Expire a: skyband had only {a} (b below gate) -> underflow ->
        # recompute finds b and refreezes the gate at b's score.
        algo.process_cycle([], [a])
        state = algo._states[0]
        assert [e.rid for e in algo.current_result(0)] == [b.rid]
        assert state.gate == (pytest.approx(1.0), b.rid)
        assert algo.counters.recomputations == 1


class TestMaintenance:
    def test_skyband_accumulates_beyond_k(self, factory):
        algo = make_sma()
        query = TopKQuery(LinearFunction([1.0, 1.0]), k=2)
        query.qid = 0
        seed = [factory.make((0.5, 0.5)), factory.make((0.55, 0.5))]
        algo.process_cycle(seed, [])
        algo.register(query)
        # Arrivals above the frozen gate but below the incumbents enter
        # with DC=0 and dominate almost nothing: the skyband grows.
        arrivals = [
            factory.make((0.52, 0.52)),
            factory.make((0.515, 0.515)),
        ]
        algo.process_cycle(arrivals, [])
        assert algo.result_state_sizes()[0] >= 3

    def test_eviction_never_loses_top_k(self, factory):
        algo = make_sma()
        query = TopKQuery(LinearFunction([1.0, 1.0]), k=2)
        query.qid = 0
        algo.register(query)
        live = []
        for i in range(12):
            record = factory.make((0.1 + 0.07 * i, 0.2))
            live.append(record)
            algo.process_cycle([record], [])
            expected = brute_top_k(live, query)
            got = algo.current_result(0)
            assert [e.rid for e in got] == [e.rid for e in expected]

    def test_expiry_of_skyband_member_is_cheap(self, factory):
        algo = make_sma()
        records = [factory.make((0.3 + 0.1 * i, 0.3)) for i in range(4)]
        algo.process_cycle(records, [])
        query = TopKQuery(LinearFunction([1.0, 1.0]), k=2)
        query.qid = 0
        algo.register(query)
        # Admit two more so the skyband exceeds k.
        extra = [factory.make((0.8, 0.8)), factory.make((0.85, 0.85))]
        algo.process_cycle(extra, [])
        before = algo.counters.recomputations
        algo.process_cycle([], [records[0]])  # oldest; not in top-2
        assert algo.counters.recomputations == before

    def test_unregister(self, factory):
        algo = make_sma()
        query = TopKQuery(LinearFunction([1.0, 1.0]), 1)
        query.qid = 0
        algo.register(query)
        algo.unregister(0)
        with pytest.raises(QueryError):
            algo.current_result(0)
        assert algo.influence_list_entries() == 0


class TestRandomizedAgainstOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_sliding_stream_matches_brute(self, seed):
        rng = random.Random(100 + seed)
        factory = RecordFactory()
        algo = make_sma(cells=5)
        queries = []
        for qid in range(3):
            query = TopKQuery(
                LinearFunction(
                    [rng.uniform(0.1, 1), rng.uniform(0.1, 1)]
                ),
                k=rng.choice([1, 3, 5]),
            )
            query.qid = qid
            algo.register(query)
            queries.append(query)
        window = []
        for _ in range(30):
            arrivals = [
                factory.make((rng.random(), rng.random())) for _ in range(6)
            ]
            window.extend(arrivals)
            expired = []
            while len(window) > 45:
                expired.append(window.pop(0))
            algo.process_cycle(arrivals, expired)
            for query in queries:
                got = [e.rid for e in algo.current_result(query.qid)]
                expected = [e.rid for e in brute_top_k(window, query)]
                assert got == expected, f"query {query.qid}"
