"""Focused unit tests for the threshold monitor (Section 7)."""

import pytest

from repro.core.errors import QueryError
from repro.core.queries import ThresholdQuery
from repro.core.scoring import LinearFunction
from repro.core.tuples import RecordFactory
from repro.core.window import CountBasedWindow, TimeBasedWindow
from repro.extensions.threshold import ThresholdMonitor


@pytest.fixture
def factory():
    return RecordFactory()


def make_monitor(capacity=10, cells=4):
    return ThresholdMonitor(
        2, CountBasedWindow(capacity), cells_per_axis=cells
    )


class TestLifecycle:
    def test_dimension_mismatch(self):
        monitor = make_monitor()
        with pytest.raises(QueryError):
            monitor.add_query(
                ThresholdQuery(LinearFunction([1.0]), threshold=0.5)
            )

    def test_unknown_query(self):
        monitor = make_monitor()
        with pytest.raises(QueryError):
            monitor.result(4)
        with pytest.raises(QueryError):
            monitor.remove_query(4)

    def test_queries_listing(self):
        monitor = make_monitor()
        query = ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=1.5)
        monitor.add_query(query)
        assert list(monitor.queries()) == [query]

    def test_multiple_thresholds_independent(self, factory):
        monitor = make_monitor()
        low = monitor.add_query(
            ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=0.5)
        )
        high = monitor.add_query(
            ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=1.5)
        )
        monitor.process([factory.make((0.5, 0.5))])  # score 1.0
        assert len(monitor.result(low)) == 1
        assert len(monitor.result(high)) == 0


class TestSemantics:
    def test_strictly_above_threshold(self, factory):
        monitor = make_monitor()
        qid = monitor.add_query(
            ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=1.0)
        )
        at = factory.make((0.5, 0.5))  # exactly 1.0: excluded
        above = factory.make((0.51, 0.5))
        monitor.process([at, above])
        assert [e.rid for e in monitor.result(qid)] == [above.rid]

    def test_result_best_first(self, factory):
        monitor = make_monitor()
        qid = monitor.add_query(
            ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=0.5)
        )
        records = [
            factory.make((0.4, 0.4)),
            factory.make((0.9, 0.9)),
            factory.make((0.6, 0.6)),
        ]
        monitor.process(records)
        scores = [e.score for e in monitor.result(qid)]
        assert scores == sorted(scores, reverse=True)

    def test_threshold_above_everything(self, factory):
        monitor = make_monitor()
        qid = monitor.add_query(
            ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=5.0)
        )
        monitor.process([factory.make((0.9, 0.9))])
        assert monitor.result(qid) == []
        # Its influence region is empty too: nothing can exceed 5.
        assert monitor.monitor.algorithm.influence_region(qid) == set()

    def test_decreasing_direction_threshold(self, factory):
        monitor = make_monitor()
        qid = monitor.add_query(
            ThresholdQuery(LinearFunction([-1.0, -1.0]), threshold=-0.5)
        )
        small = factory.make((0.1, 0.1))  # score -0.2 > -0.5
        big = factory.make((0.9, 0.9))  # score -1.8
        monitor.process([small, big])
        assert [e.rid for e in monitor.result(qid)] == [small.rid]

    def test_time_based_window(self, factory):
        monitor = ThresholdMonitor(
            2, TimeBasedWindow(2.0), cells_per_axis=4
        )
        qid = monitor.add_query(
            ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=1.0)
        )
        monitor.process([factory.make((0.9, 0.9), )])
        assert len(monitor.result(qid)) == 1
        report = monitor.process([], now=5.0)
        assert len(report.changes[qid].removed) == 1
        assert monitor.result(qid) == []

    def test_counters_accumulate(self, factory):
        monitor = make_monitor()
        monitor.add_query(
            ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=1.0)
        )
        monitor.process([factory.make((0.9, 0.9))])
        assert monitor.counters.influence_checks >= 1
