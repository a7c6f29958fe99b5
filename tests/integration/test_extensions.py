"""Integration tests for the Section 7 extensions."""

import random

import pytest

from repro.core.engine import StreamMonitor
from repro.core.errors import QueryError, StreamError
from repro.core.queries import ThresholdQuery, TopKQuery
from repro.core.scoring import LinearFunction
from repro.core.tuples import RecordFactory
from repro.core.window import CountBasedWindow
from repro.extensions.constrained import constrained_query
from repro.streams.generators import Independent
from repro.streams.update_stream import UpdateStreamDriver

from tests.conftest import brute_top_k


class TestConstrainedMonitoring:
    @pytest.mark.parametrize("algorithm", ["tma", "sma"])
    def test_constrained_vs_oracle(self, algorithm):
        rng = random.Random(8)
        monitor = StreamMonitor(
            2,
            CountBasedWindow(60),
            algorithm=algorithm,
            cells_per_axis=5,
        )
        query = constrained_query(
            LinearFunction([1.0, 2.0]),
            k=3,
            ranges=[(0.2, 0.7), (0.1, 0.9)],
        )
        qid = monitor.add_query(query)
        window = []
        for _ in range(15):
            batch = monitor.make_records(
                [(rng.random(), rng.random()) for _ in range(8)]
            )
            window.extend(batch)
            window = window[-60:]
            monitor.process(batch)
            got = [e.rid for e in monitor.result(qid)]
            expected = [e.rid for e in brute_top_k(window, query)]
            assert got == expected

    def test_constrained_query_builder_validation(self):
        f = LinearFunction([1.0, 1.0])
        with pytest.raises(QueryError):
            constrained_query(f, 1, ranges=[(0.2, 0.7)])  # wrong arity
        with pytest.raises(QueryError):
            constrained_query(f, 1, ranges=[(0.7, 0.2), None])
        query = constrained_query(f, 1, ranges=[None, (0.25, 0.75)])
        assert query.constraint.lower == (0.0, 0.25)
        assert query.constraint.upper == (1.0, 0.75)

    def test_figure12_example(self):
        """Figure 12: p1 outside R is skipped; p2 inside is the result."""
        monitor = StreamMonitor(
            2, CountBasedWindow(10), algorithm="tma", cells_per_axis=7
        )
        query = constrained_query(
            LinearFunction([1.0, 2.0]),
            k=1,
            ranges=[(3 / 7, 6 / 7), (4 / 7, 6 / 7)],
        )
        qid = monitor.add_query(query)
        batch = monitor.make_records(
            [
                (0.55, 0.95),  # p1: better score but outside R
                (0.62, 0.70),  # p2: inside R
            ]
        )
        monitor.process(batch)
        assert [e.rid for e in monitor.result(qid)] == [batch[1].rid]


class TestThresholdMonitoring:
    def test_threshold_vs_oracle(self):
        rng = random.Random(9)
        factory = RecordFactory()
        monitor = StreamMonitor(
            2, CountBasedWindow(50), algorithm="tma", cells_per_axis=5
        )
        query = ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=1.4)
        qid = monitor.add_query(query)
        window = []
        for _ in range(12):
            batch = [
                factory.make((rng.random(), rng.random())) for _ in range(7)
            ]
            window.extend(batch)
            window = window[-50:]
            monitor.process(batch)
            got = sorted(e.rid for e in monitor.result(qid))
            expected = sorted(
                record.rid
                for record in window
                if query.score(record.attrs) > 1.4
            )
            assert got == expected

    def test_initial_result_includes_existing_points(self):
        factory = RecordFactory()
        monitor = StreamMonitor(
            2, CountBasedWindow(10), algorithm="tma", cells_per_axis=4
        )
        hot = factory.make((0.9, 0.9))
        cold = factory.make((0.1, 0.1))
        monitor.process([hot, cold])
        qid = monitor.add_query(
            ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=1.0)
        )
        assert [e.rid for e in monitor.result(qid)] == [hot.rid]

    def test_change_reports(self):
        factory = RecordFactory()
        monitor = StreamMonitor(
            2, CountBasedWindow(2), algorithm="tma", cells_per_axis=4
        )
        qid = monitor.add_query(
            ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=1.0)
        )
        hot = factory.make((0.8, 0.8))
        report = monitor.process([hot])
        assert [e.rid for e in report.changes[qid].added] == [hot.rid]
        # Overflow the window: hot expires.
        report = monitor.process(
            [factory.make((0.1, 0.1)), factory.make((0.2, 0.2))]
        )
        assert [e.rid for e in report.changes[qid].removed] == [hot.rid]

    def test_remove_query_scrubs_lists(self):
        monitor = StreamMonitor(
            2, CountBasedWindow(5), algorithm="tma", cells_per_axis=4
        )
        qid = monitor.add_query(
            ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=1.5)
        )
        monitor.remove_query(qid)
        assert monitor.algorithm.influence_list_entries() == 0
        with pytest.raises(QueryError):
            monitor.result(qid)


class TestUpdateStreamMonitoring:
    def test_sma_rejected(self):
        with pytest.raises(StreamError):
            StreamMonitor(
                2, algorithm="sma", cells_per_axis=4, stream_model="update"
            )

    def test_update_stream_vs_oracle(self):
        driver = UpdateStreamDriver(
            Independent(2), rate=6, min_lifetime=1, max_lifetime=8, seed=4
        )
        monitor = StreamMonitor(
            2, algorithm="tma", cells_per_axis=4, stream_model="update"
        )
        query = TopKQuery(LinearFunction([0.8, 0.6]), k=3)
        qid = monitor.add_query(query)
        live = {}
        for batch in driver.batches(20):
            for record in batch.insertions:
                live[record.rid] = record
            for record in batch.deletions:
                del live[record.rid]
            monitor.process(batch.insertions, deletions=batch.deletions)
            assert monitor.live_count == len(live)
            got = [e.rid for e in monitor.result(qid)]
            expected = [
                e.rid for e in brute_top_k(list(live.values()), query)
            ]
            assert got == expected

    def test_deletions_are_not_fifo(self):
        """The generated update stream interleaves deletion order."""
        driver = UpdateStreamDriver(
            Independent(2), rate=5, min_lifetime=1, max_lifetime=10, seed=1
        )
        deleted = []
        for batch in driver.batches(25):
            deleted.extend(record.rid for record in batch.deletions)
        assert deleted != sorted(deleted)

    def test_double_insert_rejected(self):
        monitor = StreamMonitor(2, algorithm="brute", stream_model="update")
        factory = RecordFactory()
        record = factory.make((0.5, 0.5))
        monitor.process([record])
        with pytest.raises(StreamError):
            monitor.process([record])

    def test_unknown_delete_rejected(self):
        monitor = StreamMonitor(2, algorithm="brute", stream_model="update")
        factory = RecordFactory()
        record = factory.make((0.5, 0.5))
        with pytest.raises(StreamError):
            monitor.process([], deletions=[record])
