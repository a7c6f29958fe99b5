"""The Section-7 extensions folded into the unified StreamMonitor facade.

Threshold queries register through the ordinary ``add_query`` on any
algorithm (and any shard count); the explicit-deletion stream model is
``StreamMonitor(..., stream_model="update")``; the legacy extension
monitors are thin shims over the same facade. Close/idempotency and
descriptive-error semantics are pinned here too, in-process and
sharded alike.
"""

import random

import pytest

from repro.core.engine import StreamMonitor
from repro.core.errors import QueryError, StreamError
from repro.core.queries import ThresholdQuery, TopKQuery
from repro.core.scoring import LinearFunction
from repro.core.tuples import RecordFactory
from repro.core.window import CountBasedWindow
from repro.extensions.constrained import constrained_query
from repro.extensions.threshold import ThresholdMonitor
from repro.extensions.update_model import UpdateStreamMonitor
from repro.streams.generators import Independent
from repro.streams.update_stream import UpdateStreamDriver

from tests.conftest import brute_top_k


class TestThresholdViaFacade:
    @pytest.mark.parametrize("algorithm", ["tma", "sma", "tsl", "brute"])
    def test_threshold_query_on_any_algorithm(self, algorithm):
        rng = random.Random(11)
        monitor = StreamMonitor(
            2,
            CountBasedWindow(50),
            algorithm=algorithm,
            cells_per_axis=5,
        )
        query = ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=1.3)
        handle = monitor.add_query(query)
        window = []
        for cycle in range(10):
            batch = monitor.make_records(
                [(rng.random(), rng.random()) for _ in range(8)],
                time_=float(cycle),
            )
            window.extend(batch)
            window = window[-50:]
            monitor.process(batch)
            got = sorted(entry.rid for entry in handle.result())
            expected = sorted(
                record.rid
                for record in window
                if query.score(record.attrs) > 1.3
            )
            assert got == expected

    def test_mixed_query_kinds_share_one_monitor(self):
        """Top-k, constrained and threshold queries in one engine."""
        rng = random.Random(12)
        monitor = StreamMonitor(
            2, CountBasedWindow(60), algorithm="tma", cells_per_axis=5
        )
        severity = LinearFunction([2.0, 1.0])
        top = monitor.add_query(TopKQuery(severity, k=3))
        band = monitor.add_query(
            constrained_query(severity, k=3, ranges=[None, (0.3, 0.7)])
        )
        alarm = monitor.add_query(
            ThresholdQuery(severity, threshold=2.4)
        )
        window = []
        for cycle in range(8):
            batch = monitor.make_records(
                [(rng.random(), rng.random()) for _ in range(12)],
                time_=float(cycle),
            )
            window.extend(batch)
            window = window[-60:]
            monitor.process(batch)
            assert [e.key for e in top.result()] == [
                e.key for e in brute_top_k(window, top.query)
            ]
            assert [e.key for e in band.result()] == [
                e.key for e in brute_top_k(window, band.query)
            ]
            expected = sorted(
                record.rid
                for record in window
                if severity.score(record.attrs) > 2.4
            )
            assert sorted(e.rid for e in alarm.result()) == expected

    def test_threshold_query_sharded(self):
        rng = random.Random(13)
        solo = StreamMonitor(
            2, CountBasedWindow(40), algorithm="tma", cells_per_axis=4
        )
        with StreamMonitor(
            2,
            CountBasedWindow(40),
            algorithm="tma",
            cells_per_axis=4,
            shards=2,
        ) as sharded:
            specs = [
                TopKQuery(LinearFunction([1.0, 0.5]), k=3),
                ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=1.4),
                ThresholdQuery(LinearFunction([0.5, 1.5]), threshold=1.2),
            ]

            def clones():
                return [
                    TopKQuery(LinearFunction([1.0, 0.5]), k=3),
                    ThresholdQuery(
                        LinearFunction([1.0, 1.0]), threshold=1.4
                    ),
                    ThresholdQuery(
                        LinearFunction([0.5, 1.5]), threshold=1.2
                    ),
                ]

            solo_handles = solo.add_queries(clones())
            sharded_handles = sharded.add_queries(clones())
            for cycle in range(6):
                rows = [
                    (rng.random(), rng.random()) for _ in range(10)
                ]
                solo.process(
                    solo.make_records(rows, time_=float(cycle))
                )
                sharded.process(
                    sharded.make_records(rows, time_=float(cycle))
                )
                for mine, theirs in zip(solo_handles, sharded_handles):
                    assert [e.key for e in mine.result()] == [
                        e.key for e in theirs.result()
                    ]

    def test_threshold_dimension_mismatch_is_query_error(self):
        monitor = StreamMonitor(
            2, CountBasedWindow(10), algorithm="tma", cells_per_axis=4
        )
        with pytest.raises(QueryError):
            monitor.add_query(
                ThresholdQuery(LinearFunction([1.0]), threshold=0.5)
            )
        # A failed registration leaves no zombie in the query table.
        assert len(monitor.query_table) == 0

    def test_legacy_threshold_monitor_is_a_shim(self):
        monitor = ThresholdMonitor(
            2, CountBasedWindow(10), cells_per_axis=4
        )
        assert isinstance(monitor.monitor, StreamMonitor)
        handle = monitor.add_query(
            ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=1.0)
        )
        factory = RecordFactory()
        hot = factory.make((0.9, 0.9))
        report = monitor.process([hot])
        assert [e.rid for e in report.changes[handle].added] == [hot.rid]
        # The facade's handle surface is available through the shim.
        received = []
        handle.subscribe(received.append)
        monitor.process([factory.make((0.95, 0.97))])
        assert len(received) == 1


class TestUpdateModelViaFacade:
    def test_stream_model_update_monitors_explicit_deletions(self):
        driver = UpdateStreamDriver(
            Independent(2), rate=6, min_lifetime=1, max_lifetime=8, seed=5
        )
        monitor = StreamMonitor(
            2, algorithm="tma", cells_per_axis=4, stream_model="update"
        )
        handle = monitor.add_query(
            TopKQuery(LinearFunction([0.7, 0.7]), k=3)
        )
        live = {}
        for batch in driver.batches(15):
            for record in batch.insertions:
                live[record.rid] = record
            for record in batch.deletions:
                del live[record.rid]
            monitor.process(
                batch.insertions, deletions=batch.deletions
            )
            assert monitor.live_count == len(live)
            assert [e.key for e in handle.result()] == [
                e.key
                for e in brute_top_k(list(live.values()), handle.query)
            ]

    def test_update_model_refuses_sma_and_windows(self):
        with pytest.raises(StreamError):
            StreamMonitor(
                2,
                algorithm="sma",
                cells_per_axis=4,
                stream_model="update",
            )
        with pytest.raises(StreamError):
            StreamMonitor(
                2,
                CountBasedWindow(10),
                algorithm="tma",
                cells_per_axis=4,
                stream_model="update",
            )
        with pytest.raises(StreamError):
            StreamMonitor(2, algorithm="tma", cells_per_axis=4)

    def test_window_model_rejects_deletions(self):
        monitor = StreamMonitor(
            2, CountBasedWindow(10), algorithm="tma", cells_per_axis=4
        )
        factory = RecordFactory()
        with pytest.raises(StreamError):
            monitor.process([], deletions=[factory.make((0.5, 0.5))])

    def test_legacy_update_monitor_is_a_shim(self):
        monitor = UpdateStreamMonitor(2, algorithm="tma", cells_per_axis=4)
        assert isinstance(monitor, StreamMonitor)
        assert monitor.stream_model == "update"
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=2)
        )
        factory = RecordFactory()
        first = factory.make((0.9, 0.9))
        second = factory.make((0.5, 0.5))
        monitor.process([first, second], [])
        assert [e.rid for e in handle.result()] == [first.rid, second.rid]
        monitor.process([], [first])
        assert [e.rid for e in handle.result()] == [second.rid]

    def test_update_model_handles_and_subscriptions(self):
        monitor = StreamMonitor(
            2, algorithm="tma", cells_per_axis=4, stream_model="update"
        )
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=2)
        )
        stream = handle.changes()
        factory = RecordFactory()
        records = [factory.make((0.2 + 0.1 * i, 0.5)) for i in range(5)]
        monitor.process(records, deletions=[])
        monitor.process([], deletions=[records[-1]])
        causes = [change.cause for change in stream]
        assert causes == ["cycle", "cycle"]
        handle.update(k=1)
        assert [change.cause for change in stream] == ["update"]


class TestSharedRegistrationPath:
    """One registration/accounting path for every query kind."""

    def test_setup_seconds_accounts_threshold_registrations(self):
        monitor = StreamMonitor(
            2, CountBasedWindow(10), algorithm="tma", cells_per_axis=4
        )
        monitor.add_query(
            ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=1.0)
        )
        assert len(monitor.setup_seconds) == 1

    def test_mixed_burst_registration(self):
        monitor = StreamMonitor(
            2,
            CountBasedWindow(30),
            algorithm="sma",
            cells_per_axis=4,
            grouped=True,
        )
        monitor.process(
            monitor.make_records([[0.8, 0.9], [0.4, 0.2], [0.9, 0.7]])
        )
        handles = monitor.add_queries(
            [
                TopKQuery(LinearFunction([1.0, 1.0]), k=2),
                ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=1.4),
                TopKQuery(LinearFunction([1.01, 1.0]), k=2),
            ]
        )
        assert [e.rid for e in handles[0].result()] == [0, 2]
        assert sorted(e.rid for e in handles[1].result()) == [0, 2]
        assert len(monitor.setup_seconds) == 1


class TestCloseSemanticsSharded:
    """Satellite regression: double-close and use-after-close on a
    sharded monitor."""

    def test_double_close_and_use_after_close(self):
        monitor = StreamMonitor(
            2,
            CountBasedWindow(20),
            algorithm="tma",
            cells_per_axis=4,
            shards=2,
        )
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=2)
        )
        other = monitor.add_query(
            TopKQuery(LinearFunction([0.5, 1.0]), k=2)
        )
        monitor.process(monitor.make_records([[0.5, 0.5]]))
        monitor.close()
        monitor.close()  # idempotent: no error, no hang
        assert monitor.closed
        assert handle.closed and other.closed
        with pytest.raises(QueryError) as excinfo:
            handle.result()
        assert "closed" in str(excinfo.value)
        with pytest.raises(StreamError):
            monitor.process(monitor.make_records([[0.5, 0.5]]))
        with pytest.raises(StreamError):
            monitor.add_query(TopKQuery(LinearFunction([1.0, 1.0]), k=1))

    def test_context_manager_marks_handles(self):
        with StreamMonitor(
            2,
            CountBasedWindow(20),
            algorithm="sma",
            cells_per_axis=4,
            shards=2,
        ) as monitor:
            handle = monitor.add_query(
                TopKQuery(LinearFunction([1.0, 1.0]), k=1)
            )
        assert handle.closed


class TestDescriptiveErrorsEverywhere:
    """Satellite: unknown/cancelled qids raise a descriptive
    QueryError — with the qid and monitor state — identically for
    in-process and sharded monitors."""

    @pytest.mark.parametrize("shards", [None, 2])
    def test_unknown_and_cancelled_qids(self, shards):
        monitor = StreamMonitor(
            2,
            CountBasedWindow(20),
            algorithm="tma",
            cells_per_axis=4,
            shards=shards,
        )
        try:
            handle = monitor.add_query(
                TopKQuery(LinearFunction([1.0, 1.0]), k=1)
            )
            for operation in (
                lambda: monitor.result(99),
                lambda: monitor.remove_query(99),
                lambda: monitor.pause_query(99),
                lambda: monitor.resume_query(99),
                lambda: monitor.update_query(99, k=2),
                lambda: monitor.subscribe(99, lambda change: None),
                lambda: monitor.changes(99),
            ):
                with pytest.raises(QueryError) as excinfo:
                    operation()
                message = str(excinfo.value)
                assert "99" in message
                assert "monitor" in message
                assert "1 live queries" in message
            monitor.remove_query(handle)
            with pytest.raises(QueryError) as excinfo:
                monitor.result(handle)
            assert "0 live queries" in str(excinfo.value)
        finally:
            monitor.close()
