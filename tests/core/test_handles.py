"""Unit tests for the QueryHandle surface of the unified facade."""

import random

import pytest

from repro.core.engine import StreamMonitor
from repro.core.errors import QueryError
from repro.core.handles import QueryHandle
from repro.core.queries import ThresholdQuery, TopKQuery
from repro.core.results import entries_best_first
from repro.core.scoring import LinearFunction, ProductFunction
from repro.core.window import CountBasedWindow

from tests.conftest import brute_top_k


def make_monitor(algorithm="tma", capacity=60, cells=4):
    return StreamMonitor(
        2, CountBasedWindow(capacity), algorithm=algorithm,
        cells_per_axis=cells,
    )


def feed(monitor, rng, count=20, time_=0.0):
    batch = monitor.make_records(
        [(rng.random(), rng.random()) for _ in range(count)], time_=time_
    )
    monitor.process(batch)
    return batch


class TestIntLikeness:
    """Handles must be drop-in replacements for raw qids."""

    def test_add_query_returns_handle(self):
        monitor = make_monitor()
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=2)
        )
        assert isinstance(handle, QueryHandle)
        assert handle.qid == 0
        assert int(handle) == 0
        assert handle == 0
        assert hash(handle) == hash(0)

    def test_handle_as_report_key(self):
        monitor = make_monitor()
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=1)
        )
        report = monitor.process(monitor.make_records([[0.9, 0.9]]))
        assert handle in report.changes
        assert report.changes[handle].top_ids() == [0]

    def test_handle_in_qid_apis(self):
        monitor = make_monitor()
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=1)
        )
        assert monitor.result(handle) == []
        monitor.remove_query(handle)
        with pytest.raises(QueryError):
            monitor.result(handle)

    def test_handles_sort_and_compare(self):
        monitor = make_monitor()
        handles = monitor.add_queries(
            [
                TopKQuery(LinearFunction([1.0, 1.0]), k=1),
                TopKQuery(LinearFunction([0.5, 1.0]), k=1),
            ]
        )
        assert sorted(handles, reverse=True) == [handles[1], handles[0]]
        assert handles[0] < handles[1]
        assert handles[0] < 1

    def test_monitor_handle_lookup(self):
        monitor = make_monitor()
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=1)
        )
        assert monitor.handle(0) is handle
        assert monitor.handles() == [handle]
        with pytest.raises(QueryError):
            monitor.handle(7)


class TestLifecycleOps:
    def test_result_matches_pull_api(self):
        rng = random.Random(1)
        monitor = make_monitor()
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 2.0]), k=3)
        )
        feed(monitor, rng)
        assert handle.result() == monitor.result(handle.qid)

    def test_cancel_scrubs_and_blocks_further_ops(self):
        monitor = make_monitor()
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=1)
        )
        handle.cancel()
        assert handle.cancelled
        for operation in (
            handle.result,
            handle.cancel,
            handle.pause,
            handle.resume,
            lambda: handle.update(k=2),
        ):
            with pytest.raises(QueryError):
                operation()

    def test_error_messages_are_descriptive(self):
        monitor = make_monitor()
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=1)
        )
        handle.cancel()
        with pytest.raises(QueryError) as excinfo:
            monitor.result(handle)
        message = str(excinfo.value)
        assert "0" in message  # the qid
        assert "monitor" in message  # the monitor state description
        with pytest.raises(QueryError) as excinfo:
            monitor.remove_query(41)
        assert "41" in str(excinfo.value)

    def test_pause_freezes_result_and_skips_maintenance(self):
        rng = random.Random(2)
        monitor = make_monitor()
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=3)
        )
        feed(monitor, rng, time_=0.0)
        frozen = handle.result()
        handle.pause()
        assert handle.paused
        checks_before = monitor.counters.influence_checks
        feed(monitor, rng, time_=1.0)
        # No per-query maintenance ran for the paused query (it is the
        # only query, so influence work must stay flat).
        assert monitor.counters.influence_checks == checks_before
        assert handle.result() == frozen

    def test_resume_is_exact_resync(self):
        rng = random.Random(3)
        monitor = make_monitor()
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 2.0]), k=3)
        )
        window = []
        window += feed(monitor, rng, time_=0.0)
        handle.pause()
        window += feed(monitor, rng, time_=1.0)
        window += feed(monitor, rng, time_=2.0)
        window = window[-60:]
        handle.resume()
        assert handle.active
        expected = brute_top_k(window, handle.query)
        assert [e.key for e in handle.result()] == [
            e.key for e in expected
        ]

    def test_double_pause_and_resume_unpaused_raise(self):
        monitor = make_monitor()
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=1)
        )
        with pytest.raises(QueryError):
            handle.resume()
        handle.pause()
        with pytest.raises(QueryError):
            handle.pause()

    def test_mutation_cost_accounted_separately(self):
        rng = random.Random(4)
        monitor = make_monitor()
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=4)
        )
        feed(monitor, rng)
        cycles_before = len(monitor.cycle_seconds)
        setup_before = len(monitor.setup_seconds)
        handle.pause()
        handle.resume()
        handle.update(k=2)
        assert len(monitor.mutation_seconds) == 3
        assert monitor.total_mutation_seconds >= 0.0
        assert len(monitor.cycle_seconds) == cycles_before
        assert len(monitor.setup_seconds) == setup_before


class TestUpdate:
    @pytest.mark.parametrize("algorithm", ["tma", "sma", "tsl", "brute"])
    @pytest.mark.parametrize(
        "mutation",
        [
            {"k": 2},               # decrease
            {"k": 9},               # increase
            {"weights": [0.2, 1.7]},
            {"k": 5, "weights": [1.4, 0.3]},
        ],
    )
    def test_update_matches_cancel_and_reregister(
        self, algorithm, mutation
    ):
        """The acceptance contract: update() == cancel + re-register,
        with the window state reused (no stream replay)."""
        rng = random.Random(7)
        rows = [
            [(rng.random(), rng.random()) for _ in range(15)]
            for _ in range(6)
        ]
        updated = make_monitor(algorithm)
        fresh = make_monitor(algorithm)
        handle = updated.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=5)
        )
        for cycle, batch in enumerate(rows):
            updated.process(
                updated.make_records(batch, time_=float(cycle))
            )
            fresh.process(fresh.make_records(batch, time_=float(cycle)))
        got = handle.update(**mutation)

        new_k = mutation.get("k", 5)
        weights = mutation.get("weights", [1.0, 1.0])
        reference = fresh.add_query(
            TopKQuery(LinearFunction(weights), k=new_k)
        )
        assert [e.key for e in got] == [
            e.key for e in reference.result()
        ]
        assert [e.key for e in handle.result()] == [
            e.key for e in got
        ]

    @pytest.mark.parametrize("algorithm", ["tma", "sma", "tsl"])
    def test_maintenance_stays_exact_after_update(self, algorithm):
        rng = random.Random(8)
        monitor = make_monitor(algorithm)
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=5)
        )
        window = []
        for cycle in range(4):
            window += feed(monitor, rng, 15, time_=float(cycle))
        handle.update(k=2, weights=[0.4, 1.3])
        for cycle in range(4, 8):
            window += feed(monitor, rng, 15, time_=float(cycle))
        window = window[-60:]
        expected = brute_top_k(window, handle.query)
        assert [e.key for e in handle.result()] == [
            e.key for e in expected
        ]

    @pytest.mark.parametrize("paused", [False, True])
    def test_a_rescoring_update_reaches_subscribers(self, paused):
        """Weights that keep the same records but move their scores
        still announce a change, and replaying it lands on the new
        scores (the records leave with the old, enter with the new)."""
        monitor = make_monitor()
        records = monitor.make_records([(0.9, 0.8), (0.7, 0.6), (0.1, 0.1)])
        monitor.process(records)
        handle = monitor.add_query(TopKQuery(LinearFunction([1.0, 1.0]), k=2))
        state = {entry.rid: entry for entry in handle.result()}
        seen = []

        def apply(change):
            seen.append(change.cause)
            for entry in change.removed:
                del state[entry.rid]
            for entry in change.added:
                state[entry.rid] = entry

        monitor.subscribe(handle.qid, apply)
        if paused:
            handle.pause()
        handle.update(weights=[2.0, 1.0])
        if paused:
            handle.resume()
        assert seen == ["resume" if paused else "update"]
        assert sorted(state) == [records[0].rid, records[1].rid]
        assert [e.key for e in entries_best_first(list(state.values()))] == [
            e.key for e in handle.result()
        ]

    def test_update_validation(self):
        monitor = make_monitor()
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=2)
        )
        with pytest.raises(QueryError):
            handle.update(k=0)
        with pytest.raises(QueryError):
            handle.update(weights=[1.0])  # wrong dims
        with pytest.raises(QueryError):
            handle.update(
                weights=[1.0, 1.0],
                function=ProductFunction([1.0, 1.0]),
            )
        # No-op update returns the current result unchanged.
        assert handle.update() == handle.result()

    def test_update_while_paused_applies_at_resume(self):
        rng = random.Random(9)
        monitor = make_monitor()
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=5)
        )
        window = feed(monitor, rng, 30)
        handle.pause()
        handle.update(k=2)
        handle.resume()
        expected = brute_top_k(list(window), handle.query)
        assert handle.query.k == 2
        assert [e.key for e in handle.result()] == [
            e.key for e in expected
        ]

    @pytest.mark.parametrize("algorithm", ["tma", "sma", "tsl", "brute"])
    def test_failed_update_rolls_back(self, algorithm):
        """A preference function that blows up mid-recomputation must
        not destroy the running query: the previous spec is restored
        and maintenance continues."""
        from repro.core.scoring import CallableFunction

        rng = random.Random(10)
        monitor = make_monitor(algorithm)
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=3)
        )
        window = feed(monitor, rng, 20)
        before = handle.result()
        bomb = CallableFunction(lambda x1, x2: 1 / 0, directions=[1, 1])
        with pytest.raises(ZeroDivisionError):
            handle.update(function=bomb)
        assert handle.query.k == 3
        assert handle.query.function.weights == (1.0, 1.0)
        assert handle.result() == before
        window = list(window) + feed(monitor, rng, 20, time_=1.0)
        expected = brute_top_k(window[-60:], handle.query)
        assert [e.key for e in handle.result()] == [
            e.key for e in expected
        ]

    def test_cancel_releases_handle_entry(self):
        """Register/cancel churn must not grow the monitor: the
        handle table drops terminated entries (the caller's own
        reference keeps reporting state)."""
        monitor = make_monitor()
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=1)
        )
        handle.cancel()
        assert handle.cancelled
        assert monitor.handles() == []
        with pytest.raises(QueryError):
            monitor.handle(handle.qid)

    def test_threshold_update_refused(self):
        monitor = make_monitor()
        handle = monitor.add_query(
            ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=1.0)
        )
        with pytest.raises(QueryError):
            handle.update(k=3)
