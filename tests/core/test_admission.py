"""Batch admission: a row of the wrong arity or with a value that is
not a number in the unit workspace ``[0, 1]`` is refused with a
:class:`StreamError` before the clock, the window or any shard
changes, so a refused batch leaves the monitor as it was and later,
unrelated cycles run as if it had never been offered."""

import math
import random

import pytest

from repro.cluster import local_shard_hosts
from repro.core.engine import StreamMonitor
from repro.core.errors import StreamError
from repro.core.queries import TopKQuery
from repro.core.scoring import LinearFunction
from repro.core.window import CountBasedWindow, TimeBasedWindow

from tests.conftest import brute_top_k

DIMS = 2
WINDOW = 30


def keys(entries):
    return [(entry.score.hex(), entry.rid) for entry in entries]


def state_of(monitor, handles):
    return (
        [record.rid for record in monitor.window],
        monitor._clock,
        monitor.valid_count,
        [keys(handle.result()) for handle in handles],
    )


def rows(rng, count):
    return [[rng.random() for _ in range(DIMS)] for _ in range(count)]


def make_monitor(algorithm, shards=None):
    monitor = StreamMonitor(
        DIMS,
        CountBasedWindow(WINDOW),
        algorithm=algorithm,
        cells_per_axis=4,
        shards=shards,
    )
    queries = [
        TopKQuery(LinearFunction([1.0, 0.5]), k=3),
        TopKQuery(LinearFunction([0.2, 1.0]), k=2),
    ]
    return monitor, queries, [monitor.add_query(query) for query in queries]


def check_against_oracle(monitor, queries, handles):
    window = list(monitor.window)
    for query, handle in zip(queries, handles):
        assert keys(handle.result()) == keys(brute_top_k(window, query))


BAD_ROWS = {
    "nan": [math.nan, 0.5],
    "inf": [0.5, math.inf],
    "short": [0.5],
    "long": [0.5, 0.5, 0.5],
    "text": ["0.5", 0.5],
    "huge int": [10**400, 0.5],
    "below": [-0.25, 0.5],
    "above": [0.5, 1.5],
}


@pytest.mark.parametrize("bad", sorted(BAD_ROWS))
@pytest.mark.parametrize("algorithm", ["tma", "sma", "tsl", "brute"])
def test_refused_batch_changes_nothing(algorithm, bad):
    rng = random.Random(4)
    monitor, queries, handles = make_monitor(algorithm)
    for cycle in range(3):
        monitor.process(monitor.make_records(rows(rng, 10), time_=cycle))
    before = state_of(monitor, handles)
    batch = monitor.make_records(
        rows(rng, 9) + [BAD_ROWS[bad]], time_=5.0
    )
    with pytest.raises(StreamError, match="batch refused"):
        monitor.process(batch)
    assert state_of(monitor, handles) == before
    # Later, unrelated cycles (which expire what the refused batch
    # would have left behind) run cleanly and stay exact.
    for cycle in range(3, 9):
        monitor.process(monitor.make_records(rows(rng, 10), time_=cycle))
        check_against_oracle(monitor, queries, handles)


@pytest.mark.parametrize(
    "arrival", [(0.1, 0.2), [0.1, 0.2], 0.5, None], ids=repr
)
def test_rows_in_place_of_records_are_refused(arrival):
    """``process`` takes records; a raw row is a ``StreamError`` from
    admission, not an ``AttributeError`` from deep in the cycle."""
    rng = random.Random(6)
    monitor, queries, handles = make_monitor("tma")
    monitor.process(monitor.make_records(rows(rng, 10), time_=0.0))
    before = state_of(monitor, handles)
    batch = monitor.make_records(rows(rng, 3), time_=1.0) + [arrival]
    with pytest.raises(StreamError, match="not a StreamRecord"):
        monitor.process(batch)
    with pytest.raises(StreamError, match="not a StreamRecord"):
        monitor.process([arrival])
    assert state_of(monitor, handles) == before


@pytest.mark.parametrize("algorithm", ["tma", "sma", "tsl", "brute"])
def test_row_outside_the_workspace_is_refused(algorithm):
    """(-3, 7) scores 4.0 under x + y, above any in-workspace row. Cell
    maxscores bound only in-workspace rows, so once admitted it was
    missing from the TMA and SMA top-3 while TSL and brute ranked it
    first; now every algorithm refuses it."""
    rng = random.Random(12)
    monitor = StreamMonitor(
        DIMS, CountBasedWindow(31), algorithm=algorithm, cells_per_axis=4
    )
    query = TopKQuery(LinearFunction([1.0, 1.0]), k=3)
    handle = monitor.add_query(query)
    monitor.process(monitor.make_records(rows(rng, 30), time_=0.0))
    before = state_of(monitor, [handle])
    with pytest.raises(StreamError, match="unit workspace"):
        monitor.process(monitor.make_records([[-3.0, 7.0]], time_=1.0))
    assert state_of(monitor, [handle]) == before
    check_against_oracle(monitor, [query], [handle])


@pytest.mark.parametrize("algorithm", ["tma", "sma"])
def test_workspace_faces_are_admitted(algorithm):
    monitor, queries, handles = make_monitor(algorithm)
    monitor.process(
        monitor.make_records([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    )
    check_against_oracle(monitor, queries, handles)
    assert handles[0].result()[0].score == 1.5


@pytest.mark.parametrize("pipelined", [False, True])
def test_sharded_short_row_keeps_the_pool(pipelined):
    rng = random.Random(8)
    monitor, queries, handles = make_monitor("sma", shards=2)
    try:
        monitor.process(monitor.make_records(rows(rng, 10), time_=0.0))
        before = state_of(monitor, handles)
        bad = monitor.make_records([[0.5]], time_=1.0)
        with pytest.raises(StreamError, match="batch refused"):
            if pipelined:
                monitor.process_many([bad])
            else:
                monitor.process(bad)
        assert state_of(monitor, handles) == before
        batches = [
            monitor.make_records(rows(rng, 10), time_=float(cycle))
            for cycle in range(2, 6)
        ]
        if pipelined:
            monitor.process_many(batches)
        else:
            for batch in batches:
                monitor.process(batch)
        check_against_oracle(monitor, queries, handles)
    finally:
        monitor.close()


@pytest.mark.parametrize("bad", ["nan", "short"])
def test_tcp_sharded_refusal_keeps_the_hosts(bad):
    rng = random.Random(10)
    with local_shard_hosts(2, once=False) as addresses:
        monitor, queries, handles = make_monitor("tma", shards=addresses)
        try:
            monitor.process(monitor.make_records(rows(rng, 10), time_=0.0))
            before = state_of(monitor, handles)
            batch = monitor.make_records(
                rows(rng, 4) + [BAD_ROWS[bad]], time_=1.0
            )
            with pytest.raises(StreamError, match="batch refused"):
                monitor.process(batch)
            assert state_of(monitor, handles) == before
            monitor.process_many(
                [
                    monitor.make_records(rows(rng, 10), time_=float(cycle))
                    for cycle in range(2, 6)
                ]
            )
            check_against_oracle(monitor, queries, handles)
        finally:
            monitor.close()


def test_time_window_clock_stays_put():
    """Under a time-based window a refused batch must not advance the
    clock: advancing it would expire live records for nothing."""
    monitor = StreamMonitor(
        DIMS, TimeBasedWindow(3.0), algorithm="sma", cells_per_axis=4
    )
    query = TopKQuery(LinearFunction([1.0, 1.0]), k=2)
    handle = monitor.add_query(query)
    monitor.process(monitor.make_records([[0.2, 0.4], [0.6, 0.1]], time_=0.0))
    before = state_of(monitor, [handle])
    bad = monitor.make_records([[0.3, 0.3], [math.inf, 0.1]], time_=10.0)
    with pytest.raises(StreamError, match="batch refused"):
        monitor.process(bad)
    assert state_of(monitor, [handle]) == before
    assert monitor.valid_count == 2
    monitor.process(monitor.make_records([[0.9, 0.9]], time_=1.0))
    check_against_oracle(monitor, [query], [handle])
    assert [entry.rid for entry in handle.result()][0] == 4


def test_pipelined_run_stops_at_the_refused_batch():
    rng = random.Random(9)
    monitor, queries, handles = make_monitor("tma", shards=2)
    try:
        good = monitor.make_records(rows(rng, 10), time_=0.0)
        bad = monitor.make_records([[math.nan, 0.1]], time_=1.0)
        with pytest.raises(StreamError, match="batch refused"):
            monitor.process_many([good, bad])
        # The batch before the refused one was fully processed.
        assert [record.rid for record in monitor.window] == [
            record.rid for record in good
        ]
        check_against_oracle(monitor, queries, handles)
    finally:
        monitor.close()


def test_in_process_pipelined_run_stops_at_the_refused_batch():
    rng = random.Random(11)
    monitor, queries, handles = make_monitor("sma")
    good = monitor.make_records(rows(rng, 10), time_=0.0)
    bad = monitor.make_records(rows(rng, 3) + [[0.1]], time_=1.0)
    later = monitor.make_records(rows(rng, 10), time_=2.0)
    with pytest.raises(StreamError, match="batch refused"):
        monitor.process_many([good, bad, later])
    assert [record.rid for record in monitor.window] == [
        record.rid for record in good
    ]
    assert monitor._clock == 0.0
    check_against_oracle(monitor, queries, handles)


def test_update_model_refuses_before_mutating():
    monitor = StreamMonitor(DIMS, algorithm="tma", stream_model="update")
    handle = monitor.add_query(TopKQuery(LinearFunction([1.0, 1.0]), k=2))
    first = monitor.make_records([[0.2, 0.4], [0.6, 0.1]], time_=0.0)
    monitor.process(first)
    bad = monitor.make_records([[0.9, math.nan]], time_=1.0)
    with pytest.raises(StreamError, match="batch refused"):
        monitor.process(bad)
    assert monitor.live_count == 2
    assert [entry.rid for entry in handle.result()] == [1, 0]
