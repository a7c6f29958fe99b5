"""Tests for count-based and time-based sliding windows."""

import pytest

from repro.core.errors import WindowError
from repro.core.tuples import RecordFactory
from repro.core.window import CountBasedWindow, TimeBasedWindow


@pytest.fixture
def factory():
    return RecordFactory()


class TestCountBased:
    def test_invalid_capacity(self):
        with pytest.raises(WindowError):
            CountBasedWindow(0)

    def test_no_eviction_until_full(self, factory):
        window = CountBasedWindow(3)
        for _ in range(3):
            window.insert(factory.make([0.5]))
        assert window.expire(now=0.0) == []
        assert len(window) == 3

    def test_fifo_eviction(self, factory):
        window = CountBasedWindow(2)
        records = [factory.make([0.1], time=i) for i in range(4)]
        for record in records[:3]:
            window.insert(record)
        expired = window.expire(now=2.0)
        assert [r.rid for r in expired] == [0]
        window.insert(records[3])
        expired = window.expire(now=3.0)
        assert [r.rid for r in expired] == [1]
        assert [r.rid for r in window] == [2, 3]

    def test_bulk_overflow_evicts_batch(self, factory):
        window = CountBasedWindow(2)
        for i in range(5):
            window.insert(factory.make([0.1], time=0.0))
        expired = window.expire(now=0.0)
        assert [r.rid for r in expired] == [0, 1, 2]

    def test_repr(self):
        assert "N=5" in repr(CountBasedWindow(5))


class TestTimeBased:
    def test_invalid_duration(self):
        with pytest.raises(WindowError):
            TimeBasedWindow(0)

    def test_expiry_at_duration(self, factory):
        window = TimeBasedWindow(2.0)
        window.insert(factory.make([0.1], time=0.0))
        window.insert(factory.make([0.1], time=1.0))
        assert window.expire(now=1.9) == []
        expired = window.expire(now=2.0)
        assert [r.rid for r in expired] == [0]
        expired = window.expire(now=3.0)
        assert [r.rid for r in expired] == [1]
        assert len(window) == 0

    def test_batch_expiry(self, factory):
        window = TimeBasedWindow(1.0)
        for i in range(3):
            window.insert(factory.make([0.1], time=0.0))
        assert len(window.expire(now=5.0)) == 3

    def test_out_of_order_arrival_rejected(self, factory):
        window = TimeBasedWindow(1.0)
        window.insert(factory.make([0.1], time=5.0))
        with pytest.raises(WindowError):
            window.insert(factory.make([0.1], time=4.0))

    def test_peek_oldest(self, factory):
        window = TimeBasedWindow(10.0)
        assert window.peek_oldest() is None
        record = factory.make([0.1], time=0.0)
        window.insert(record)
        assert window.peek_oldest() is record

    def test_repr(self):
        assert "T=2.5" in repr(TimeBasedWindow(2.5))


class TestIteration:
    def test_oldest_first(self, factory):
        window = CountBasedWindow(10)
        for i in range(4):
            window.insert(factory.make([0.1], time=float(i)))
        assert [r.rid for r in window] == [0, 1, 2, 3]
