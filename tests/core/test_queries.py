"""Tests for query specifications and the query table."""

import math

import pytest

from repro.core.engine import StreamMonitor
from repro.core.errors import QueryError
from repro.core.queries import (
    ConstrainedTopKQuery,
    QueryTable,
    ThresholdQuery,
    TopKQuery,
)
from repro.core.regions import Rectangle
from repro.core.scoring import (
    LinearFunction,
    ProductFunction,
    QuadraticFunction,
)
from repro.core.window import CountBasedWindow


@pytest.fixture
def f2():
    return LinearFunction([1.0, 2.0])


class TestTopKQuery:
    def test_fields(self, f2):
        query = TopKQuery(f2, k=5, label="demo")
        assert query.k == 5
        assert query.dims == 2
        assert query.qid == -1
        assert query.score((0.5, 0.25)) == pytest.approx(1.0)
        assert "demo" in repr(query)

    def test_invalid_k(self, f2):
        with pytest.raises(QueryError):
            TopKQuery(f2, k=0)

    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3", None])
    def test_k_must_be_an_integer(self, f2, k):
        # 2.5 used to construct, and TMA/SMA then held 2.5 "results".
        with pytest.raises(QueryError, match="integer"):
            TopKQuery(f2, k=k)

    def test_update_k_goes_through_the_same_rule(self, f2):
        monitor = StreamMonitor(
            2, CountBasedWindow(10), algorithm="tma", cells_per_axis=4
        )
        handle = monitor.add_query(TopKQuery(f2, k=3))
        for k in (2.5, True, 0):
            with pytest.raises(QueryError):
                monitor.update_query(handle.qid, k=k)
        assert handle.query.k == 3


class TestWeights:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "family", [LinearFunction, QuadraticFunction, ProductFunction]
    )
    def test_non_finite_weight_is_refused(self, family, bad):
        with pytest.raises(QueryError, match="finite"):
            family([bad, 1.0])

    def test_nan_weight_no_longer_gives_a_silent_empty_result(self):
        # LinearFunction([nan, 1]) used to construct; every cell bound
        # was NaN, so every region empty and the result silently [].
        monitor = StreamMonitor(
            2, CountBasedWindow(10), algorithm="tma", cells_per_axis=4
        )
        monitor.process(monitor.make_records([[0.5, 0.5]]))
        with pytest.raises(QueryError):
            monitor.add_query(TopKQuery(LinearFunction([math.nan, 1.0]), 2))


class TestConstrainedQuery:
    def test_requires_constraint(self, f2):
        with pytest.raises(QueryError):
            ConstrainedTopKQuery(f2, k=1)

    def test_dims_must_match(self, f2):
        with pytest.raises(QueryError):
            ConstrainedTopKQuery(
                f2, k=1, constraint=Rectangle((0.0,), (1.0,))
            )

    def test_admits(self, f2):
        query = ConstrainedTopKQuery(
            f2, k=1, constraint=Rectangle((0.2, 0.2), (0.8, 0.8))
        )
        assert query.admits((0.5, 0.5))
        assert not query.admits((0.9, 0.5))
        assert "R=" in repr(query)


class TestThresholdQuery:
    def test_fields(self, f2):
        query = ThresholdQuery(f2, threshold=1.5, label="hot")
        assert query.dims == 2
        assert query.score((1.0, 1.0)) == pytest.approx(3.0)
        assert "hot" in repr(query)


class TestQueryTable:
    def test_register_assigns_ids(self, f2):
        table = QueryTable()
        q1 = TopKQuery(f2, k=1)
        q2 = TopKQuery(f2, k=2)
        assert table.register(q1) == 0
        assert table.register(q2) == 1
        assert q1.qid == 0 and q2.qid == 1
        assert len(table) == 2
        assert 0 in table and 1 in table

    def test_double_register_rejected(self, f2):
        table = QueryTable()
        query = TopKQuery(f2, k=1)
        table.register(query)
        with pytest.raises(QueryError):
            table.register(query)

    def test_get_and_unregister(self, f2):
        table = QueryTable()
        query = TopKQuery(f2, k=1)
        qid = table.register(query)
        assert table.get(qid) is query
        assert table.unregister(qid) is query
        with pytest.raises(QueryError):
            table.get(qid)
        with pytest.raises(QueryError):
            table.unregister(qid)

    def test_iteration(self, f2):
        table = QueryTable()
        queries = [TopKQuery(f2, k=i + 1) for i in range(3)]
        for query in queries:
            table.register(query)
        assert list(table) == queries
