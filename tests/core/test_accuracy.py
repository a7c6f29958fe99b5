"""The (ε,δ) accuracy contract on exact algorithms.

Every algorithm is exact, and an exact answer meets any contract with a
certified bound of 0. So a contracted query is maintained like any
other: its results equal its uncontracted twin's bit for bit, its cycle
changes carry ``bound == 0.0``, and the twin's carry ``None`` — in
process, over pipe shards, over TCP shards and through the service.
"""

import math
import random

import pytest

from repro import Accuracy as PublicAccuracy
from repro.cluster import local_shard_hosts
from repro.core.engine import StreamMonitor
from repro.core.errors import QueryError
from repro.core.queries import (
    Accuracy,
    ConstrainedTopKQuery,
    ThresholdQuery,
    TopKQuery,
)
from repro.core.regions import Rectangle
from repro.core.results import ResultChange, ResultEntry
from repro.core.scoring import LinearFunction, ProductFunction
from repro.core.tuples import RecordFactory
from repro.core.window import CountBasedWindow
from repro.parallel.sharded import resolve_changes
from repro.parallel.worker import change_columns
from repro.service import MonitorClient, MonitorServer
from repro.service.protocol import (
    change_from_wire,
    change_to_wire,
    query_from_wire,
    query_to_wire,
)
from repro.transport import codec

from tests.conftest import (
    brute_top_k,
    make_records,
    random_rows,
    arrival_columns,
    store_holding,
)

DIMS = 2
WINDOW = 60


class TestValidation:
    def test_defaults(self):
        contract = Accuracy(epsilon=0.05)
        assert contract.epsilon == 0.05
        assert contract.delta == 0.01

    def test_public_export(self):
        assert PublicAccuracy is Accuracy

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan])
    def test_bad_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError):
            Accuracy(epsilon=epsilon)

    @pytest.mark.parametrize("delta", [-0.1, 1.0, 2.0, math.nan])
    def test_bad_delta_rejected(self, delta):
        with pytest.raises(ValueError):
            Accuracy(epsilon=0.05, delta=delta)

    def test_zero_delta_allowed(self):
        assert Accuracy(epsilon=0.05, delta=0.0).delta == 0.0

    def test_frozen(self):
        contract = Accuracy(epsilon=0.05)
        with pytest.raises(AttributeError):
            contract.epsilon = 0.1


def keys(entries):
    return [(entry.score.hex(), entry.rid) for entry in entries]


def twin_queries(seed):
    """(contracted, uncontracted) copies of one random linear query."""
    rng = random.Random(seed)
    weights = [rng.uniform(0.1, 1.0) for _ in range(DIMS)]
    k = rng.choice([3, 5])
    return (
        TopKQuery(LinearFunction(weights), k=k),
        TopKQuery(LinearFunction(weights), k=k),
    )


def drive_twins(monitor, seed, cycles=12, rate=8):
    """Feed a seeded stream (half through ``process``, half through the
    pipelined ``process_many``); check the contract on every cycle."""
    contracted, twin = twin_queries(seed)
    held = monitor.add_query(contracted, accuracy=Accuracy(epsilon=0.05))
    free = monitor.add_query(twin)
    assert held.accuracy == Accuracy(epsilon=0.05)
    assert free.accuracy is None
    rng = random.Random(seed * 31 + 7)
    batches = [
        monitor.make_records(
            [[rng.random() for _ in range(DIMS)] for _ in range(rate)],
            time_=float(cycle),
        )
        for cycle in range(cycles)
    ]
    half = cycles // 2
    reports = [monitor.process(batch) for batch in batches[:half]]
    reports += monitor.process_many(batches[half:])
    seen = 0
    for report in reports:
        mine = report.changes.get(int(held))
        theirs = report.changes.get(int(free))
        assert (mine is None) == (theirs is None)
        if mine is None:
            continue
        seen += 1
        assert mine.cause == theirs.cause == "cycle"
        assert mine.bound == 0.0
        assert theirs.bound is None
        assert keys(mine.top) == keys(theirs.top)
        assert keys(mine.added) == keys(theirs.added)
        assert keys(mine.removed) == keys(theirs.removed)
    assert keys(held.result()) == keys(free.result())
    assert seen > 0  # the stream really moved both results


@pytest.mark.parametrize("shards", [None, 2], ids=["inproc", "pipe2"])
@pytest.mark.parametrize("algorithm", ["tma", "sma", "tsl", "brute"])
def test_contract_is_met_exactly(algorithm, shards):
    monitor = StreamMonitor(
        DIMS,
        CountBasedWindow(WINDOW),
        algorithm=algorithm,
        cells_per_axis=5,
        shards=shards,
    )
    try:
        drive_twins(monitor, seed=3)
    finally:
        monitor.close()


@pytest.mark.parametrize("algorithm", ["tma", "sma", "tsl", "brute"])
def test_contract_is_met_over_tcp_shards(algorithm):
    with local_shard_hosts(2, once=False) as addresses:
        monitor = StreamMonitor(
            DIMS,
            CountBasedWindow(WINDOW),
            algorithm=algorithm,
            cells_per_axis=5,
            shards=addresses,
        )
        try:
            drive_twins(monitor, seed=5, cycles=8)
        finally:
            monitor.close()


def run_contracted_stream(algorithm, seed, capacity=150, cycles=30):
    """Random linear and product queries under contracts with various ε:
    every cycle, each result equals the exact oracle and each of its
    changes certifies ``bound == 0.0``. Returns the number of
    non-empty results checked."""
    rng = random.Random(seed)
    dims = 3
    monitor = StreamMonitor(
        dims,
        CountBasedWindow(capacity),
        algorithm=algorithm,
        cells_per_axis=6,
    )
    queries = []
    for index, epsilon in enumerate([0.02, 0.05, 0.2, 0.5]):
        weights = [rng.uniform(0.1, 1.0) for _ in range(dims)]
        function = (
            LinearFunction(weights)
            if index % 2 == 0
            else ProductFunction(weights)
        )
        query = TopKQuery(function, k=rng.randrange(1, 12))
        handle = monitor.add_query(
            query, accuracy=Accuracy(epsilon=epsilon, delta=0.01)
        )
        queries.append((handle, query))

    held = []
    next_id = 0
    checked = 0
    for cycle in range(cycles):
        rate = rng.randrange(5, 25)
        records = make_records(
            random_rows(rng, rate, dims), start_id=next_id, time=float(cycle)
        )
        next_id += rate
        report = monitor.process(records)
        held = (held + records)[-capacity:]
        for handle, query in queries:
            assert keys(handle.result()) == keys(brute_top_k(held, query))
            change = report.changes.get(int(handle))
            if change is not None:
                assert change.bound == 0.0
            checked += bool(handle.result())
    monitor.close()
    return checked


@pytest.mark.parametrize("algorithm", ["tma", "sma", "tsl", "brute"])
def test_contract_holds_on_random_streams(algorithm):
    checked = sum(
        run_contracted_stream(algorithm, seed) for seed in range(3)
    )
    assert checked > 200


@pytest.mark.parametrize("algorithm", ["tma", "sma", "tsl", "brute"])
def test_churny_stream_with_tiny_window(algorithm):
    """A window barely larger than k forces recomputation traffic."""
    for seed in range(2):
        run_contracted_stream(algorithm, seed + 100, capacity=20, cycles=40)


@pytest.mark.parametrize("shards", [None, 2], ids=["inproc", "pipe2"])
class TestLifecycle:
    def make_monitor(self, shards):
        return StreamMonitor(
            DIMS,
            CountBasedWindow(WINDOW),
            algorithm="sma",
            cells_per_axis=4,
            shards=shards,
        )

    def feed(self, monitor, seed, start=0, cycles=4):
        rng = random.Random(seed)
        return [
            monitor.process(
                monitor.make_records(
                    [[rng.random() for _ in range(DIMS)] for _ in range(6)],
                    time_=float(start + cycle),
                )
            )
            for cycle in range(cycles)
        ]

    def test_update_keeps_the_contract(self, shards):
        monitor = self.make_monitor(shards)
        try:
            held = monitor.add_query(
                TopKQuery(LinearFunction([1.0, 0.5]), k=2),
                accuracy=Accuracy(epsilon=0.05),
            )
            self.feed(monitor, seed=1, cycles=2)
            held.update(k=4, weights=[0.3, 1.0])
            assert held.accuracy == Accuracy(epsilon=0.05)
            twin = monitor.add_query(
                TopKQuery(LinearFunction([0.3, 1.0]), k=4)
            )
            for report in self.feed(monitor, seed=2, start=2):
                change = report.changes.get(int(held))
                if change is not None:
                    assert change.bound == 0.0
            assert keys(held.result()) == keys(twin.result())
        finally:
            monitor.close()

    def test_cancel_contracted_query(self, shards):
        monitor = self.make_monitor(shards)
        try:
            held = monitor.add_query(
                TopKQuery(LinearFunction([1.0, 1.0]), k=2),
                accuracy=Accuracy(epsilon=0.05),
            )
            free = monitor.add_query(
                TopKQuery(LinearFunction([1.0, 1.0]), k=2)
            )
            self.feed(monitor, seed=3, cycles=2)
            held.cancel()
            assert held.cancelled
            for report in self.feed(monitor, seed=4, start=2):
                assert int(held) not in report.changes
                change = report.changes.get(int(free))
                if change is not None:
                    assert change.bound is None
        finally:
            monitor.close()


class TestRouting:
    def make_monitor(self):
        return StreamMonitor(
            DIMS, CountBasedWindow(WINDOW), algorithm="sma", cells_per_axis=4
        )

    def test_threshold_query_refuses_a_contract(self):
        monitor = self.make_monitor()
        with pytest.raises(QueryError):
            monitor.add_query(
                ThresholdQuery(LinearFunction([1.0, 1.0]), threshold=0.5),
                accuracy=Accuracy(epsilon=0.05),
            )
        assert len(monitor.query_table) == 0

    def test_constrained_query_takes_a_contract(self):
        monitor = self.make_monitor()
        handle = monitor.add_query(
            ConstrainedTopKQuery(
                LinearFunction([1.0, 1.0]),
                k=2,
                constraint=Rectangle((0.0, 0.0), (0.5, 0.5)),
            ),
            accuracy=Accuracy(epsilon=0.05),
        )
        report = monitor.process(
            monitor.make_records([[0.2, 0.3], [0.9, 0.9]])
        )
        assert keys(report.changes[int(handle)].top) == keys(handle.result())
        assert report.changes[int(handle)].bound == 0.0

    def test_add_queries_applies_one_contract(self):
        monitor = self.make_monitor()
        handles = monitor.add_queries(
            [TopKQuery(LinearFunction([1.0, w]), k=2) for w in (0.5, 2.0)],
            accuracy=Accuracy(epsilon=0.1),
        )
        report = monitor.process(monitor.make_records([[0.4, 0.6]]))
        assert [report.changes[int(h)].bound for h in handles] == [0.0, 0.0]

    def test_non_cycle_changes_carry_no_bound(self):
        monitor = self.make_monitor()
        monitor.process(monitor.make_records([[0.4, 0.6], [0.7, 0.1]]))
        stream = monitor.changes()
        handle = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 1.0]), k=1),
            accuracy=Accuracy(epsilon=0.1),
        )
        handle.update(k=2)
        assert [(c.cause, c.bound) for c in stream] == [
            ("register", None),
            ("update", None),
        ]


class TestService:
    def test_wire_spec_keeps_the_contract(self):
        query = TopKQuery(LinearFunction([0.25, 0.75]), k=3)
        query.accuracy = Accuracy(epsilon=0.05, delta=0.001)
        spec = query_to_wire(query)
        assert spec["accuracy"] == {"epsilon": 0.05, "delta": 0.001}
        assert query_from_wire(spec).accuracy == query.accuracy
        plain = query_to_wire(TopKQuery(LinearFunction([1.0, 1.0]), k=2))
        assert "accuracy" not in plain

    def test_round_trip_keeps_accuracy_and_bound(self):
        self.round_trip(shards=None)

    def test_round_trip_over_a_sharded_monitor(self):
        self.round_trip(shards=2)

    def round_trip(self, shards):
        monitor = StreamMonitor(
            DIMS,
            CountBasedWindow(WINDOW),
            algorithm="tma",
            cells_per_axis=4,
            shards=shards,
        )
        server = MonitorServer(monitor, default_maxlen=64)
        host, port = server.start()
        client = MonitorClient(host, port)
        try:
            held = client.add_query(
                weights=[1.0, 0.5], k=2, accuracy=Accuracy(epsilon=0.05)
            )
            free = client.add_query(weights=[1.0, 0.5], k=2)
            assert monitor.handle(held.qid).accuracy == Accuracy(
                epsilon=0.05
            )
            held_stream = held.subscribe()
            free_stream = free.subscribe()
            client.process([[0.3, 0.9], [0.8, 0.2]], now=1.0)
            mine = held_stream.get(timeout=10.0)
            theirs = free_stream.get(timeout=10.0)
            assert (mine.cause, mine.bound) == ("cycle", 0.0)
            assert (theirs.cause, theirs.bound) == ("cycle", None)
            assert keys(mine.top) == keys(theirs.top)
        finally:
            client.close()
            server.stop()
            monitor.close()


class TestWire:
    """A bound of 0 is a value, not an absence: it survives every wire."""

    def entry(self):
        return ResultEntry(1.0, RecordFactory().make((0.5, 0.5)))

    def test_service_change_keeps_a_zero_bound(self):
        entry = self.entry()
        change = ResultChange(qid=4, added=[entry], top=[entry], bound=0.0)
        spec = change_to_wire(change)
        assert spec["bound"] == 0.0
        back = change_from_wire(spec, {})
        assert (back.cause, back.bound) == ("cycle", 0.0)
        # The delta form carries the bound too.
        delta = change_to_wire(change, full=False)
        assert delta["bound"] == 0.0
        assert change_from_wire(delta, {4: []}).bound == 0.0

    def test_service_change_without_contract_omits_bound(self):
        spec = change_to_wire(ResultChange(qid=4, cause="cycle"))
        assert "bound" not in spec
        assert change_from_wire(spec, {}).bound is None

    def test_uncontracted_query_keeps_v1_shape(self):
        spec = query_to_wire(TopKQuery(LinearFunction([1.0, 1.0]), k=2))
        assert "accuracy" not in spec
        assert query_from_wire(spec).accuracy is None

    def test_shard_query_keeps_the_contract(self):
        query = TopKQuery(LinearFunction([0.5, 0.5]), k=2)
        query.accuracy = Accuracy(epsilon=0.1)
        query.qid = 7
        back = codec.shard_query_from_wire(codec.shard_query_to_wire(query))
        assert back.qid == 7
        assert back.accuracy == query.accuracy

    def test_shard_cycle_reply_leaves_the_bound_to_the_engine(self):
        """A shard reply carries ``(score, rid)`` columns and no bound;
        the coordinator's changes come back uncertified and
        ``StreamMonitor`` certifies them (the sharded runs of
        ``test_contract_is_met_exactly`` check the 0.0 that results)."""
        entry = self.entry()
        changes = {
            1: ResultChange(qid=1, added=[entry], top=[entry], bound=0.0)
        }
        header, blocks = codec.encode_reply(
            "cycle", (change_columns(changes), {}, None)
        )
        assert header == {"ok": True, "counters": {}}
        _, (columns, _, _) = codec.decode_reply("cycle", (header, blocks))
        resolved = resolve_changes(
            columns, store_holding([entry.record]), {1: []}
        )
        assert resolved[1].bound is None
        assert resolved[1].top == [entry]

    def test_shard_cycle_request_carries_records_only(self):
        frame = codec.encode_cycle_request(
            arrival_columns(make_records([(0.1, 0.9)])), [5]
        )
        header, blocks = codec.decode_body(
            memoryview(frame)[codec.HEADER_BYTES:]
        )
        assert set(header) == {"op", "dims"}
        assert len(blocks) == 4
