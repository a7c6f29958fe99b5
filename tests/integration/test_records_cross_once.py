"""Records cross the shard channel once — parity where the maps can go wrong.

Shards are sent the *ids* of expiring records and reply with
``(score, rid)`` columns; the coordinator resolves added rids through
its record store and removed rids through its cached results, and
rebuilds each ``top`` itself. Each case below is where one of those
maps could go wrong, compared bitwise (``score.hex()``, the record,
``top``) against an in-process twin over two pipe shards and over two
TCP shard hosts:

- the update model, with a record inserted and deleted in one batch;
- pipelined ``process_many`` where every record that enters a result
  at cycle t expires at t+1;
- a registration late in the stream, whose initial result is old
  records;
- threshold queries with large member sets.

Then a Hypothesis round trip of a worker's change report through the
rev-6 reply columns and the coordinator's resolve, and the typed
refusals of the coordinator and the worker.
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import local_shard_hosts
from repro.core.engine import StreamMonitor
from repro.core.errors import StreamError
from repro.core.queries import ThresholdQuery, TopKQuery
from repro.core.results import ResultEntry, diff_results, entries_best_first
from repro.core.scoring import LinearFunction
from repro.core.tuples import RecordFactory, StreamRecord
from repro.core.window import CountBasedWindow, Slots
from repro.parallel.sharded import ShardedMonitorAlgorithm, resolve_changes
from repro.parallel.worker import change_columns
from repro.service.protocol import ProtocolError
from repro.transport import codec

from tests.conftest import store_holding

DIMS = 2


@pytest.fixture(scope="module")
def tcp_hosts():
    with local_shard_hosts(2, once=False) as addresses:
        yield addresses


@pytest.fixture(params=["pipe", "tcp"])
def shards(request, tcp_hosts):
    return 2 if request.param == "pipe" else tcp_hosts


def keys(entries):
    return [(entry.score.hex(), entry.record) for entry in entries]


def signature(report):
    return {
        qid: (
            keys(change.added),
            keys(change.removed),
            keys(change.top),
            change.cause,
            change.bound,
        )
        for qid, change in report.changes.items()
    }


def rows(rng, count):
    return [[rng.random() for _ in range(DIMS)] for _ in range(count)]


def query_specs(rng, count, threshold):
    specs = [
        TopKQuery(
            LinearFunction([rng.uniform(0.1, 1.0) for _ in range(DIMS)]),
            k=rng.choice([1, 3, 8]),
        )
        for _ in range(count)
    ]
    # A low threshold keeps most of the window in the member set.
    specs.append(ThresholdQuery(LinearFunction([0.5, 0.5]), threshold))
    return specs


class Twins:
    """An in-process monitor and a sharded one, fed the same records."""

    def __init__(self, algorithm, shards, capacity=None, **options):
        self.monitors = [
            StreamMonitor(
                DIMS,
                None if capacity is None else CountBasedWindow(capacity),
                algorithm=algorithm,
                cells_per_axis=5,
                shards=placement,
                **options,
            )
            for placement in (None, shards)
        ]
        self.qids = []

    def add(self, queries):
        mono, sharded = (
            [int(handle) for handle in monitor.add_queries(
                [copy.copy(query) for query in queries]
            )]
            for monitor in self.monitors
        )
        assert mono == sharded
        self.qids += mono
        self.assert_results(f"registration of {mono}")

    def assert_results(self, context):
        mono, sharded = self.monitors
        for qid in self.qids:
            assert keys(sharded.result(qid)) == keys(mono.result(qid)), (
                f"{context}: query {qid} diverged"
            )

    def assert_reports(self, mono_reports, sharded_reports, context):
        assert len(mono_reports) == len(sharded_reports)
        moved = 0
        for cycle, want in enumerate(mono_reports):
            got = sharded_reports[cycle]
            assert signature(got) == signature(want), f"{context}, {cycle}"
            moved += len(want.changes)
        assert moved, f"{context}: no result moved"
        self.assert_results(context)

    def close(self):
        for monitor in self.monitors:
            monitor.close()


@pytest.mark.parametrize("algorithm", ["tma", "sma", "tsl", "brute"])
def test_window_stream_parity(algorithm, shards):
    """Pipelined cycles whose every record lives one cycle, a late
    registration, then cycles whose records live three, with a
    threshold query holding most of the window throughout."""
    rng = random.Random(17)
    capacity = 120
    twins = Twins(algorithm, shards, capacity=capacity)
    try:
        twins.add(query_specs(rng, 6, threshold=0.2))

        def run(batch_size, cycles, start, context):
            batches = [rows(rng, batch_size) for _ in range(cycles)]
            reports = [
                monitor.process_many(
                    [
                        monitor.make_records(batch, time_=float(start + index))
                        for index, batch in enumerate(batches)
                    ]
                )
                for monitor in twins.monitors
            ]
            twins.assert_reports(*reports, context)

        # A batch the size of the window: a record that enters a result
        # at cycle t expires at t+1, whose snapshot is prepared before
        # cycle t's replies are merged.
        run(capacity, 6, 0, "one-cycle lifetimes")
        twins.add(query_specs(rng, 4, threshold=0.3))  # old records only
        run(capacity // 3, 9, 6, "three-cycle lifetimes")
    finally:
        twins.close()


@pytest.mark.parametrize("algorithm", ["tma", "tsl", "brute"])
def test_update_stream_parity(algorithm, shards):
    """Explicit deletions, each batch deleting one of its own records
    (the best-scoring one, so it would have entered results) besides
    older ones. SMA refuses the update model."""
    rng = random.Random(23)
    factory = RecordFactory()
    twins = Twins(algorithm, shards, stream_model="update")
    try:
        twins.add(query_specs(rng, 6, threshold=0.3))
        live = []
        reports = ([], [])
        for cycle in range(12):
            inserted = [
                factory.make(row, float(cycle)) for row in rows(rng, 30)
            ]
            doomed = rng.sample(live, min(8, len(live)))
            doomed.append(max(inserted, key=lambda record: sum(record.attrs)))
            for monitor, into in zip(twins.monitors, reports):
                into.append(monitor.process(inserted, deletions=doomed))
            gone = {record.rid for record in doomed}
            live = [
                record for record in live + inserted if record.rid not in gone
            ]
        twins.assert_reports(*reports, "update stream")
    finally:
        twins.close()


# ----------------------------------------------------------------------
# Property: worker change report -> rev-6 columns -> frame -> resolve
# ----------------------------------------------------------------------

finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.7976931348623157e308]),
)


@st.composite
def worker_cycles(draw):
    """``(window, previous results, {qid: ResultChange})`` the way an
    algorithm reports them: every result best-first, a record scoring
    the same in both results of its query, unchanged queries left
    out."""
    rids = draw(
        st.lists(
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            min_size=1, max_size=12, unique=True,
        )
    )
    window = {
        rid: StreamRecord(rid, (draw(finite), draw(finite)), draw(finite))
        for rid in rids
    }
    previous, changes = {}, {}
    qids = draw(st.lists(st.integers(0, 2**40), max_size=4, unique=True))
    for qid in qids:
        scores = {rid: draw(finite) for rid in rids}

        def result(members):
            return entries_best_first(
                [ResultEntry(scores[rid], window[rid]) for rid in members]
            )

        members = st.lists(st.sampled_from(rids), unique=True)
        previous[qid] = result(draw(members))
        change = diff_results(qid, previous[qid], result(draw(members)))
        if change.changed:
            changes[qid] = change
    return window, previous, changes


def hexed(entries):
    return [(entry.score.hex(), entry.rid) for entry in entries]


@settings(max_examples=200, deadline=None)
@given(worker_cycles())
def test_a_change_report_survives_columns_frame_and_resolve(cycle):
    window, previous, changes = cycle
    frame = codec.frame_message(
        codec.encode_reply("cycle", (change_columns(changes), {}, None))
    )
    status, (columns, _, _) = codec.decode_reply(
        "cycle", codec.decode_body(memoryview(frame)[codec.HEADER_BYTES:])
    )
    assert status == "ok"
    resolved = resolve_changes(
        columns, store_holding(list(window.values())), previous
    )
    assert list(resolved) == list(changes)
    for qid, want in changes.items():
        got = resolved[qid]
        assert (got.qid, got.cause, got.bound) == (qid, "cycle", None)
        for name in ("added", "removed", "top"):
            entries = getattr(got, name)
            assert hexed(entries) == hexed(getattr(want, name)), name
            assert all(entry.record is window[entry.rid] for entry in entries)


# ----------------------------------------------------------------------
# Typed refusals
# ----------------------------------------------------------------------


def small_window():
    return {rid: StreamRecord(rid, (rid / 10, 0.5), 0.0) for rid in range(6)}


def cached(window, *rids):
    return [ResultEntry(window[rid].attrs[0], window[rid]) for rid in rids]


@pytest.mark.parametrize(
    "columns, message",
    [
        (([1], [1], [0], [0.5], [99], []), "record id 99, which is not in"),
        (([1], [0], [1], [], [], [4]), "removes record id 4, which its"),
        (([1], [2], [0], [0.5, 0.4], [3, 3], []), "repeats a record id"),
        (([1], [0], [2], [], [], [2, 2]), "removes record id 2, which its"),
        (([1], [1], [0], [0.9], [1], []), "repeats a record id"),
        (([1], [1], [1], [0.9], [2], [2]), "repeats a record id"),
        (([1], [2], [0], [0.3, 0.4], [3, 4], []), "out of best-first order"),
        (([1], [2], [0], [0.3, 0.3], [3, 4], []), "out of best-first order"),
        (([9], [0], [0], [], [], []), "query 9, which is not registered"),
        (([1, 1], [0, 0], [0, 0], [], [], []), "already changed"),
    ],
)
def test_resolve_refuses_what_the_maps_cannot_hold(columns, message):
    window = small_window()
    results = {1: cached(window, 2, 1)}
    snapshot = {qid: list(entries) for qid, entries in results.items()}
    with pytest.raises(ProtocolError, match=message):
        resolve_changes(columns, store_holding(list(window.values())), results)
    assert results == snapshot


def test_a_refused_reply_leaves_every_cached_result_as_it_was(monkeypatch):
    algo = ShardedMonitorAlgorithm("tma", DIMS, shards=2, cells_per_axis=4)
    try:
        rng = random.Random(5)
        queries = query_specs(rng, 8, threshold=0.5)[:-1]
        for qid, query in enumerate(queries):
            query.qid = qid
        algo.register_many(queries)
        factory = RecordFactory()
        algo.process_cycle(
            [factory.make(row, 0.0) for row in rows(rng, 40)], []
        )
        before = {query.qid: algo.current_result(query.qid)
                  for query in queries}
        owners = {0: [], 1: []}
        for query in queries:
            owners[algo.planner.shard_of(query.qid)].append(query.qid)
        first, second = owners[0][0], owners[1][0]
        valid = ([first], [0], [1], [], [], [before[first][0].rid])
        refused = ([second], [1], [0], [0.5], [10**9], [])
        algo.begin_cycle(algo.prepare_cycle([], []))
        monkeypatch.setattr(
            algo, "_recv_all", lambda: [(valid, {}, None), (refused, {}, None)]
        )
        with pytest.raises(ProtocolError, match="not in the window"):
            algo.finish_cycle()
        assert {qid: algo.current_result(qid) for qid in before} == before
    finally:
        algo.close()


def test_an_unknown_expired_rid_is_an_error_reply_naming_it(shards):
    algo = ShardedMonitorAlgorithm(
        "tma", DIMS, shards=shards, cells_per_axis=4
    )
    try:
        ghost = StreamRecord(4242, (0.5, 0.5), 0.0)
        with pytest.raises(StreamError, match="record 4242 is not in"):
            algo.process_cycle([], [ghost])  # refused by the coordinator
        # A record only the coordinator's store holds: the shards never
        # received it, so each refuses the expired id by name.
        with pytest.raises(StreamError) as failure:
            algo.process_cycle(Slots(), algo.store.add_records([ghost]))
        text = str(failure.value)
        assert "expired record id 4242 is not in this shard's store" in text
        assert "KeyError" not in text
    finally:
        algo.close()
