"""The record store against a dict-of-records model.

:class:`~repro.core.window.RecordStore` holds each valid record once,
in slot-indexed columns with a FIFO free list; the window, the grid
and the algorithms all read it by slot. A Hypothesis state machine
drives a monitor under each stream model — count window, time window,
explicit deletions — through single cycles, record-list and columnar
batches, and pipelined ``process_many`` runs, and after every step
holds the store to a plain ``rid -> record`` dict:

- the store's index, columns and built records equal the model;
- every slot is either indexed or free, exactly once (free-list
  reuse never loses or doubles a slot);
- TMA (cells over slots) and a brute force that runs each cycle only
  after the engine ingested the next batch (as a sharded coordinator
  does under ``process_many``) both match brute force over the model
  bitwise — so no cycle ever read a slot a later batch refilled.

The file is re-run under the pure-Python batch backend, where a
gather is a loop.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.algorithms.brute import BruteForceAlgorithm
from repro.core.engine import StreamMonitor
from repro.core.queries import TopKQuery
from repro.core.scoring import LinearFunction
from repro.core.tuples import StreamRecord
from repro.core.window import (
    CountBasedWindow,
    RecordBatch,
    Slots,
    TimeBasedWindow,
)

from tests.conftest import brute_top_k, rerun_under_python_backend

DIMS = 2
CAPACITY = 6
DURATION = 2.0

#: a coarse lattice, so scores tie and ties break on rid.
VALUE = st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0])
ROWS = st.lists(st.tuples(VALUE, VALUE), max_size=5)
WEIGHTS = st.tuples(
    st.sampled_from([0.25, 0.5, 1.0]), st.sampled_from([0.25, 0.5, 1.0])
)


class DeferredBrute(BruteForceAlgorithm):
    """Brute force that runs a cycle only when it is finished — after
    the engine ingested the next batch, as a sharded coordinator does
    under pipelined ``process_many``."""

    supports_pipelining = True

    def prepare_cycle(self, arrivals, expirations):
        return Slots(arrivals), Slots(expirations)

    def begin_cycle(self, prepared):
        self._pending = prepared

    def finish_cycle(self):
        arrivals, expirations = self._pending
        return self.process_cycle(arrivals, expirations)


def key_of(entries):
    return [(entry.score.hex(), entry.rid) for entry in entries]


class StoreMachine(RuleBasedStateMachine):
    """One stream model; subclasses pick it."""

    kind = "count"

    @initialize()
    def build(self):
        self.now = 0.0
        #: rid -> record, the valid set.
        self.model = {}
        self.monitors = []
        for algorithm in ("tma", DeferredBrute(DIMS)):
            if self.kind == "update":
                window, model = None, "update"
            elif self.kind == "time":
                window, model = TimeBasedWindow(DURATION), "window"
            else:
                window, model = CountBasedWindow(CAPACITY), "window"
            self.monitors.append(
                StreamMonitor(
                    DIMS,
                    window,
                    algorithm=algorithm,
                    cells_per_axis=3,
                    stream_model=model,
                )
            )
        self.handles = [[] for _ in self.monitors]
        self.queries = []

    def teardown(self):
        for monitor in getattr(self, "monitors", ()):
            monitor.close()

    # -- the model -----------------------------------------------------

    def expire(self):
        """Apply the window policy to the model after a cycle."""
        if self.kind == "count":
            for rid in sorted(self.model)[: max(0, len(self.model) - CAPACITY)]:
                del self.model[rid]
        elif self.kind == "time":
            for rid, record in list(self.model.items()):
                if record.time + DURATION <= self.now:
                    del self.model[rid]

    def mint(self, rows, as_records):
        """The same batch for every monitor (their id counters agree)."""
        batches = [
            monitor.make_records(rows, time_=self.now)
            for monitor in self.monitors
        ]
        if as_records:
            batches = [list(batch) for batch in batches]
        for record in batches[0]:
            if self.kind != "time" or record.time + DURATION > self.now:
                self.model[record.rid] = record
        return batches

    # -- steps ---------------------------------------------------------

    @rule(rows=ROWS, step=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
          as_records=st.booleans())
    def process(self, rows, step, as_records):
        if self.kind == "time":
            self.now += step
        batches = self.mint(rows, as_records)
        for monitor, batch in zip(self.monitors, batches):
            monitor.process(batch, now=self.now)
        self.expire()

    @precondition(lambda self: self.kind != "update")
    @rule(runs=st.lists(ROWS, min_size=1, max_size=4))
    def process_many(self, runs):
        nows, per_monitor = [], [[] for _ in self.monitors]
        for rows in runs:
            if self.kind == "time":
                self.now += 1.0
            nows.append(self.now)
            for batches, batch in zip(per_monitor, self.mint(rows, False)):
                batches.append(batch)
            self.expire()
        for monitor, batches in zip(self.monitors, per_monitor):
            monitor.process_many(batches, nows=nows)

    @precondition(lambda self: self.kind == "time")
    @rule(step=st.sampled_from([0.5, 1.0, 3.0]))
    def advance(self, step):
        self.now += step
        for monitor in self.monitors:
            monitor.advance(self.now)
        self.expire()

    @precondition(lambda self: self.kind == "update")
    @rule(data=st.data(), rows=ROWS)
    def delete(self, data, rows):
        """Delete some valid records and, often, one of the batch's
        own arrivals (a hole in the middle of the slot run)."""
        batches = self.mint(rows, False)
        doomed = data.draw(
            st.lists(st.sampled_from(sorted(self.model)), unique=True)
            if self.model
            else st.just([])
        )
        for monitor, batch in zip(self.monitors, batches):
            deletions = [self.model[rid] for rid in doomed]
            monitor.process(batch, deletions=deletions)
        for rid in doomed:
            del self.model[rid]

    @rule(weights=WEIGHTS, k=st.integers(1, 4))
    def add_query(self, weights, k):
        query = TopKQuery(LinearFunction(list(weights)), k)
        self.queries.append(query)
        for handles, monitor in zip(self.handles, self.monitors):
            handles.append(
                monitor.add_query(TopKQuery(LinearFunction(list(weights)), k))
            )

    # -- invariants ----------------------------------------------------

    @invariant()
    def store_equals_model(self):
        if not hasattr(self, "model"):
            return
        for monitor in self.monitors:
            store = monitor.store
            assert sorted(store.index) == sorted(self.model)
            assert monitor.valid_count == len(self.model)
            for rid, record in self.model.items():
                got = store.record_of(rid)
                assert (got.rid, got.time) == (record.rid, record.time)
                assert [v.hex() for v in got.attrs] == [
                    float(v).hex() for v in record.attrs
                ]
            indexed = sorted(store.index.values())
            free = sorted(store._free)
            assert sorted(indexed + free) == list(range(len(store.rids)))

    @invariant()
    def results_equal_brute_force(self):
        if not hasattr(self, "model"):
            return
        valid = list(self.model.values())
        for query, *handles in zip(self.queries, *self.handles):
            want = key_of(brute_top_k(valid, query))
            for handle in handles:
                assert key_of(handle.result()) == want


class CountWindowStore(StoreMachine):
    kind = "count"


class TimeWindowStore(StoreMachine):
    kind = "time"


class UpdateModelStore(StoreMachine):
    kind = "update"


SETTINGS = settings(
    max_examples=30,
    stateful_step_count=12,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestCountWindowStore = CountWindowStore.TestCase
TestCountWindowStore.settings = SETTINGS
TestTimeWindowStore = TimeWindowStore.TestCase
TestTimeWindowStore.settings = SETTINGS
TestUpdateModelStore = UpdateModelStore.TestCase
TestUpdateModelStore.settings = SETTINGS


def test_a_removed_entry_keeps_its_record_after_its_slot_is_refilled():
    """A change's ``removed`` entry holds its own record: refilling the
    slot the record lived in changes nothing it carries."""
    monitor = StreamMonitor(
        DIMS, CountBasedWindow(2), algorithm="tma", cells_per_axis=3
    )
    handle = monitor.add_query(TopKQuery(LinearFunction([1.0, 1.0]), 1))
    monitor.process(monitor.make_records([(0.9, 0.9), (0.1, 0.1)]))
    (best,) = handle.result()
    slot = monitor.store.index[best.rid]
    report = monitor.process(monitor.make_records([(0.2, 0.2), (0.3, 0.3)]))
    (removed,) = report.changes[handle.qid].removed
    assert removed.rid == best.rid
    # The next batch takes the slots this cycle expired, ``slot`` too.
    monitor.process(monitor.make_records([(0.4, 0.6), (0.7, 0.5)]))
    assert best.rid not in monitor.store.index
    assert monitor.store.rids[slot] != best.rid
    assert monitor.store.record(slot).attrs != (0.9, 0.9)
    assert removed.record == StreamRecord(best.rid, (0.9, 0.9), 0.0)
    assert removed.score == 1.8


def test_a_record_batch_reads_like_the_records_it_holds():
    rows = [(0.25, 0.5), (1.0, 0.0)]
    batch = RecordBatch.of_rows(7, rows, 3.0)
    records = [StreamRecord(7, rows[0], 3.0), StreamRecord(8, rows[1], 3.0)]
    assert len(batch) == 2
    assert list(batch) == records == batch
    assert batch[1] == records[1] and batch[-1] == records[1]
    assert batch[:1] == records[:1]
    assert all(type(value) is float for value in batch[0].attrs)
    assert batch + [records[0]] == records + records[:1]


def test_python_backend_subprocess():
    rerun_under_python_backend(__file__)
