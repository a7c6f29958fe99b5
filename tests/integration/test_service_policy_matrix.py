"""Rebuilt ``top`` equals ``result()`` under every delivery policy.

Protocol revision 2 sends most changes as deltas and the client
rebuilds each ``top`` from the one it holds. Each overflow policy
reaches that rebuild differently, so each is replayed over a real
:class:`MonitorServer`:

- ``block``: every change arrives; the query lifecycle (update of
  ``k`` and of the weights, pause/resume, cancel) rides along.
- ``drop_oldest`` with a forced drop: the delivery is held while more
  cycles run than its queue holds, so changes are lost; the next event
  of each query must come full (re-primed) and every later delta
  applies to it.
- ``coalesce`` with a forced overflow: the held backlog collapses into
  ``resync`` changes, one of them folding in a weight update that
  rescores the entries the client holds.

After the hub flushes (and a ping on the subscriber's socket proves
every event before it was read), the ``top`` of each stream's last
change must equal the pulled ``result()`` bitwise. The module runs
again under the pure-Python batch backend.
"""

import random

import pytest

from repro.core.engine import StreamMonitor
from repro.core.window import CountBasedWindow
from repro.service import MonitorClient, MonitorServer

from tests.conftest import rerun_under_python_backend

WEIGHTS = [[1.0, 1.0], [1.0, 0.25], [0.25, 1.0], [1.0, -0.5]]


def keys(entries):
    return [(entry.score.hex(), entry.record) for entry in entries]


@pytest.fixture
def served():
    monitor = StreamMonitor(
        2, CountBasedWindow(60), algorithm="tma", cells_per_axis=4
    )
    server = MonitorServer(monitor)
    server.start()
    client = MonitorClient(*server.address)
    yield monitor, server, client
    client.close()
    server.stop()
    monitor.close()


class Ingest:
    """Random rows, plus one row per cycle that beats every earlier
    one under positive weights, so every such query changes."""

    def __init__(self, server, seed):
        self.server = server
        self.rng = random.Random(seed)
        self.cycle = 0

    def run(self, cycles):
        for _ in range(cycles):
            self.cycle += 1
            best = 1.0 - 0.5 ** (self.cycle + 1)
            rows = [
                (self.rng.random() * 0.5, self.rng.random() * 0.5)
                for _ in range(6)
            ] + [(best, best)]
            self.server.process(rows, now=float(self.cycle))


def delivery_of(server, stream):
    (found,) = [
        delivery
        for delivery in server.hub.deliveries()
        if delivery.name.startswith(f"sub{stream.sub}@")
    ]
    return found


def last_tops(server, client, streams):
    """qid -> the ``top`` of its last change, over every stream."""
    assert server.hub.flush(timeout=30)
    assert client.ping()  # every event before the pong has been read
    tops = {}
    for stream in streams:
        while True:
            change = stream.get(timeout=0)
            if change is None:
                break
            tops[(stream.sub, change.qid)] = change.top
    return tops


def check(server, client, streams, handles, tops=None):
    tops = last_tops(server, client, streams) if tops is None else tops
    for (sub, qid), top in tops.items():
        if qid in handles:
            assert keys(top) == keys(handles[qid].result()), (sub, qid)
    return tops


def register(client, ingest):
    ingest.run(3)
    return {
        handle.qid: handle
        for handle in (client.add_query(weights=w, k=3) for w in WEIGHTS)
    }


def test_block_policy_rebuilds_through_the_query_lifecycle(served):
    monitor, server, client = served
    ingest = Ingest(server, seed=1)
    everything = client.subscribe(policy="block", maxlen=4)
    handles = register(client, ingest)
    qids = sorted(handles)
    one = handles[qids[0]].subscribe(policy="block", maxlen=4)
    streams = [everything, one]
    ingest.run(8)
    handles[qids[0]].update(k=5)
    handles[qids[1]].update(weights=[0.5, 1.0])  # rescores held entries
    check(server, client, streams, handles)
    handles[qids[2]].pause()
    ingest.run(4)
    handles[qids[2]].resume()
    ingest.run(4)
    tops = check(server, client, streams, handles)
    assert {qid for _, qid in tops} == set(qids)
    cancelled = qids[3]
    handles.pop(cancelled).cancel()
    ingest.run(3)
    tops = check(server, client, streams, handles)
    assert tops[(everything.sub, cancelled)] == []
    assert one.closed is False
    handles[qids[0]].cancel()
    assert last_tops(server, client, [one])[(one.sub, qids[0])] == []


def test_drop_oldest_reprimes_after_a_forced_drop(served):
    monitor, server, client = served
    ingest = Ingest(server, seed=2)
    handles = register(client, ingest)
    streams = [
        handle.subscribe(policy="drop_oldest", maxlen=2)
        for handle in handles.values()
    ]
    ingest.run(3)
    check(server, client, streams, handles)
    deliveries = [delivery_of(server, stream) for stream in streams]
    for delivery in deliveries:
        delivery.hold()
    ingest.run(7)  # every positive-weight query changes each cycle
    for delivery in deliveries:
        delivery.release()
    tops = check(server, client, streams, handles)
    assert sum(delivery.dropped for delivery in deliveries) > 0
    assert len(tops) == len(streams)
    # Deltas go on applying to the re-primed state.
    ingest.run(5)
    check(server, client, streams, handles)
    assert all(not stream.closed for stream in streams)


def test_coalesce_overflow_folds_a_rescoring_update(served):
    monitor, server, client = served
    ingest = Ingest(server, seed=3)
    everything = client.subscribe(policy="coalesce", maxlen=2)
    handles = register(client, ingest)
    ingest.run(3)
    check(server, client, [everything], handles)
    delivery = delivery_of(server, everything)
    delivery.hold()
    ingest.run(4)
    # Kept entries change score: a resync folding this must go full.
    handles[min(handles)].update(weights=[0.75, 1.0])
    delivery.release()
    tops = check(server, client, [everything], handles)
    assert delivery.coalesced > 0
    assert {qid for _, qid in tops} == set(handles)
    ingest.run(5)
    check(server, client, [everything], handles)
    assert not everything.closed


def test_policy_matrix_under_python_backend():
    rerun_under_python_backend(__file__)
