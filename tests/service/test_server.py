"""Server/client behaviour over real sockets (one host, ephemeral
ports): request surface, error taxonomy, subscription lifecycle,
stalled-subscriber isolation."""

import random
import socket
import threading
import time

import pytest

from repro.core.engine import StreamMonitor
from repro.core.errors import QueryError
from repro.core.queries import ThresholdQuery, TopKQuery
from repro.core.results import entries_best_first
from repro.core.scoring import LinearFunction
from repro.core.window import CountBasedWindow
from repro.service import MonitorClient, MonitorServer, protocol


@pytest.fixture
def served():
    monitor = StreamMonitor(
        2, CountBasedWindow(60), algorithm="tma", cells_per_axis=4
    )
    server = MonitorServer(monitor, default_maxlen=64)
    host, port = server.start()
    clients = []

    def connect(**kwargs):
        client = MonitorClient(host, port, **kwargs)
        clients.append(client)
        return client

    yield monitor, server, connect
    for client in clients:
        client.close()
    server.stop()
    monitor.close()


def rows(rng, count):
    return [(rng.random(), rng.random()) for _ in range(count)]


class TestRequestSurface:
    def test_hello_reports_runtime(self, served):
        monitor, server, connect = served
        client = connect()
        info = client.server_info
        assert info["server"] == "repro.service"
        assert info["protocol"] == protocol.PROTOCOL_VERSION
        assert info["algorithm"] == "tma"
        assert info["dims"] == 2
        assert client.ping()

    def test_full_handle_lifecycle_over_the_wire(self, served):
        rng = random.Random(2)
        monitor, server, connect = served
        client = connect()
        client.process(rows(rng, 30), now=0.0)
        handle = client.add_query(weights=[1.0, 0.7], k=4, label="lead")
        assert handle.result()  # initial result from the warm window
        client.process(rows(rng, 20), now=1.0)

        trimmed = handle.update(k=2)
        assert len(trimmed) == 2
        assert trimmed == handle.result()

        handle.pause()
        frozen = handle.result()
        client.process(rows(rng, 20), now=2.0)
        assert handle.result() == frozen  # paused = frozen snapshot
        resumed = handle.resume()
        assert resumed == handle.result()

        reweighted = handle.update(weights=[0.1, 2.0])
        assert reweighted == handle.result()

        handle.cancel()
        with pytest.raises(QueryError):
            handle.result()

    def test_remote_results_match_local_bitwise(self, served):
        rng = random.Random(3)
        monitor, server, connect = served
        client = connect()
        remote = client.add_query(weights=[0.9, 1.1], k=5)
        local = monitor.handle(remote.qid)
        for cycle in range(5):
            client.process(rows(rng, 25), now=float(cycle))
            assert remote.result() == local.result()

    def test_threshold_query_over_the_wire(self, served):
        rng = random.Random(4)
        monitor, server, connect = served
        client = connect()
        alarm = client.add_query(
            weights=[1.0, 1.0], threshold=1.6, label="alarm"
        )
        client.process([[0.9, 0.9], [0.2, 0.2], [0.85, 0.8]], now=0.0)
        rids = [entry.rid for entry in alarm.result()]
        assert rids == [0, 2]  # scores 1.8 and 1.65 clear 1.6

    def test_add_queries_batch_op(self, served):
        monitor, server, connect = served
        client = connect()
        reply = client.request(
            "add_queries",
            queries=[
                {"kind": "topk", "weights": [1.0, 0.5], "k": 2},
                {"kind": "topk", "weights": [0.5, 1.0], "k": 3},
            ],
        )
        qids = [item["qid"] for item in reply["queries"]]
        assert len(qids) == 2 and len(set(qids)) == 2
        assert len(monitor.handles()) == 2


class TestErrors:
    def test_unknown_qid_raises_query_error_remotely(self, served):
        monitor, server, connect = served
        client = connect()
        with pytest.raises(QueryError):
            client.request("result", qid=404)
        with pytest.raises(QueryError):
            client.subscribe(qid=404)

    def test_unknown_op_and_garbage_line(self, served):
        monitor, server, connect = served
        client = connect()
        with pytest.raises(protocol.ProtocolError):
            client.request("frobnicate")
        # A garbage line must not kill the connection.
        client._sock.sendall(b"this is not json\n")
        assert client.ping()

    def test_ingest_can_be_disabled(self):
        monitor = StreamMonitor(
            2, CountBasedWindow(40), algorithm="tma", cells_per_axis=4
        )
        server = MonitorServer(monitor, allow_ingest=False)
        host, port = server.start()
        try:
            client = MonitorClient(host, port)
            with pytest.raises(protocol.ProtocolError):
                client.process([[0.5, 0.5]])
            # The embedder-side path still works.
            report = server.process(rows=[[0.5, 0.5]], now=0.0)
            assert report.arrivals == 1
            client.close()
        finally:
            server.stop()
            monitor.close()

    def test_non_linear_update_rejected_without_side_effects(self, served):
        rng = random.Random(5)
        monitor, server, connect = served
        client = connect()
        handle = client.add_query(weights=[1.0, 1.0], k=3)
        client.process(rows(rng, 10), now=0.0)
        before = handle.result()
        with pytest.raises(QueryError):
            client.request("update", qid=handle.qid, k=0)
        assert handle.result() == before


class TestSubscriptions:
    def test_stream_replay_matches_pull(self, served):
        rng = random.Random(6)
        monitor, server, connect = served
        client = connect()
        handle = client.add_query(weights=[1.0, 0.4], k=3)
        stream = handle.subscribe()
        state = {entry.rid: entry for entry in handle.result()}
        for cycle in range(6):
            client.process(rows(rng, 15), now=float(cycle))
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            change = stream.get(timeout=0.2)
            if change is None and server.hub.flush(timeout=1):
                if stream.pending == 0:
                    break
            if change is not None:
                for entry in change.removed:
                    del state[entry.rid]
                for entry in change.added:
                    state[entry.rid] = entry
        assert entries_best_first(state.values()) == handle.result()

    def test_unsubscribe_closes_stream(self, served):
        rng = random.Random(7)
        monitor, server, connect = served
        client = connect()
        handle = client.add_query(weights=[1.0, 1.0], k=2)
        stream = handle.subscribe()
        stream.close()
        client.process(rows(rng, 10), now=0.0)
        assert stream.get(timeout=1.0) is None
        assert stream.closed

    def test_cancel_sends_final_delta_then_closes(self, served):
        rng = random.Random(8)
        monitor, server, connect = served
        client = connect()
        handle = client.add_query(weights=[1.0, 1.0], k=2)
        stream = handle.subscribe()
        client.process(rows(rng, 10), now=0.0)
        handle.cancel()
        causes = []
        while True:
            change = stream.get(timeout=5.0)
            if change is None:
                break
            causes.append(change.cause)
        assert causes[-1] == "cancel"
        assert stream.closed

    def test_cancel_of_one_query_keeps_a_monitor_wide_subscription(
        self, served
    ):
        """Regression: the first cause="cancel" delta used to retire a
        subscribe-to-everything stream along with the cancelled query."""
        rng = random.Random(10)
        monitor, server, connect = served
        client = connect()
        fanin = client.subscribe()
        doomed = client.add_query(weights=[1.0, 0.2], k=2)
        kept = client.add_query(weights=[0.2, 1.0], k=2)
        client.process(rows(rng, 10), now=0.0)
        doomed.cancel()
        client.process(rows(rng, 10), now=1.0)
        after_cancel = []
        cancelled = False
        while True:
            change = fanin.get(timeout=5.0)
            assert change is not None, "stream ended with the cancelled query"
            if cancelled:
                after_cancel.append((change.qid, change.cause))
                break
            cancelled = (change.qid, change.cause) == (doomed.qid, "cancel")
        assert after_cancel == [(kept.qid, "cycle")]
        assert not fanin.closed

    def test_monitor_wide_subscription(self, served):
        rng = random.Random(9)
        monitor, server, connect = served
        client = connect()
        fanin = client.subscribe()  # before any query exists
        first = client.add_query(weights=[1.0, 0.2], k=2)
        client.process(rows(rng, 10), now=0.0)
        second = client.add_query(weights=[0.2, 1.0], k=2)
        client.process(rows(rng, 10), now=1.0)
        seen = set()
        while True:
            change = fanin.get(timeout=2.0)
            if change is None:
                break
            seen.add((change.qid, change.cause))
            if (second.qid, "cycle") in seen or (
                len(seen) >= 4 and fanin.pending == 0
            ):
                if server.hub.flush(timeout=1) and fanin.pending == 0:
                    break
        assert (second.qid, "register") in seen
        assert any(qid == first.qid for qid, _ in seen)

    def test_stalled_subscriber_isolated_from_healthy(self, served):
        rng = random.Random(10)
        monitor, server, connect = served
        healthy = connect()
        handle = healthy.add_query(weights=[1.0, 1.0], k=3)
        stream = handle.subscribe(policy="coalesce", maxlen=4)

        # A raw socket that subscribes and then never reads again.
        host, port = server.address
        stalled = socket.create_connection((host, port))
        stalled.sendall(
            protocol.encode_line(
                {"id": 1, "op": "subscribe", "policy": "drop_oldest",
                 "maxlen": 2}
            )
        )
        time.sleep(0.2)  # let the subscription land

        cycle_times = []
        received = 0
        for cycle in range(12):
            started = time.perf_counter()
            healthy.process(rows(rng, 20), now=float(cycle))
            cycle_times.append(time.perf_counter() - started)
            if stream.get(timeout=2.0) is not None:
                received += 1
        # The healthy subscriber still sees deltas promptly and the
        # engine never waited on the stalled socket.
        assert received >= 8
        assert max(cycle_times) < 2.0
        stalled.close()

    def test_client_disconnect_reaps_subscriptions(self, served):
        rng = random.Random(11)
        monitor, server, connect = served
        client = connect()
        handle = client.add_query(weights=[1.0, 1.0], k=2)
        handle.subscribe()
        assert server.stats()["hub"]["deliveries"] == 1
        client.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if server.stats()["hub"]["deliveries"] == 0:
                break
            time.sleep(0.05)
        assert server.stats()["hub"]["deliveries"] == 0
        # The query itself survives its client.
        assert len(monitor.handles()) == 1


class TestLargeBatches:
    def test_large_ingest_batch_survives_line_framing(self, served):
        """Regression: a multi-MB process request must not trip
        asyncio's default 64 KiB readline limit."""
        rng = random.Random(14)
        monitor, server, connect = served
        client = connect()
        handle = client.add_query(weights=[1.0, 1.0], k=5)
        reply = client.process(rows(rng, 5000), now=0.0)
        assert reply["arrivals"] == 5000
        assert len(handle.result()) == 5
        assert client.ping()


class TestConcurrency:
    def test_many_clients_register_and_read_concurrently(self, served):
        monitor, server, connect = served
        driver = connect()
        rng = random.Random(12)
        driver.process(rows(rng, 40), now=0.0)

        errors = []
        results = {}

        def worker(index):
            try:
                client = MonitorClient(*server.address)
                try:
                    handle = client.add_query(
                        weights=[1.0, index / 4.0 + 0.1], k=3,
                        label=f"w{index}",
                    )
                    for _ in range(10):
                        results[index] = handle.result()
                finally:
                    client.close()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(results) == 4
        assert len(monitor.handles()) == 4


class TestServerLifecycle:
    def test_context_manager_and_double_stop(self):
        monitor = StreamMonitor(
            2, CountBasedWindow(20), algorithm="tma", cells_per_axis=4
        )
        with MonitorServer(monitor) as server:
            host, port = server.address
            client = MonitorClient(host, port)
            assert client.ping()
            client.close()
        server.stop()  # idempotent
        monitor.close()

    def test_server_stop_ends_client_streams(self):
        rng = random.Random(13)
        monitor = StreamMonitor(
            2, CountBasedWindow(30), algorithm="tma", cells_per_axis=4
        )
        server = MonitorServer(monitor)
        host, port = server.start()
        client = MonitorClient(host, port)
        handle = client.add_query(weights=[1.0, 1.0], k=2)
        stream = handle.subscribe()
        client.process(rows(rng, 10), now=0.0)
        server.stop()
        # Blocking iteration terminates instead of hanging forever.
        drained = list(stream)
        assert stream.closed
        monitor.close()
        client.close()
        assert isinstance(drained, list)
