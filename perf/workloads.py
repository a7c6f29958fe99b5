"""The four named workloads and the sessions that drive them.

A :class:`Workload` is a plain record of sizes; a *session* is one
fresh set-up of it — monitor (and children) constructed, window
filled, subscriber attached, initial queries registered — with the
methods the runner needs: stream batches for a while, pull final
results for the correctness gate, tear down. :class:`MonitorSession` drives an in-process or TCP-sharded
``StreamMonitor``; :class:`ServedSession` drives a ``MonitorServer``
in a child process over two client connections.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from perf import children
from perf.check import Replay, ranked
from perf.generator import DIMS, Inputs
from perf.layers import Tracer

#: set-up ingests the first N rows in chunks of this many.
FILL_CHUNK = 1000
#: one registration burst (the unit ``register_ms_p50`` times).
BURST = 16
#: coordinator wire bytes are counted over this many leading batches
#: of a stream (all of them when it sends fewer): a fixed prefix of a
#: seeded stream carries the same bytes however long the run lasts.
WIRE_BATCHES = 200
#: a delta still missing this long after the last batch counts as lost.
DELTA_TIMEOUT_S = 5.0
#: share of a served run's seconds spent in the open-loop phase.
OPEN_LOOP_SHARE = 0.6
#: served subscription queue bound (policy "block": lossless).
SUBSCRIBER_MAXLEN = 1024


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    algorithm: str
    n: int  # window size N (count-based)
    rate: int  # rows per batch r
    queries: int  # initial Q
    k: int
    cells: int  # grid cells per axis
    grouped: bool = False
    similarity: Optional[float] = None
    shards: int = 0  # loopback TCP shard hosts (0 = in-process)
    churn: bool = False  # query-table writes after every batch
    served_hz: int = 0  # > 0: MonitorServer child, open loop at this rate
    #: fixed batch count per phase; None = run for ``--seconds``.
    batches: Optional[int] = None

    def smoke(self, batches: Optional[int]) -> "Workload":
        """The same shape at a size that runs in about a second."""
        return replace(
            self,
            n=500,
            rate=max(10, self.rate // 20),
            queries=max(8, self.queries // 10),
            k=5,
            cells=3,
            batches=batches,
        )

    @property
    def fill_batches(self) -> int:
        return -(-self.n // FILL_CHUNK)

    @property
    def pool_rows(self) -> int:
        # Long enough that a window never holds a row twice.
        return max(4 * self.n, 200 * self.rate)

    def budget(self, seconds: float) -> Callable[[int], bool]:
        """``keep_going(done)`` for one phase: the fixed batch count
        at smoke scale, otherwise ``seconds`` of wall time."""
        if self.batches is not None:
            return lambda done: done < self.batches
        deadline = time.perf_counter() + seconds
        return lambda done: time.perf_counter() < deadline


WORKLOADS = [
    Workload(
        name="tma_recompute",
        why="in-process TMA, 5% of the window turns over per batch, so "
        "Figure-6 recomputation in grid.traversal is most of a batch",
        algorithm="tma", n=20_000, rate=1000, queries=100, k=20, cells=5,
    ),
    Workload(
        name="sma_query_churn",
        why="in-process grouped SMA, 400 similar queries, register/cancel/"
        "update/pause after every batch, so skyband upkeep, grouped "
        "registration and handle ops pay instead of recomputation",
        algorithm="sma", n=20_000, rate=200, queries=400, k=20, cells=5,
        grouped=True, similarity=0.9, churn=True,
    ),
    Workload(
        name="tcp_sharded",
        why="the tma_recompute stream and queries through two loopback "
        "TCP shard hosts, so codec, transport, merge and replicated "
        "ingestion are added to the same engine work",
        algorithm="tma", n=20_000, rate=1000, queries=100, k=20, cells=5,
        shards=2,
    ),
    Workload(
        name="serve_fanout",
        why="a MonitorServer child fed and subscribed over two sockets, "
        "open loop at 50 batches/s then closed loop, so protocol, "
        "server, delivery and client dominate and the engine is small",
        algorithm="sma", n=5_000, rate=100, queries=50, k=10, cells=3,
        served_hz=50,
    ),
]


@dataclass
class StreamResult:
    """What one streaming phase measured."""

    fresh_ms: List[float] = field(default_factory=list)
    #: wall seconds each throughput-phase batch cost its caller.
    batch_s: List[float] = field(default_factory=list)
    batches: int = 0
    failed_batches: int = 0
    expected_deltas: int = 0
    received_deltas: int = 0
    register_ms: List[float] = field(default_factory=list)
    #: coordinator bytes sent + received over the first ``wire_batches``.
    wire_bytes: int = 0
    wire_batches: int = 0
    late_ms: List[float] = field(default_factory=list)
    ack_ms: List[float] = field(default_factory=list)
    delivery_ms: List[float] = field(default_factory=list)


# ----------------------------------------------------------------------
# In-process and TCP-sharded monitors
# ----------------------------------------------------------------------


class MonitorSession:
    """One fresh ``StreamMonitor`` (with shard hosts when sharded)."""

    def __init__(
        self,
        workload: Workload,
        inputs: Inputs,
        tracer: Optional[Tracer] = None,
    ) -> None:
        from repro import (
            CountBasedWindow,
            LinearFunction,
            ReproError,
            StreamMonitor,
            TopKQuery,
        )

        self.workload = workload
        self.inputs = inputs
        self.tracer = tracer
        self._query = lambda weights, k: TopKQuery(LinearFunction(weights), k)
        self._error = ReproError
        self.replay = Replay()
        self._weights = inputs.weights()
        self.next_rid = 0
        self._pending: List = []
        self._last_delta = 0.0
        #: live (handle, weights, k), oldest first.
        self.live: List[Tuple[object, List[float], int]] = []
        self._hosts = [
            children.start_shard_host(
                tracer is not None, workload.fill_batches
            )
            for _ in range(workload.shards)
        ]
        options = {"grouped": True} if workload.grouped else {}
        try:
            self.monitor = StreamMonitor(
                DIMS,
                CountBasedWindow(workload.n),
                algorithm=workload.algorithm,
                cells_per_axis=workload.cells,
                shards=[host.address for host in self._hosts] or None,
                **options,
            )
        except BaseException:
            for host in self._hosts:
                host.stop()
            raise
        for _ in range(workload.fill_batches):
            count = min(FILL_CHUNK, workload.n - self.next_rid)
            rows = inputs.rows(self.next_rid, count)
            self.next_rid += count
            self.monitor.process(self.monitor.make_records(rows))
        self.monitor.subscribe_all(self._on_change)
        self.register(workload.queries)
        self.settle()

    def _on_change(self, change) -> None:
        self._last_delta = time.perf_counter()
        self._pending.append(change)

    def settle(self) -> int:
        """Fold received deltas into the replay (clock stopped);
        returns how many there were."""
        count = len(self._pending)
        for change in self._pending:
            self.replay.apply(change)
        self._pending.clear()
        return count

    def register(self, count: int) -> float:
        """One ``add_queries`` burst; returns its wall seconds."""
        specs = [(self._weights.next(), self.workload.k) for _ in range(count)]
        queries = [self._query(weights, k) for weights, k in specs]
        started = time.perf_counter()
        handles = self.monitor.add_queries(queries)
        elapsed = time.perf_counter() - started
        self.live.extend(
            (handle, weights, k) for handle, (weights, k) in zip(handles, specs)
        )
        return elapsed

    def cancel_oldest(self, count: int) -> float:
        """Cancel the ``count`` oldest live queries; returns the wall
        seconds."""
        doomed, self.live = self.live[:count], self.live[count:]
        started = time.perf_counter()
        for handle, _, _ in doomed:
            handle.cancel()
        return time.perf_counter() - started

    def stream(self, seconds: float) -> StreamResult:
        """Closed loop: hand over a batch, wait for ``process`` to
        return, repeat. Freshness of a batch runs from just before
        ``make_records`` to the last delta's arrival in the callback
        (to ``process`` returning when nothing changed)."""
        workload = self.workload
        monitor = self.monitor
        tracer = self.tracer
        result = StreamResult()
        paused: Dict[int, object] = {}  # resume-at batch -> handle
        keep_going = workload.budget(seconds)
        clock = time.perf_counter
        wire_before = self._wire_bytes()
        while keep_going(result.batches):
            index = result.batches
            rows = self.inputs.rows(self.next_rid, workload.rate)
            self.next_rid += workload.rate
            if tracer is not None:
                tracer.batch = index
            handed = clock()
            try:
                report = monitor.process(monitor.make_records(rows))
            except self._error:
                result.failed_batches += 1
                report = None
            returned = clock()
            result.batches += 1
            result.batch_s.append(returned - handed)
            if report is not None:
                end = self._last_delta if report.changes else returned
                result.fresh_ms.append((end - handed) * 1e3)
                result.expected_deltas += len(report.changes)
            result.received_deltas += self.settle()
            if workload.churn:
                result.batch_s[-1] += self._churn(index, paused, result)
            if result.batches == WIRE_BATCHES:
                result.wire_bytes = self._wire_bytes() - wire_before
                result.wire_batches = WIRE_BATCHES
        if not result.wire_batches:
            result.wire_bytes = self._wire_bytes() - wire_before
            result.wire_batches = result.batches
        for handle in paused.values():  # the gate pulls live results
            if not handle.cancelled:
                handle.resume()
        self.settle()
        return result

    def _churn(self, index: int, paused: Dict, result: StreamResult) -> float:
        """Query-table writes beside the stream reads: a burst in, the
        oldest burst out, every 3rd batch an ``update(k=…)``, every
        4th a ``pause()`` resumed two batches later. Returns the wall
        seconds of the library calls."""
        elapsed = self.register(BURST)
        result.register_ms.append(elapsed * 1e3)
        elapsed += self.cancel_oldest(BURST)
        started = time.perf_counter()
        if index % 3 == 0:
            slot = (index // 3) % len(self.live)
            handle, weights, k = self.live[slot]
            if not handle.paused:
                k = 15 if k == self.workload.k else self.workload.k
                handle.update(k=k)
                self.live[slot] = (handle, weights, k)
        due = paused.pop(index, None)
        if due is not None and not due.cancelled:
            due.resume()
        if index % 4 == 0:
            handle = self.live[len(self.live) // 2][0]
            if not handle.paused:
                handle.pause()
                paused[index + 2] = handle
        elapsed += time.perf_counter() - started
        self.settle()
        return elapsed

    def op_counters(self) -> Dict[str, int]:
        return dict(self.monitor.stats()["counters"])

    def wire(self) -> Dict[str, int]:
        """Cumulative coordinator bytes (zeros when not sharded)."""
        transport = self.monitor.stats().get("transport")
        if transport is None:
            return {"sent": 0, "received": 0}
        return {
            "sent": transport["bytes_sent"],
            "received": transport["bytes_received"],
        }

    def _wire_bytes(self) -> int:
        return sum(self.wire().values())

    def pulled(self):
        """``(qid, weights, k, function, result)`` of every live query."""
        return [
            (
                handle.qid,
                weights,
                k,
                handle.query.function,
                ranked(handle.result()),
            )
            for handle, weights, k in self.live
        ]

    def mean_state_size(self) -> float:
        """Mean skyband cardinality (0.0 where no skyband is kept)."""
        if self.workload.algorithm != "sma":
            return 0.0
        sizes = self.monitor.algorithm.result_state_sizes()
        return sum(sizes.values()) / len(sizes) if sizes else 0.0

    def hub_stats(self) -> Dict[str, int]:
        return {}

    def close(self) -> List[Dict[str, object]]:
        """Tear down; returns the shard hosts' reports."""
        self.monitor.close()
        return [host.stop() for host in self._hosts]


# ----------------------------------------------------------------------
# Served monitor
# ----------------------------------------------------------------------


class ServedSession:
    """A ``MonitorServer`` child and this process's two connections:
    one ingests, one holds a subscribe-to-everything stream."""

    def __init__(
        self,
        workload: Workload,
        inputs: Inputs,
        tracer: Optional[Tracer] = None,
    ) -> None:
        from repro import MonitorClient, ReproError
        from repro.transport import parse_address

        self.workload = workload
        self.inputs = inputs
        self.tracer = tracer
        self._error = ReproError
        self.replay = Replay()
        self._weights = inputs.weights()
        self.next_rid = 0
        #: deltas the replies so far announced / receipt time of each
        #: delta that came, in delivery order.
        self.expected = 0
        self.receipts: List[float] = []
        self.delivery_ms: List[float] = []
        #: live (qid, weights, k), oldest first.
        self.live: List[Tuple[int, List[float], int]] = []
        self._clients: List = []
        self._child = children.start_server(
            tracer is not None,
            workload.fill_batches,
            workload.algorithm,
            workload.n,
            workload.cells,
            DIMS,
        )
        try:
            host, port = parse_address(self._child.address)
            self.ingest = MonitorClient(host, port)
            self._clients.append(self.ingest)
            self.subscriber = MonitorClient(host, port)
            self._clients.append(self.subscriber)
            for _ in range(workload.fill_batches):
                count = min(FILL_CHUNK, workload.n - self.next_rid)
                self.ingest.process(inputs.rows(self.next_rid, count))
                self.next_rid += count
            self.events = self.subscriber.subscribe(
                policy="block", maxlen=SUBSCRIBER_MAXLEN
            )
            self.register(workload.queries)
        except BaseException:
            self.close()
            raise

    def _take(self, timeout: float) -> bool:
        """Move one delivered delta from the stream into the replay."""
        event = self.events.get_event(timeout=timeout)
        if event is None:
            return False
        change, enqueued_at, received_at = event
        self.replay.apply(change)
        self.receipts.append(received_at)
        if enqueued_at is not None:
            self.delivery_ms.append((received_at - enqueued_at) * 1e3)
        return True

    def settle(self) -> None:
        """Take deltas until every announced one arrived, or one is
        DELTA_TIMEOUT_S overdue."""
        deadline = time.monotonic() + DELTA_TIMEOUT_S
        while len(self.receipts) < self.expected:
            if self._take(0.05):
                deadline = time.monotonic() + DELTA_TIMEOUT_S
            elif self.events.closed or time.monotonic() > deadline:
                return

    def register(self, count: int) -> None:
        """One ``add_queries`` burst (set-up's initial queries)."""
        specs = [(self._weights.next(), self.workload.k) for _ in range(count)]
        wire = [
            {"kind": "topk", "weights": weights, "k": k}
            for weights, k in specs
        ]
        # The window is never empty here, so every registration
        # announces exactly one delta; set-up is over when the handles
        # are back *and* those initial results have reached the
        # subscriber — what an in-process ``add_queries`` has also
        # done by the time it returns.
        self.expected += count
        reply = self.ingest.request("add_queries", queries=wire)
        self.settle()
        for item, (weights, k) in zip(reply["queries"], specs):
            self.live.append((item["qid"], weights, k))

    def _send(self, rows, index: int, result: StreamResult) -> int:
        """One ``process`` round trip; returns how many deltas its
        reply announced."""
        if self.tracer is not None:
            self.tracer.batch = index
        sent = time.time()
        try:
            changed = len(self.ingest.process(rows)["changed"])
        except self._error:
            result.failed_batches += 1
            changed = 0
        result.ack_ms.append((time.time() - sent) * 1e3)
        result.batches += 1
        self.expected += changed
        return changed

    def _next_rows(self):
        rows = self.inputs.rows(self.next_rid, self.workload.rate)
        self.next_rid += self.workload.rate
        return rows

    def stream(self, seconds: float) -> StreamResult:
        """Phase A, open loop: one batch every 1/hz seconds, each
        timed from its *due* time to the receipt of its last delta (to
        the ``process`` reply when it changed nothing). Phase B,
        closed loop: batches back to back, each costing the wall time
        to the next send (the last one: to its last delta)."""
        workload = self.workload
        result = StreamResult()
        expected_before = self.expected
        received_before = len(self.receipts)
        if workload.batches is None:
            batches_a = int(seconds * OPEN_LOOP_SHARE * workload.served_hz)
        else:
            batches_a = workload.batches
        period = 1.0 / workload.served_hz
        origin = time.time() + period
        position = len(self.receipts)  # settled: all earlier deltas in
        open_loop: List[Tuple[float, float, int]] = []
        for index in range(batches_a):
            due = origin + index * period
            rows = self._next_rows()
            wait = due - time.time()
            if wait > 0:
                time.sleep(wait)
            result.late_ms.append((time.time() - due) * 1e3)
            changed = self._send(rows, index, result)
            open_loop.append((due, time.time(), changed))
            while self._take(0.0):
                pass
        self.settle()
        for due, acked, changed in open_loop:
            position += changed
            if position > len(self.receipts):
                break  # lost deltas: no freshness, counted as failed
            end = self.receipts[position - 1] if changed else acked
            result.fresh_ms.append((end - due) * 1e3)

        keep_going = workload.budget(seconds * (1.0 - OPEN_LOOP_SHARE))
        position = len(self.receipts)
        sent = time.time()
        while keep_going(len(result.batch_s)):
            index = len(result.batch_s)
            rows = self._next_rows()
            self._send(rows, batches_a + index, result)
            while self._take(0.0):
                pass
            now = time.time()
            result.batch_s.append(now - sent)
            sent = now
        self.settle()
        if result.batch_s:  # the last batch ends with its last delta
            result.batch_s[-1] += max(
                0.0, max(self.receipts[position:], default=sent) - sent
            )
        result.expected_deltas = self.expected - expected_before
        result.received_deltas = len(self.receipts) - received_before
        result.delivery_ms = self.delivery_ms
        return result

    def op_counters(self) -> Dict[str, int]:
        counters = self.ingest.metrics()["metrics"]["counters"]
        prefix, suffix = "repro_op_", "_total"
        return {
            name[len(prefix):-len(suffix)]: value
            for name, value in counters.items()
            if name.startswith(prefix) and name.endswith(suffix)
        }

    def wire(self) -> Dict[str, int]:
        return {"sent": 0, "received": 0}

    def pulled(self):
        from repro import RemoteQueryHandle

        return [
            (
                qid,
                weights,
                k,
                None,
                ranked(RemoteQueryHandle(self.ingest, qid).result()),
            )
            for qid, weights, k in self.live
        ]

    def mean_state_size(self) -> float:
        return 0.0  # the child reports its own at shutdown

    def hub_stats(self) -> Dict[str, int]:
        return self.ingest.stats()["hub"]

    def close(self) -> List[Dict[str, object]]:
        """Tear down; returns the server child's report."""
        for client in self._clients:
            client.close()
        return [self._child.stop()]


def open_session(workload: Workload, inputs: Inputs, tracer=None):
    cls = ServedSession if workload.served_hz else MonitorSession
    return cls(workload, inputs, tracer)
