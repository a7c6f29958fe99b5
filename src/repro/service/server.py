"""Network front-end: an asyncio server over the monitor facade.

:class:`MonitorServer` turns one in-process
:class:`~repro.core.engine.StreamMonitor` into a servable runtime.
Many concurrent clients speak the line-delimited JSON protocol
(:mod:`repro.service.protocol`) over TCP to register queries, pull
results, mutate queries in flight, and subscribe to push deltas.

Threading model — three planes, each with one job:

- the **event loop thread** owns every socket: it parses request
  lines, schedules replies, and writes bytes. It never touches the
  engine directly and never blocks on it.
- the **engine lock** serialises every monitor operation. Request
  handlers run engine calls in the loop's default executor under this
  lock; the embedding application ingests through
  :meth:`MonitorServer.process` under the same lock, so a server can
  share its monitor with an in-process stream driver safely.
- the **delivery plane** is a :class:`~repro.service.delivery.DeliveryHub`:
  one bounded queue + consumer thread per remote subscription. A
  subscriber's consumer thread serialises its deltas and hands the
  bytes to the event loop — *blocking itself* (never the engine, never
  other subscribers) when that client's socket is full. Queue pressure
  then builds in that subscription's own delivery queue, where its
  overflow policy (``block`` / ``drop_oldest`` / ``coalesce``)
  resolves it. A deliberately-stalled subscriber therefore costs
  exactly one parked thread and one full queue; every other client's
  cycle and delivery latency is untouched (pinned by
  ``tests/integration/test_service_e2e.py``).

Lifecycle: ``start()`` spawns the loop thread and returns the bound
address; ``stop()`` (or context-manager exit) closes every
subscription, connection, and the loop. The server does **not** close
the monitor it serves — the embedder owns that — but a monitor closed
out from under the server simply makes further operations answer with
``StreamError`` responses.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from functools import partial
from typing import Dict, Optional, Tuple

from repro.core.errors import QueryError, ReproError
from repro.service import protocol
from repro.service.delivery import DeliveryHub

#: soft cap of a connection's kernel+transport write backlog before
#: its delivery consumer threads start waiting (bytes).
WRITE_BUFFER_LIMIT = 256 * 1024

#: maximum accepted request-line size (a 100k-row ingest batch fits
#: comfortably; asyncio's 64 KiB default does not).
MAX_LINE_BYTES = 32 * 1024 * 1024

#: how long a parked delivery sender sleeps between backlog probes.
_BACKOFF_SECONDS = 0.005


class _Connection:
    """Per-client state: writer, subscriptions, liveness flag."""

    __slots__ = ("writer", "deliveries", "closed", "peer")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        #: sub id -> Delivery
        self.deliveries: Dict[int, object] = {}
        self.closed = False
        peer = writer.get_extra_info("peername")
        self.peer = f"{peer[0]}:{peer[1]}" if peer else "?"

    def send_bytes(self, line: bytes) -> None:
        """Loop-thread only: append one framed line to the transport."""
        if not self.closed and not self.writer.is_closing():
            self.writer.write(line)

    def backlog(self) -> int:
        transport = self.writer.transport
        if transport is None or transport.is_closing():
            return 0
        return transport.get_write_buffer_size()



def _qid(message: Dict) -> int:
    """The message's query id; anything but an ``int`` (a bool, a
    float, a string, none at all) is a :class:`QueryError`, as the
    facade would refuse it — never coerced onto another query."""
    qid = message.get("qid")
    if type(qid) is not int:
        raise QueryError(f"query id must be an integer, got {qid!r}")
    return qid

class MonitorServer:
    """Serve one :class:`~repro.core.engine.StreamMonitor` over TCP.

    Args:
        monitor: the monitor to serve (any algorithm, any shard
            count — the server only uses the public facade).
        host/port: bind address; port 0 picks a free port
            (:attr:`address` reports the real one after ``start``).
        default_policy / default_maxlen: per-subscription delivery
            queue defaults (clients may override per subscribe).
        allow_ingest: accept ``process`` / ``advance`` ops from
            clients. Disable when only the embedding application may
            drive cycles.
        metrics_port: when not None, also serve the monitor's metrics
            registry over HTTP (:class:`repro.obs.http.MetricsHTTPServer`)
            on ``metrics_host:metrics_port`` — ``GET /metrics`` is
            Prometheus text exposition 0.0.4, ``GET /trace`` the
            tracer's recent cycle traces as JSON. Port 0 picks a free
            port; :attr:`metrics_address` reports the bound endpoint.

    Example::

        monitor = StreamMonitor(2, CountBasedWindow(10_000), "tma")
        with MonitorServer(monitor) as server:
            host, port = server.address
            ...                      # clients connect, app ingests:
            server.process(rows)     # engine-lock-safe ingestion
    """

    def __init__(
        self,
        monitor,
        host: str = "127.0.0.1",
        port: int = 0,
        default_policy: str = "coalesce",
        default_maxlen: int = 256,
        allow_ingest: bool = True,
        metrics_host: str = "127.0.0.1",
        metrics_port: Optional[int] = None,
    ) -> None:
        self.monitor = monitor
        self._host = host
        self._port = port
        self.allow_ingest = allow_ingest
        self._metrics_host = metrics_host
        self._metrics_port = metrics_port
        self._metrics_server = None
        self.hub = DeliveryHub(
            monitor,
            default_policy=default_policy,
            default_maxlen=default_maxlen,
        )
        self._lock = threading.RLock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._ready = threading.Event()
        self._stop_event: Optional[asyncio.Event] = None
        self._stopping = False
        self._started = False
        self._address: Optional[Tuple[str, int]] = None
        self._sub_ids = itertools.count(1)
        self._connections: Dict[int, _Connection] = {}
        self._conn_ids = itertools.count(1)
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Spawn the event-loop thread, bind, and return the address."""
        if self._started:
            raise RuntimeError("MonitorServer already started")
        self._started = True
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10)
        if self._startup_error is not None:
            raise self._startup_error
        if self._address is None:
            raise RuntimeError("service loop failed to start")
        if self._metrics_port is not None:
            self._start_metrics_server()
        return self._address

    def _start_metrics_server(self) -> None:
        from repro.obs.http import MetricsHTTPServer
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import NULL_TRACER

        registry = getattr(self.monitor, "metrics_registry", None)
        if registry is None:  # served object predates the obs tier
            registry = MetricsRegistry()
        tracer = getattr(self.monitor, "tracer", None) or NULL_TRACER
        self._metrics_server = MetricsHTTPServer(
            registry,
            tracer=tracer,
            host=self._metrics_host,
            port=int(self._metrics_port),
        )
        try:
            self._metrics_server.start()
        except BaseException:
            self._metrics_server = None
            self.stop()
            raise

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (after :meth:`start`)."""
        if self._address is None:
            raise RuntimeError("MonitorServer is not started")
        return self._address

    @property
    def metrics_address(self) -> Tuple[str, int]:
        """``(host, port)`` of the metrics HTTP endpoint (only when
        the server was built with ``metrics_port``)."""
        if self._metrics_server is None:
            raise RuntimeError(
                "MonitorServer has no metrics endpoint (pass "
                "metrics_port= and start() first)"
            )
        return (self._metrics_host, self._metrics_server.port)

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as exc:  # pragma: no cover - defensive
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                loop.close()

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._serve_connection,
                self._host,
                self._port,
                limit=MAX_LINE_BYTES,
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        sock = self._server.sockets[0]
        self._address = sock.getsockname()[:2]
        self._ready.set()
        await self._stop_event.wait()
        self._server.close()
        await self._server.wait_closed()
        for conn in list(self._connections.values()):
            self._close_connection(conn)

    def stop(self) -> None:
        """Shut the server down: close every subscription, connection,
        and the loop thread. Idempotent. The monitor stays open."""
        if self._stopping:
            return
        self._stopping = True
        if self._metrics_server is not None:
            self._metrics_server.stop()
            self._metrics_server = None
        self.hub.close()
        loop = self._loop
        if loop is not None and self._stop_event is not None:
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=10)

    close = stop

    def __enter__(self) -> "MonitorServer":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Embedder-side ingestion
    # ------------------------------------------------------------------

    def process(self, rows=None, records=None, now: Optional[float] = None):
        """Run one processing cycle under the engine lock.

        ``rows`` mints fresh records via the monitor's factory
        (stamped ``now``); ``records`` passes prebuilt
        :class:`~repro.core.tuples.StreamRecord` batches through
        unchanged. Thread-safe against concurrent client requests —
        this is how an embedding application drives cycles while the
        server serves.
        """
        with self._lock:
            if records is None:
                records = self.monitor.make_records(
                    rows or [], time_=now
                )
            return self.monitor.process(records, now=now)

    def stats(self) -> Dict:
        """Serving-plane statistics (connections, hub queues, engine
        delivery accounting)."""
        with self._lock:
            engine = self.monitor.delivery_stats()
        return {
            "connections": len(self._connections),
            "hub": self.hub.stats(),
            "engine": engine,
        }

    # ------------------------------------------------------------------
    # Connection plumbing (event-loop thread)
    # ------------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        conn_id = next(self._conn_ids)
        self._connections[conn_id] = conn
        try:
            while not self._stopping:
                try:
                    line = await reader.readline()
                except ValueError as exc:
                    # Oversized line (> MAX_LINE_BYTES): the stream
                    # position is unrecoverable, so answer and close.
                    conn.send_bytes(
                        protocol.encode_line(
                            {
                                "id": None,
                                "ok": False,
                                "error": {
                                    "type": "ProtocolError",
                                    "message": f"request line too "
                                    f"large: {exc}",
                                },
                            }
                        )
                    )
                    break
                if not line:
                    break
                try:
                    message = protocol.decode_line(line)
                except protocol.ProtocolError as exc:
                    conn.send_bytes(
                        protocol.encode_line(
                            {
                                "id": None,
                                "ok": False,
                                "error": protocol.error_to_wire(exc),
                            }
                        )
                    )
                    continue
                response = await self._handle(conn, message)
                conn.send_bytes(protocol.encode_line(response))
                await self._drain(conn)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            self._close_connection(conn)
            self._connections.pop(conn_id, None)

    async def _drain(self, conn: _Connection) -> None:
        if not conn.closed and not conn.writer.is_closing():
            try:
                await conn.writer.drain()
            except ConnectionResetError:
                pass

    def _close_connection(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        # join=False: this may run on the event-loop thread, which a
        # parked consumer needs alive to observe the close and exit.
        for delivery in list(conn.deliveries.values()):
            delivery.close(drain=False, join=False)
        conn.deliveries.clear()
        try:
            conn.writer.close()
        except RuntimeError:  # pragma: no cover - loop teardown race
            pass

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    async def _handle(self, conn: _Connection, message: Dict) -> Dict:
        request_id = message.get("id")
        op = message.get("op")
        handler = self._OPS.get(op)
        if handler is None:
            return {
                "id": request_id,
                "ok": False,
                "error": {
                    "type": "ProtocolError",
                    "message": f"unknown op {op!r}",
                },
            }
        try:
            payload = await handler(self, conn, message)
        except ReproError as exc:
            return {
                "id": request_id,
                "ok": False,
                "error": protocol.error_to_wire(exc),
            }
        except Exception as exc:  # pragma: no cover - defensive
            return {
                "id": request_id,
                "ok": False,
                "error": {
                    "type": "ServerError",
                    "message": f"{type(exc).__name__}: {exc}",
                },
            }
        response = {"id": request_id, "ok": True}
        response.update(payload)
        return response

    async def _engine(self, fn, *args, **kwargs):
        """Run one engine operation in the executor, serialised by the
        engine lock (ReproErrors propagate to the op handler)."""
        return await self._loop.run_in_executor(
            None, partial(self._locked, fn, *args, **kwargs)
        )

    def _locked(self, fn, *args, **kwargs):
        with self._lock:
            return fn(*args, **kwargs)

    # -- ops ------------------------------------------------------------

    async def _op_hello(self, conn, message) -> Dict:
        revision = message.get("protocol")
        if revision != protocol.PROTOCOL_VERSION:
            # A v1 client sends no revision; it would misread v2's
            # delta events, so it is refused before it subscribes.
            raise protocol.ProtocolError(
                f"client speaks protocol revision {revision!r}; this "
                f"server speaks {protocol.PROTOCOL_VERSION}"
            )
        algorithm = getattr(
            self.monitor.algorithm,
            "name",
            type(self.monitor.algorithm).__name__,
        )
        return {
            "server": "repro.service",
            "protocol": protocol.PROTOCOL_VERSION,
            "algorithm": algorithm,
            "dims": self.monitor.dims,
            "shards": self.monitor.shards,
            "ingest": self.allow_ingest,
        }

    async def _op_ping(self, conn, message) -> Dict:
        return {"pong": True}

    async def _op_add_query(self, conn, message) -> Dict:
        query = protocol.query_from_wire(message.get("query") or {})
        handle = await self._engine(self.monitor.add_query, query)
        return {
            "qid": handle.qid,
            "result": protocol.entries_to_wire(handle.result()),
        }

    async def _op_add_queries(self, conn, message) -> Dict:
        queries = [
            protocol.query_from_wire(item)
            for item in message.get("queries") or []
        ]
        handles = await self._engine(self.monitor.add_queries, queries)
        return {
            "queries": [
                {
                    "qid": handle.qid,
                    "result": protocol.entries_to_wire(handle.result()),
                }
                for handle in handles
            ]
        }

    async def _op_result(self, conn, message) -> Dict:
        entries = await self._engine(
            self.monitor.result, _qid(message)
        )
        return {"result": protocol.entries_to_wire(entries)}

    async def _op_update(self, conn, message) -> Dict:
        entries = await self._engine(
            self.monitor.update_query,
            _qid(message),
            k=message.get("k"),
            weights=message.get("weights"),
        )
        return {"result": protocol.entries_to_wire(entries)}

    async def _op_pause(self, conn, message) -> Dict:
        await self._engine(self.monitor.pause_query, _qid(message))
        return {}

    async def _op_resume(self, conn, message) -> Dict:
        entries = await self._engine(
            self.monitor.resume_query, _qid(message)
        )
        return {"result": protocol.entries_to_wire(entries)}

    async def _op_cancel(self, conn, message) -> Dict:
        await self._engine(self.monitor.remove_query, _qid(message))
        return {}

    async def _op_subscribe(self, conn, message) -> Dict:
        qid = message.get("qid")
        if qid is not None:
            qid = _qid(message)
            # Existence check (raises the same QueryError a local
            # subscribe would).
            await self._engine(self.monitor.handle, qid)
        sub_id = next(self._sub_ids)
        sender, box = self._make_sender(conn, sub_id, qid)
        delivery = self.hub.deliver(
            sender,
            qid=qid,
            maxlen=message.get("maxlen"),
            policy=message.get("policy"),
            name=f"sub{sub_id}@{conn.peer}",
        )
        box[0] = delivery
        conn.deliveries[sub_id] = delivery
        return {
            "sub": sub_id,
            "policy": delivery.policy,
            "maxlen": delivery.maxlen,
        }

    async def _op_unsubscribe(self, conn, message) -> Dict:
        sub_id = int(message["sub"])
        delivery = conn.deliveries.pop(sub_id, None)
        if delivery is not None:
            # join=False: we are on the event-loop thread; a consumer
            # parked on this connection's write backlog exits as soon
            # as it sees the closed flag — joining here would stall
            # every connection for the join timeout instead.
            delivery.close(drain=False, join=False)
            conn.send_bytes(
                protocol.encode_line({"event": "closed", "sub": sub_id})
            )
        return {}

    async def _op_process(self, conn, message) -> Dict:
        if not self.allow_ingest:
            raise protocol.ProtocolError(
                "this server does not accept client-driven ingestion"
            )
        rows = message.get("rows") or []
        now = message.get("now")
        report = await self._engine(self._ingest_batch, rows, now)
        return {
            "timestamp": report.timestamp,
            "arrivals": report.arrivals,
            "expirations": report.expirations,
            "dead_on_arrival": report.dead_on_arrival,
            "changed": sorted(report.changed_queries()),
        }

    def _ingest_batch(self, rows, now):
        records = self.monitor.make_records(rows, time_=now)
        return self.monitor.process(records, now=now)

    async def _op_advance(self, conn, message) -> Dict:
        if not self.allow_ingest:
            raise protocol.ProtocolError(
                "this server does not accept client-driven ingestion"
            )
        report = await self._engine(
            self.monitor.advance, float(message["now"])
        )
        return {
            "timestamp": report.timestamp,
            "arrivals": report.arrivals,
            "expirations": report.expirations,
            "dead_on_arrival": report.dead_on_arrival,
            "changed": sorted(report.changed_queries()),
        }

    async def _op_stats(self, conn, message) -> Dict:
        engine, queries, cycles = await self._engine(self._stats_snapshot)
        return {
            "connections": len(self._connections),
            "hub": self.hub.stats(),
            "engine": engine,
            "queries": queries,
            "cycles": cycles,
        }

    def _stats_snapshot(self):
        """Engine-side stats, read atomically under the engine lock.

        ``query_table`` and ``cycle_seconds`` mutate during cycles, so
        sampling them from the event loop races the executor; one
        locked snapshot keeps the three numbers mutually consistent.
        """
        return (
            self.monitor.delivery_stats(),
            len(self.monitor.query_table),
            len(self.monitor.cycle_seconds),
        )

    async def _op_metrics(self, conn, message) -> Dict:
        traces = message.get("traces")
        snapshot, trace_list = await self._engine(
            self._metrics_snapshot,
            None if traces is None else int(traces),
        )
        return {"metrics": snapshot, "traces": trace_list}

    def _metrics_snapshot(self, traces):
        """Registry snapshot + recent traces under the engine lock (the
        op-counter collector reads ``counters`` mid-collection)."""
        metrics = getattr(self.monitor, "metrics", None)
        snapshot = (
            metrics()
            if metrics is not None
            else {"counters": {}, "gauges": {}, "histograms": {}}
        )
        last = getattr(self.monitor, "last_traces", None)
        if traces is None or last is None:
            trace_list = []
        else:
            trace_list = last(traces)
        return snapshot, trace_list

    _OPS = {
        "hello": _op_hello,
        "ping": _op_ping,
        "add_query": _op_add_query,
        "add_queries": _op_add_queries,
        "result": _op_result,
        "update": _op_update,
        "pause": _op_pause,
        "resume": _op_resume,
        "cancel": _op_cancel,
        "subscribe": _op_subscribe,
        "unsubscribe": _op_unsubscribe,
        "process": _op_process,
        "advance": _op_advance,
        "stats": _op_stats,
        "metrics": _op_metrics,
    }

    # ------------------------------------------------------------------
    # Delta push (delivery consumer threads)
    # ------------------------------------------------------------------

    def _make_sender(
        self, conn: _Connection, sub_id: int, qid: Optional[int]
    ):
        # The Delivery is created *from* this sender, so the sender
        # reaches it through a late-bound box (filled right after
        # hub.deliver returns in _op_subscribe).
        box: list = [None]
        # Queries whose ``top`` the client holds from this
        # subscription's events: their cycle and cancel changes cross
        # as deltas. A drop loses a change of some query, so it
        # re-primes all of them. Only this delivery's consumer thread
        # runs the sender, so neither needs a lock.
        primed: set = set()
        drops_seen = 0

        def encode_and_send(change, enqueued_at: float) -> None:
            nonlocal drops_seen
            delivery = box[0]  # None only for a change racing the box
            taken = 0 if delivery is None else delivery.dropped_at_take
            if taken != drops_seen:
                drops_seen = taken
                primed.clear()
            full = (
                change.qid not in primed
                or change.cause not in protocol.DELTA_CAUSES
            )
            # Unprimed until this change is on its way: one that fails
            # to go out leaves the client's copy behind.
            primed.discard(change.qid)
            line = protocol.encode_line(
                {
                    "event": "change",
                    "sub": sub_id,
                    "ts": enqueued_at,
                    **protocol.change_to_wire(change, full=full),
                }
            )
            delivered = self._offer(conn, line, delivery=delivery)
            if delivered and change.cause != "cancel":
                primed.add(change.qid)
            if change.cause == "cancel" and delivered and qid is not None:
                # The subscription's one query is gone; retire it and
                # tell the client its stream is over. A monitor-wide
                # subscription (qid None) outlives any one query.
                delivery = conn.deliveries.pop(sub_id, None)
                self._offer(
                    conn,
                    protocol.encode_line(
                        {"event": "closed", "sub": sub_id}
                    ),
                    delivery=box[0],
                )
                if delivery is not None:
                    delivery.close()

        return encode_and_send, box

    def _offer(self, conn: _Connection, line: bytes, delivery=None) -> bool:
        """Hand one framed line to the event loop for ``conn``.

        Called from a delivery consumer thread. Waits (only this
        subscriber's thread) while the connection's write backlog is
        over :data:`WRITE_BUFFER_LIMIT` — the socket-level stall that
        the delivery queue's overflow policy then absorbs upstream.
        Aborts when the server stops, the connection dies, or this
        subscription itself is closed (unsubscribe mid-stall).
        """
        loop = self._loop
        while not self._stopping and not conn.closed:
            if delivery is not None and delivery.closed:
                return False
            if loop is None or loop.is_closed():
                return False
            if conn.backlog() <= WRITE_BUFFER_LIMIT:
                try:
                    loop.call_soon_threadsafe(conn.send_bytes, line)
                except RuntimeError:  # loop shut down mid-offer
                    return False
                return True
            time.sleep(_BACKOFF_SECONDS)
        return False
