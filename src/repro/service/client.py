"""Synchronous client of the serving runtime.

:class:`MonitorClient` speaks the line-delimited JSON protocol to a
:class:`~repro.service.server.MonitorServer` and mirrors the
in-process facade: ``add_query`` returns a :class:`RemoteQueryHandle`
with the same lifecycle surface as
:class:`~repro.core.handles.QueryHandle` (``result`` / ``update`` /
``pause`` / ``resume`` / ``cancel`` / ``subscribe``), and
subscriptions arrive as :class:`RemoteChangeStream`\\ s — blocking
iterators over cause-tagged :class:`~repro.core.results.ResultChange`
deltas, rebuilt bit-for-bit from the wire.

One background reader thread demultiplexes the socket: responses
resolve their waiting request, events route to their stream. Server-
side errors re-raise locally as the same exception classes
(``QueryError`` for a cancelled qid, ``StreamError`` for a closed
monitor, ...), so code migrating from the in-process API keeps its
error handling unchanged.

Most change events arrive as deltas without ``top`` (protocol
revision 2, :mod:`repro.service.protocol`): each stream keeps the last
``top`` of every query it has seen and rebuilds the full change. An
event the stream cannot apply — malformed, or a delta against a
result it does not hold — ends that stream with
:class:`~repro.service.protocol.ProtocolError` (raised by ``get`` /
iteration once the changes before it are consumed); a line that does
not decode at all could have been any stream's, so it ends every
stream that way. A server speaking another revision is refused in the
constructor.

::

    client = MonitorClient(host, port)
    handle = client.add_query(weights=[1.0, 2.0], k=10)
    stream = handle.subscribe(policy="coalesce", maxlen=64)
    client.process([[0.3, 0.9], ...])        # or the embedder ingests
    for change in stream:                    # blocks; ends on close
        apply(change)
    client.close()
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import StreamError
from repro.core.results import ResultChange, ResultEntry
from repro.service import protocol

#: sentinel marking the end of a RemoteChangeStream.
_CLOSED = object()


class RemoteChangeStream:
    """Client-side view of one server subscription.

    Iterating blocks until the next delta and stops cleanly when the
    stream closes (unsubscribe, query cancellation, server shutdown,
    or connection loss). :meth:`get` is the timeout-aware variant;
    :meth:`get_event` additionally exposes the server's enqueue
    timestamp for latency measurement.
    """

    def __init__(self, client: "MonitorClient", sub_id: int, qid=None):
        self.sub = sub_id
        #: watched qid (None = every query on the monitor).
        self.qid = qid
        self._client = client
        self._queue: "queue.Queue" = queue.Queue()
        self._closed = False
        #: qid -> the ``top`` this stream's last event of it left; the
        #: state each delta event is rebuilt against.
        self._held: Dict[int, List[ResultEntry]] = {}

    # -- producer side (client reader thread) ---------------------------

    def _receive(self, message: Dict) -> None:
        """Rebuild one change event and queue it, or end the stream
        with the :class:`~repro.service.protocol.ProtocolError`."""
        try:
            change = protocol.change_from_wire(message, self._held)
        except protocol.ProtocolError as exc:
            self._fail(exc)
            return
        self._queue.put((change, message.get("ts"), time.time()))

    def _mark_closed(self, error: object = _CLOSED) -> None:
        if not self._closed:
            self._closed = True
            self._queue.put(error)

    def _fail(self, exc: Exception) -> None:
        """End the stream with ``exc``: its state is no longer the
        server's, so no later delta may be applied to it."""
        if not self._closed:
            self._client._forget_stream(self.sub)
            self._mark_closed(exc)

    # -- consumer side --------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once no further deltas can arrive (buffered deltas
        remain consumable)."""
        return self._closed

    @property
    def pending(self) -> int:
        return self._queue.qsize()

    def get_event(
        self, timeout: Optional[float] = None
    ) -> Optional[Tuple[ResultChange, Optional[float], float]]:
        """Next ``(change, server_enqueue_ts, received_at)`` or None
        on close/timeout. Raises the
        :class:`~repro.service.protocol.ProtocolError` that ended the
        stream, if one did, once every change before it is taken."""
        try:
            item = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        if type(item) is tuple:
            return item
        self._queue.put(item)  # keep later waiters unblocked
        if item is _CLOSED:
            return None
        raise item

    def get(self, timeout: Optional[float] = None) -> Optional[ResultChange]:
        """Next delta, or None on close/timeout."""
        event = self.get_event(timeout=timeout)
        return None if event is None else event[0]

    def __iter__(self) -> "RemoteChangeStream":
        return self

    def __next__(self) -> ResultChange:
        change = self.get()
        if change is None:
            raise StopIteration
        return change

    def close(self) -> None:
        """Unsubscribe server-side (best effort) and end iteration."""
        if not self._closed:
            self._client._unsubscribe(self.sub)
            self._mark_closed()


class RemoteQueryHandle:
    """Remote mirror of :class:`~repro.core.handles.QueryHandle`.

    Int-like exactly like its in-process counterpart (hashes and
    compares as the qid). Every operation is one request round trip;
    server-side errors raise the same exception classes locally.
    """

    __slots__ = ("_client", "_qid", "label")

    def __init__(self, client: "MonitorClient", qid: int, label: str = ""):
        self._client = client
        self._qid = int(qid)
        self.label = label

    @property
    def qid(self) -> int:
        return self._qid

    def __int__(self) -> int:
        return self._qid

    def __index__(self) -> int:
        return self._qid

    def __hash__(self) -> int:
        return hash(self._qid)

    def __eq__(self, other) -> bool:
        if isinstance(other, (RemoteQueryHandle, int)):
            return self._qid == int(other)
        return NotImplemented

    def __repr__(self) -> str:
        name = self.label or f"q{self._qid}"
        return f"RemoteQueryHandle({name}, qid={self._qid})"

    def result(self) -> List[ResultEntry]:
        reply = self._client.request("result", qid=self._qid)
        return protocol.entries_from_wire(reply["result"])

    def update(
        self,
        k: Optional[int] = None,
        weights: Optional[Sequence[float]] = None,
    ) -> List[ResultEntry]:
        reply = self._client.request(
            "update",
            qid=self._qid,
            k=k,
            weights=None if weights is None else list(weights),
        )
        return protocol.entries_from_wire(reply["result"])

    def pause(self) -> None:
        self._client.request("pause", qid=self._qid)

    def resume(self) -> List[ResultEntry]:
        reply = self._client.request("resume", qid=self._qid)
        return protocol.entries_from_wire(reply["result"])

    def cancel(self) -> None:
        self._client.request("cancel", qid=self._qid)

    def subscribe(
        self,
        policy: Optional[str] = None,
        maxlen: Optional[int] = None,
    ) -> RemoteChangeStream:
        """Stream this query's future deltas (see
        :meth:`MonitorClient.subscribe` for policy semantics)."""
        return self._client.subscribe(
            qid=self._qid, policy=policy, maxlen=maxlen
        )

    #: alias mirroring QueryHandle.changes()
    changes = subscribe


class MonitorClient:
    """One socket to a :class:`~repro.service.server.MonitorServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        connect_timeout: float = 10.0,
    ) -> None:
        self._timeout = timeout
        self._sock = socket.create_connection(
            (host, port), timeout=connect_timeout
        )
        self._sock.settimeout(None)
        self._rfile = self._sock.makefile("rb")
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._ids = itertools.count(1)
        #: request id -> (reply slot, stream a subscribe opens or None)
        self._pending: Dict[
            int, Tuple["queue.Queue", Optional[RemoteChangeStream]]
        ] = {}
        self._streams: Dict[int, RemoteChangeStream] = {}
        self._closed = False
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-client-reader", daemon=True
        )
        self._reader.start()
        try:
            #: the server's hello payload (protocol/algorithm/dims/...).
            self.server_info = self.request(
                "hello", protocol=protocol.PROTOCOL_VERSION
            )
            revision = self.server_info.get("protocol")
            if revision != protocol.PROTOCOL_VERSION:
                raise protocol.ProtocolError(
                    f"server speaks protocol revision {revision!r}; "
                    f"this client speaks {protocol.PROTOCOL_VERSION}"
                )
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------

    def _read_loop(self) -> None:
        try:
            while True:
                line = self._rfile.readline()
                if not line:
                    break
                try:
                    message = protocol.decode_line(line)
                except protocol.ProtocolError as exc:
                    # The line may have been any stream's event.
                    with self._state_lock:
                        streams = list(self._streams.values())
                    for stream in streams:
                        stream._fail(exc)
                    continue
                if "id" in message:
                    with self._state_lock:
                        waiting = self._pending.pop(message["id"], None)
                        if waiting is not None:
                            slot, opening = waiting
                            if opening is not None and message.get("ok"):
                                opening.sub = message.get("sub")
                                self._streams[opening.sub] = opening
                    if waiting is not None:
                        slot.put(message)
                    continue
                event = message.get("event")
                if event == "change":
                    with self._state_lock:
                        stream = self._streams.get(message.get("sub"))
                    if stream is not None:
                        stream._receive(message)
                elif event == "closed":
                    with self._state_lock:
                        stream = self._streams.pop(
                            message.get("sub"), None
                        )
                    if stream is not None:
                        stream._mark_closed()
        except (OSError, ValueError):
            pass
        finally:
            self._teardown()

    def _teardown(self) -> None:
        with self._state_lock:
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
            streams = list(self._streams.values())
            self._streams.clear()
        for slot, _ in pending:
            slot.put(None)
        for stream in streams:
            stream._mark_closed()

    def request(self, op: str, **payload) -> Dict:
        """One request/response round trip. Raises the server's error
        locally (``QueryError`` / ``StreamError`` / ``ProtocolError``
        / :class:`~repro.service.protocol.ServiceError`)."""
        return self._round_trip(op, payload)

    def _round_trip(
        self,
        op: str,
        payload: Dict,
        opening: Optional[RemoteChangeStream] = None,
    ) -> Dict:
        """:meth:`request`; a successful reply registers ``opening``
        under the reply's ``sub`` on the reader thread, before it reads
        the line after the reply — which may be that stream's first
        event."""
        if self._closed:
            raise StreamError("client connection is closed")
        request_id = next(self._ids)
        slot: "queue.Queue" = queue.Queue(maxsize=1)
        with self._state_lock:
            self._pending[request_id] = (slot, opening)
        message = {"id": request_id, "op": op}
        message.update(
            {key: value for key, value in payload.items() if value is not None}
        )
        line = protocol.encode_line(message)
        try:
            with self._send_lock:
                # The send lock exists solely to keep concurrent
                # requests' wire lines from interleaving; nothing else
                # is ever taken or touched under it, so the blocking
                # write cannot deadlock — only serialise, as intended.
                self._sock.sendall(line)  # repro: ignore[LOCK202]
        except OSError as exc:
            with self._state_lock:
                self._pending.pop(request_id, None)
            raise StreamError(f"send failed: {exc}") from None
        try:
            reply = slot.get(timeout=self._timeout)
        except queue.Empty:
            with self._state_lock:
                self._pending.pop(request_id, None)
            raise StreamError(
                f"no reply to {op!r} within {self._timeout:.0f}s"
            ) from None
        if reply is None:
            raise StreamError(
                f"connection closed while waiting for {op!r}"
            )
        if not reply.get("ok"):
            protocol.raise_from_wire(reply.get("error"))
        return reply

    # ------------------------------------------------------------------
    # Facade mirror
    # ------------------------------------------------------------------

    def add_query(
        self,
        query=None,
        weights: Optional[Sequence[float]] = None,
        k: Optional[int] = None,
        threshold: Optional[float] = None,
        label: str = "",
        accuracy=None,
    ) -> RemoteQueryHandle:
        """Register a query; returns its remote handle.

        Pass a :class:`~repro.core.queries.TopKQuery` /
        :class:`~repro.core.queries.ThresholdQuery` (linear
        preferences only), or build one in place from ``weights`` +
        (``k`` | ``threshold``). ``accuracy`` attaches an
        :class:`~repro.core.queries.Accuracy` contract to a top-k
        query; its cycle deltas arrive with a certified ``bound`` of
        ``0.0`` (every server algorithm is exact).
        """
        if query is not None:
            wire = protocol.query_to_wire(query)
        elif weights is None or (k is None) == (threshold is None):
            raise ValueError(
                "pass a query object, or weights= with exactly one of "
                "k= / threshold="
            )
        elif k is not None:
            wire = {
                "kind": "topk",
                "weights": list(weights),
                "k": int(k),
                "label": label,
            }
        else:
            wire = {
                "kind": "threshold",
                "weights": list(weights),
                "threshold": float(threshold),
                "label": label,
            }
        if accuracy is not None:
            if wire.get("kind") != "topk":
                raise ValueError(
                    "accuracy contracts apply to top-k queries only"
                )
            wire["accuracy"] = {
                "epsilon": float(accuracy.epsilon),
                "delta": float(accuracy.delta),
            }
        reply = self.request("add_query", query=wire)
        return RemoteQueryHandle(
            self, reply["qid"], label=wire.get("label", "")
        )

    def subscribe(
        self,
        qid=None,
        policy: Optional[str] = None,
        maxlen: Optional[int] = None,
    ) -> RemoteChangeStream:
        """Subscribe to one query's deltas (or every query's when
        ``qid`` is None). ``policy`` / ``maxlen`` pick the server-side
        delivery queue behaviour (``block`` / ``drop_oldest`` /
        ``coalesce``; see ``docs/SERVICE.md``)."""
        qid = None if qid is None else int(qid)
        stream = RemoteChangeStream(self, None, qid=qid)
        self._round_trip(
            "subscribe",
            {"qid": qid, "policy": policy, "maxlen": maxlen},
            opening=stream,
        )
        return stream

    def _forget_stream(self, sub_id: int) -> None:
        """Reader thread: drop a failed stream and unsubscribe it
        without waiting for the reply, which only this thread reads."""
        with self._state_lock:
            self._streams.pop(sub_id, None)
        line = protocol.encode_line(
            {"id": next(self._ids), "op": "unsubscribe", "sub": sub_id}
        )
        try:
            with self._send_lock:
                # Same single-purpose lock as in request(); the reply
                # is never awaited, so nothing waits under it.
                self._sock.sendall(line)  # repro: ignore[LOCK202]
        except OSError:
            pass

    def _unsubscribe(self, sub_id: int) -> None:
        with self._state_lock:
            self._streams.pop(sub_id, None)
        if not self._closed:
            try:
                self.request("unsubscribe", sub=sub_id)
            except StreamError:
                pass

    def process(
        self,
        rows: Sequence[Sequence[float]],
        now: Optional[float] = None,
    ) -> Dict:
        """Drive one processing cycle (server must ``allow_ingest``)."""
        return self.request(
            "process", rows=[list(row) for row in rows], now=now
        )

    def advance(self, now: float) -> Dict:
        """Process an empty cycle (time-based expiry only)."""
        return self.request("advance", now=float(now))

    def stats(self) -> Dict:
        return self.request("stats")

    def metrics(self, traces: Optional[int] = None) -> Dict:
        """The server monitor's metrics snapshot (and, when ``traces``
        is given, its last N cycle traces): ``{"metrics": {...},
        "traces": [...]}``."""
        if traces is None:
            return self.request("metrics")
        return self.request("metrics", traces=int(traces))

    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the socket; every stream ends, pending requests fail
        fast. Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - defensive
            pass
        self._reader.join(timeout=5)

    def __enter__(self) -> "MonitorClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
