"""Asynchronous push delivery: bounded queues, consumer threads,
overflow policies.

The in-process :class:`~repro.core.subscriptions.SubscriptionHub`
dispatches synchronously on the maintenance thread — correct, but one
slow subscriber callback stalls every query's cycle. The
:class:`DeliveryHub` decouples them: it registers exactly **one**
synchronous subscription on the monitor whose only work is routing
each delta into per-subscriber bounded queues; dedicated consumer
threads drain the queues and run the (arbitrarily slow) subscriber
callbacks. The maintenance thread's per-delta cost is one lock + one
append, regardless of how many subscribers are stalled.

Each :class:`Delivery` picks its overflow policy for a full queue:

``"block"``
    The dispatching thread waits for the consumer to make room.
    Lossless — this is deliberate backpressure that propagates queue
    pressure all the way to the processing cycle. Use it for
    subscribers that must see every delta and are trusted to keep up.

``"drop_oldest"``
    The oldest queued delta is discarded and counted
    (:attr:`Delivery.dropped`). The maintenance thread never waits.
    Replay parity is void once ``dropped > 0`` — consumers re-sync by
    pulling the query's result (a served subscription re-sends each
    query's full ``top`` after a drop, see
    :attr:`Delivery.dropped_at_take`).

``"coalesce"`` (the default)
    The backlog is collapsed **per query** into one equivalent
    ``cause="resync"`` delta (:func:`repro.core.results.merge_changes`),
    so the queue shrinks to at most one delta per distinct query while
    replaying the delivered sequence still reconstructs the pull
    result exactly. The lossless choice for slow subscribers: they see
    fewer, fatter deltas, never a wrong state.

Consumer callbacks receive ``(change, enqueued_at)`` where
``enqueued_at`` is the ``time.time()`` stamp taken at routing — the
serving layer forwards it over the wire so clients can measure
delivery latency end to end.

Teardown: closing a delivery (or the hub, or the monitor — the hub
hooks the monitor's subscription-cancel signal) wakes its consumer,
which drains whatever is queued and exits. Nothing in this module can
leave a thread blocked on a monitor that will never dispatch again.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.core.results import ResultChange, merge_changes
from repro.obs.trace import NULL_TRACER

#: recognised overflow policies.
POLICIES = ("block", "drop_oldest", "coalesce")

#: default per-delivery queue bound.
DEFAULT_MAXLEN = 256

#: consumer callback: (change, enqueued_at seconds since epoch).
DeliveryCallback = Callable[[ResultChange, float], None]


class Delivery:
    """One asynchronous subscriber: bounded queue + consumer thread.

    Created by :meth:`DeliveryHub.deliver` — not directly. The
    consumer thread is a daemon named after the delivery, so a hung
    subscriber callback can never prevent interpreter exit.
    """

    __slots__ = (
        "qid",
        "policy",
        "maxlen",
        "name",
        "_callback",
        "_hub",
        "_queue",
        "_cond",
        "_closed",
        "_held",
        "_busy",
        "_delivered",
        "_dropped",
        "_dropped_at_take",
        "_coalesced",
        "_errors",
        "_high_watermark",
        "_thread",
    )

    def __init__(
        self,
        hub: "DeliveryHub",
        qid: Optional[int],
        callback: DeliveryCallback,
        maxlen: int,
        policy: str,
        name: Optional[str] = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {policy!r}"
            )
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        #: qid the delivery watches; None = every query.
        self.qid = qid
        self.policy = policy
        self.maxlen = int(maxlen)
        self.name = name or (
            "all" if qid is None else f"q{qid}"
        )
        self._callback = callback
        self._hub = hub
        self._queue: Deque = deque()  # of (change, enqueued_at)
        self._cond = threading.Condition()
        self._closed = False
        self._held = False
        self._busy = False
        self._delivered = 0
        self._dropped = 0
        self._dropped_at_take = 0
        self._coalesced = 0
        self._errors = 0
        self._high_watermark = 0
        self._thread = threading.Thread(
            target=self._run,
            name=f"repro-delivery-{self.name}",
            daemon=True,
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Producer side (runs on the monitor's dispatch thread)
    # ------------------------------------------------------------------

    def _enqueue(self, change: ResultChange) -> None:
        enqueued_at = time.time()
        with self._cond:
            if self._closed:
                return
            if len(self._queue) >= self.maxlen:
                if self.policy == "block":
                    self._cond.wait_for(
                        lambda: len(self._queue) < self.maxlen
                        or self._closed
                    )
                    if self._closed:
                        return
                elif self.policy == "drop_oldest":
                    self._queue.popleft()
                    self._dropped += 1
                else:  # coalesce
                    self._coalesce_locked()
            self._queue.append((change, enqueued_at))
            if len(self._queue) > self._high_watermark:
                self._high_watermark = len(self._queue)
            self._cond.notify_all()

    def _coalesce_locked(self) -> None:
        """Collapse the queued backlog to one resync delta per query.

        After collapsing, the queue holds at most one delta per
        distinct qid (order of first appearance, each stamped with its
        oldest constituent's enqueue time) — so a coalescing delivery
        is bounded by ``max(maxlen, watched queries)`` even if the
        consumer never drains.
        """
        merged: Dict[int, tuple] = {}
        order: List[int] = []
        for change, enqueued_at in self._queue:
            if change.qid in merged:
                previous, first_at = merged[change.qid]
                merged[change.qid] = (
                    merge_changes(previous, change),
                    first_at,
                )
            else:
                merged[change.qid] = (change, enqueued_at)
                order.append(change.qid)
        collapsed = [
            (merged[qid][0], merged[qid][1]) for qid in order
        ]
        self._coalesced += len(self._queue) - len(collapsed)
        self._queue.clear()
        self._queue.extend(collapsed)

    # ------------------------------------------------------------------
    # Consumer thread
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                while (not self._queue or self._held) and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    break  # closed and drained
                change, enqueued_at = self._queue.popleft()
                self._dropped_at_take = self._dropped
                self._busy = True
                self._cond.notify_all()
            try:
                self._callback(change, enqueued_at)
                with self._cond:
                    self._delivered += 1
                self._hub._observe_latency(time.time() - enqueued_at)
            except Exception:
                with self._cond:
                    self._errors += 1
            finally:
                with self._cond:
                    self._busy = False
                    self._cond.notify_all()

    # ------------------------------------------------------------------
    # Introspection / control
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Deltas queued and not yet handed to the callback."""
        return len(self._queue)

    @property
    def delivered(self) -> int:
        """Callback invocations that returned without raising."""
        return self._delivered

    @property
    def dropped(self) -> int:
        """Deltas discarded by the ``drop_oldest`` policy."""
        return self._dropped

    @property
    def dropped_at_take(self) -> int:
        """:attr:`dropped` as it stood when the consumer took the delta
        its callback is handling. A drop discards the *oldest* queued
        delta, so every drop counted here removed one older than that
        delta: a callback that sees this grow knows a delta went
        missing between its previous call and this one (the serving
        runtime re-primes the subscription's queries then). Read it
        from the callback only."""
        return self._dropped_at_take

    @property
    def coalesced(self) -> int:
        """Deltas absorbed into resync deltas by ``coalesce``."""
        return self._coalesced

    @property
    def errors(self) -> int:
        """Callback invocations that raised (swallowed and counted)."""
        return self._errors

    @property
    def high_watermark(self) -> int:
        """Deepest queue depth ever observed."""
        return self._high_watermark

    @property
    def closed(self) -> bool:
        return self._closed

    def hold(self) -> None:
        """Suspend the consumer (deltas keep queueing; the overflow
        policy governs a full queue). Deterministic-backlog switch for
        tests and staged consumers."""
        with self._cond:
            self._held = True

    def release(self) -> None:
        """Resume a held consumer."""
        with self._cond:
            self._held = False
            self._cond.notify_all()

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Wait until the queue is drained *and* the callback is not
        mid-flight. False on timeout (or when the consumer is held
        with work still queued)."""
        with self._cond:
            return self._cond.wait_for(
                lambda: (not self._queue and not self._busy)
                or (self._held and bool(self._queue)),
                timeout=timeout,
            ) and not self._queue and not self._busy

    def stats(self) -> Dict[str, int]:
        with self._cond:
            return {
                "pending": len(self._queue),
                "delivered": self._delivered,
                "dropped": self._dropped,
                "coalesced": self._coalesced,
                "errors": self._errors,
                "high_watermark": self._high_watermark,
            }

    def close(
        self,
        drain: bool = True,
        timeout: float = 5.0,
        join: bool = True,
    ) -> None:
        """Stop the delivery. The consumer drains what is queued
        (unless ``drain=False``) and exits; blocked ``block``-policy
        producers are released. Idempotent.

        ``join=False`` skips waiting for the consumer thread — the
        right call from a thread the consumer itself may be waiting
        on (the server's event loop closes deliveries this way: a
        consumer parked on that loop's write backlog can only exit
        once the loop runs again).
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            if not drain:
                self._queue.clear()
            self._held = False
            self._cond.notify_all()
        self._hub._forget(self)
        if join and threading.current_thread() is not self._thread:
            self._thread.join(timeout=timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"Delivery({self.name}, {self.policy}, maxlen={self.maxlen}, "
            f"pending={self.pending}, {state})"
        )


class DeliveryHub:
    """Bounded-queue fan-out of one monitor's deltas.

    One hub serves any number of deliveries. It is the delivery layer
    of the serving runtime (:class:`repro.service.server.MonitorServer`
    attaches one Delivery per remote subscription), and equally usable
    in-process::

        hub = DeliveryHub(monitor)
        delivery = hub.deliver(
            lambda change, at: slow_sink(change),
            qid=handle.qid, policy="coalesce", maxlen=64,
        )
        ...
        hub.close()

    The hub's monitor subscription is cancelled automatically when the
    monitor closes; its deliveries then drain and stop. Closing the
    hub (or the monitor) is the only teardown required.
    """

    def __init__(
        self,
        monitor,
        default_policy: str = "coalesce",
        default_maxlen: int = DEFAULT_MAXLEN,
        registry=None,
    ) -> None:
        if default_policy not in POLICIES:
            raise ValueError(
                f"default_policy must be one of {POLICIES}, "
                f"got {default_policy!r}"
            )
        self.monitor = monitor
        self.default_policy = default_policy
        self.default_maxlen = int(default_maxlen)
        self._lock = threading.Lock()
        self._by_qid: Dict[int, List[Delivery]] = {}
        self._all: List[Delivery] = []
        self._closed = False
        #: cumulative totals of deliveries that have since detached,
        #: so collect-time counters stay monotonic across churn.
        self._retired = {
            "delivered": 0,
            "dropped": 0,
            "coalesced": 0,
            "errors": 0,
        }
        #: metrics default to the monitor's registry; pass an explicit
        #: registry (or an object without one) to opt out.
        if registry is None:
            registry = getattr(monitor, "metrics_registry", None)
        self.registry = registry
        self._latency = None
        if registry is not None:
            # Histogram observes come from many consumer threads, so
            # this one instrument takes a lock (delivery events are
            # per-delta, never per-record — the cost is noise).
            self._metrics_lock = threading.Lock()
            self._latency = registry.histogram(
                "repro_delivery_latency_seconds",
                "seconds from delta enqueue to subscriber callback "
                "return",
            )
            # Registered through a WeakMethod: the monitor owns this
            # registry, so a strong bound method would tie hub and
            # monitor into a reference cycle (hub -> monitor ->
            # registry -> hub) that outlives close() and defers both
            # to gen-2 GC.
            collect_ref = weakref.WeakMethod(self._collect_metrics)

            def _collect(reg, ref=collect_ref):
                method = ref()
                if method is not None:
                    method(reg)

            registry.add_collector(_collect)
        self._tracer = getattr(monitor, "tracer", None) or NULL_TRACER
        self._subscription = monitor.subscribe_all(self._route)
        self._subscription.add_cancel_hook(self._on_monitor_gone)

    # ------------------------------------------------------------------
    # Routing (runs on the monitor's dispatch thread)
    # ------------------------------------------------------------------

    def _route(self, change: ResultChange) -> None:
        with self._lock:
            targets = list(self._by_qid.get(change.qid, ()))
            targets.extend(self._all)
        if not targets:
            return
        # Runs on the engine's dispatch thread, inside its "dispatch"
        # span — the "delivery" sub-span isolates enqueue time (and
        # any block-policy backpressure wait) from raw fan-out.
        with self._tracer.span("delivery"):
            for delivery in targets:
                delivery._enqueue(change)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def deliver(
        self,
        callback: DeliveryCallback,
        qid: Optional[int] = None,
        maxlen: Optional[int] = None,
        policy: Optional[str] = None,
        name: Optional[str] = None,
    ) -> Delivery:
        """Attach one asynchronous subscriber.

        ``callback(change, enqueued_at)`` runs on the delivery's own
        consumer thread for every delta of ``qid`` (or of every query
        when None). ``policy`` / ``maxlen`` default to the hub's.
        """
        if self._closed:
            raise RuntimeError("DeliveryHub is closed")
        delivery = Delivery(
            self,
            None if qid is None else int(qid),
            callback,
            maxlen=self.default_maxlen if maxlen is None else int(maxlen),
            policy=self.default_policy if policy is None else policy,
            name=name,
        )
        with self._lock:
            if delivery.qid is None:
                self._all.append(delivery)
            else:
                self._by_qid.setdefault(delivery.qid, []).append(delivery)
        return delivery

    def _forget(self, delivery: Delivery) -> None:
        snapshot = delivery.stats()
        with self._lock:
            for key in self._retired:
                self._retired[key] += snapshot[key]
            if delivery.qid is None:
                if delivery in self._all:
                    self._all.remove(delivery)
                return
            bucket = self._by_qid.get(delivery.qid)
            if bucket and delivery in bucket:
                bucket.remove(delivery)
                if not bucket:
                    del self._by_qid[delivery.qid]

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def deliveries(self) -> List[Delivery]:
        with self._lock:
            found = list(self._all)
            for bucket in self._by_qid.values():
                found.extend(bucket)
        return found

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Wait for every delivery's queue to drain (see
        :meth:`Delivery.flush`)."""
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        for delivery in self.deliveries():
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            if not delivery.flush(timeout=remaining):
                return False
        return True

    def stats(self) -> Dict[str, int]:
        """Aggregate queue accounting across every delivery."""
        totals = {
            "deliveries": 0,
            "pending": 0,
            "delivered": 0,
            "dropped": 0,
            "coalesced": 0,
            "errors": 0,
            "high_watermark": 0,
        }
        for delivery in self.deliveries():
            snapshot = delivery.stats()
            totals["deliveries"] += 1
            totals["pending"] += snapshot["pending"]
            totals["delivered"] += snapshot["delivered"]
            totals["dropped"] += snapshot["dropped"]
            totals["coalesced"] += snapshot["coalesced"]
            totals["errors"] += snapshot["errors"]
            totals["high_watermark"] = max(
                totals["high_watermark"], snapshot["high_watermark"]
            )
        return totals

    # ------------------------------------------------------------------
    # Metrics (no-ops when the hub has no registry)
    # ------------------------------------------------------------------

    def _observe_latency(self, seconds: float) -> None:
        histogram = self._latency
        if histogram is None:
            return
        with self._metrics_lock:
            histogram.observe(seconds)

    def _collect_metrics(self, registry) -> None:
        """Collect-time adapter (the ``publish_op_counters`` pattern):
        queue accounting is re-read on every snapshot/exposition, so
        consumer threads never touch the registry beyond the latency
        histogram."""
        totals = self.stats()
        with self._lock:
            retired = dict(self._retired)
        for key in ("delivered", "dropped", "coalesced", "errors"):
            counter = registry.counter(
                f"repro_delivery_{key}_total",
                f"cumulative {key} deltas across all deliveries "
                "(detached deliveries included)",
            )
            counter.value = totals[key] + retired[key]
        registry.gauge(
            "repro_delivery_queue_depth",
            "deltas currently queued across all live deliveries",
        ).set(float(totals["pending"]))
        registry.gauge(
            "repro_delivery_queue_high_watermark",
            "deepest queue depth observed by any live delivery",
        ).set(float(totals["high_watermark"]))
        registry.gauge(
            "repro_delivery_subscribers",
            "live deliveries attached to the hub",
        ).set(float(totals["deliveries"]))

    @property
    def closed(self) -> bool:
        return self._closed

    def _on_monitor_gone(self) -> None:
        # The monitor closed (or our subscription was cancelled): no
        # further deltas can arrive. Drain and stop every delivery.
        self.close()

    def close(self) -> None:
        """Detach from the monitor and stop every delivery (each
        drains its queue first). Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._subscription.cancel()
        for delivery in self.deliveries():
            delivery.close()

    def __enter__(self) -> "DeliveryHub":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
