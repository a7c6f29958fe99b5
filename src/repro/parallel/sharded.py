"""Coordinator of the query-sharded parallel maintenance engine.

:class:`ShardedMonitorAlgorithm` implements the
:class:`~repro.algorithms.base.MonitorAlgorithm` interface by fanning
work out to N shards behind :class:`~repro.transport.base.ShardChannel`
links (:mod:`repro.transport`). The decomposition follows the paper's
additive per-query cost model (Section 6):

- **stream state is replicated** — every shard ingests every cycle's
  arrivals/expirations into its own grid, exactly as a single-process
  run would (grid ingestion is the cheap, batched part of a cycle);
- **query state is partitioned** — each registered query lives on
  exactly one shard (:class:`~repro.parallel.sharding.ShardPlanner`),
  so the expensive part — influence checks, top-list/skyband upkeep,
  from-scratch recomputations — splits ~evenly and runs in parallel;
- **results merge by qid** — per-cycle change reports are disjoint
  across shards, and query-driven counters are additive, so the merge
  is a union plus a sum. Replica-ingestion counters (``arrivals``,
  ``expirations``, TSL's ``sorted_list_updates``) are identical on
  every shard and adopted from shard 0 alone — merged counters match
  a single-process run's.

**Records cross once.** A cycle frame is cut from the coordinator's
:class:`~repro.core.window.RecordStore` — the monitor's one copy of the
window — as arrival columns plus expired *ids*, and shards reply with
``(score, rid)`` columns only. :func:`resolve_changes` rebuilds each
change from the store's rid index and the cached results. The engine
releases a cycle's expired slots only after :meth:`finish_cycle`
merged that cycle (under pipelining, cycle *t+1* is prepared before
*t* is finished), so every rid a reply names is still stored.

**Transports.** ``shards=N`` spawns N worker processes on pipe
channels (:class:`~repro.transport.pipe.PipeChannel`, the
shared-memory snapshot fast path intact); ``shards=["host:port",
...]`` dials that many remote shard hosts
(:mod:`repro.cluster.shard`) over TCP channels carrying the same
messages as length-delimited binary columnar frames. The
coordinator sees only the channel API — no pipes, sockets, or
shared-memory names — and one pool may mix transports. Per-cycle
bytes on the wire (and bytes placed in shared memory) are recorded
and surfaced via :meth:`transport_stats`.

**Exactness.** A query's maintenance depends only on the stream (same
records, rebuilt bit-for-bit from the columnar snapshot — shared
memory and raw wire blocks both carry the float64 bytes themselves)
and on its own state — never on other queries. Sharding therefore
yields *bitwise-identical* results and influence regions to a
single-process run regardless of transport; the parity suites
(``tests/integration/test_sharded_parity.py``,
``tests/integration/test_remote_parity.py``) pin this across shard
counts, algorithms, grouping, churn, transports, and both batch
backends. Grouped variants keep their sweeps intact because the
planner routes whole similarity buckets to one shard.

**Pipelined broadcast.** :meth:`ShardedMonitorAlgorithm.process_cycle`
is strict lockstep (encode → send-all → recv-all → merge). The same
work is also exposed as three phases — :meth:`prepare_cycle` (encode
only), :meth:`begin_cycle` (send, don't wait) and :meth:`finish_cycle`
(completion-order receive + merge) — so
:meth:`~repro.core.engine.StreamMonitor.process_many` can build cycle
*t+1*'s snapshot while the shards still compute cycle *t*. Replies are
always collected in completion order
(:func:`repro.transport.base.wait_ready` multiplexes pipe and socket
channels in one wait), so a fast shard's report is decoded and merged
while slow shards still work. Results stay bitwise identical: workers
serve requests strictly in channel order, and at most one cycle is
ever in flight.

Worker processes are daemons; :meth:`close` shuts the pool down
gracefully (remote hosts end their session and re-listen), and
abandoning the object terminates local workers. Set
``REPRO_SHARD_START_METHOD`` (``fork``/``spawn``/``forkserver``) and
``REPRO_SHARD_TIMEOUT`` (seconds per round trip) to override the
defaults.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.algorithms.base import MonitorAlgorithm
from repro.core.errors import DimensionalityError, ProtocolError, StreamError
from repro.core.queries import TopKQuery
from repro.core.results import ResultChange, ResultEntry, rebuild_change
from repro.core.tuples import StreamRecord
from repro.core.window import RecordStore, Slots
from repro.parallel.sharding import ShardPlanner
from repro.parallel.worker import worker_main
from repro.transport.base import (
    ChannelClosed,
    ChannelError,
    ChannelTimeout,
    PreparedCycle,
    ShardChannel,
    WorkerFailure,
    prepare_cycle as encode_prepared_cycle,
    publish_channel_metrics,
    wait_ready,
)
from repro.transport.pipe import PipeChannel
from repro.transport.tcp import TcpChannel

#: counters driven purely by stream ingestion, which every worker
#: performs on its full replica: summing them across shards would
#: inflate them N-fold, so the merge adopts shard 0's values (equal on
#: every shard — replicas ingest identical batches) and skips the
#: other shards' duplicates. Everything else is query-driven and
#: partitions, so it sums.
_REPLICATED_COUNTERS = frozenset(
    {"arrivals", "expirations", "sorted_list_updates"}
)

#: per-cycle transport samples retained for stats() (oldest evicted).
_CYCLE_LOG_LIMIT = 1024


def _default_start_method() -> str:
    preferred = os.environ.get("REPRO_SHARD_START_METHOD", "").strip()
    if preferred:
        return preferred
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _rpc_timeout() -> float:
    return float(os.environ.get("REPRO_SHARD_TIMEOUT", "120"))


def _records(rids: Sequence[int], store: RecordStore) -> List[StreamRecord]:
    try:
        return list(map(store.record_of, rids))
    except KeyError as exc:
        raise ProtocolError(
            f"a shard reply names record id {exc.args[0]}, which is not "
            "in the window"
        ) from None


def resolve_entries(
    scores: Sequence[float], rids: Sequence[int], store: RecordStore
) -> List[ResultEntry]:
    """One result's ``(score, rid)`` columns → its entries, each
    holding the store's record for its rid."""
    if len(set(rids)) != len(rids):
        raise ProtocolError("a shard result repeats a record id")
    return list(map(ResultEntry, scores, _records(rids, store)))


def resolve_changes(
    columns, store: RecordStore, results: Dict[int, List[ResultEntry]]
) -> Dict[int, ResultChange]:
    """One shard's cycle reply columns → its ``{qid: ResultChange}``,
    against ``results``, each query's best-first result before the
    cycle: added rids resolve through ``store``, and each change is
    rebuilt by :func:`~repro.core.results.rebuild_change`, the rebuild
    the service client runs on delta events. Reads only; a malformed
    reply is a ``ProtocolError``."""
    qids, added_counts, removed_counts, scores, added_rids, removed_rids = (
        columns
    )
    entries = list(map(ResultEntry, scores, _records(added_rids, store)))
    changes: Dict[int, ResultChange] = {}
    added_at = removed_at = 0
    for qid, n_added, n_removed in zip(qids, added_counts, removed_counts):
        cached = results.get(qid)
        if cached is None or qid in changes:
            raise ProtocolError(
                f"a shard reports a change of query {qid}, which is not "
                "registered or already changed this cycle"
            )
        added_end = added_at + n_added
        changes[qid] = rebuild_change(
            qid,
            cached,
            entries[added_at:added_end],
            removed_rids[removed_at : removed_at + n_removed],
        )
        added_at = added_end
        removed_at += n_removed
    return changes


class ShardedMonitorAlgorithm(MonitorAlgorithm):
    """Query-sharded parallel execution of a named algorithm.

    Args:
        algorithm: factory name of the per-shard algorithm (``"tma"``,
            ``"sma"``, ``"sma-grouped"``, ``"tsl"``, ``"brute"`` — any
            :func:`~repro.algorithms.make_algorithm` name).
        dims: data dimensionality.
        shards: number of worker processes (>= 1), or a sequence of
            ``"host:port"`` addresses of running
            ``python -m repro.cluster.shard`` hosts — one remote
            shard per address.
        cells_per_axis: grid granularity forwarded to grid-based
            algorithms (workers resolve the same default when None).
        trace: enable per-cycle phase tracing in every worker. Each
            worker runs its own :class:`~repro.obs.trace.CycleTracer`
            over a worker-local registry and ships the registry's
            per-cycle *delta* in its cycle reply; the coordinator
            merges the deltas, so merged phase histograms measure
            pool-wide work.
        **options: forwarded to the per-shard algorithm factory
            (e.g. ``grouped=True``). Must be JSON-serialisable when
            remote addresses are used (they cross the configure
            handshake).
    """

    name = "sharded"

    def __init__(
        self,
        algorithm: str,
        dims: int,
        shards: Union[int, Sequence[str]],
        cells_per_axis: Optional[int] = None,
        trace: bool = False,
        **options,
    ) -> None:
        from repro.algorithms import ALGORITHMS

        super().__init__(dims)
        if not isinstance(algorithm, str):
            raise TypeError(
                "sharded execution needs an algorithm factory name; "
                f"got {type(algorithm).__name__}"
            )
        key = algorithm.lower()
        if key not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; "
                f"choose from {sorted(ALGORITHMS)}"
            )
        addresses: Optional[List[str]] = None
        if isinstance(shards, str):
            addresses = [shards]
        elif not isinstance(shards, int) and shards is not None:
            addresses = [str(address) for address in shards]
            if not addresses:
                raise ValueError(
                    "shards address list must name at least one "
                    "'host:port' shard host"
                )
        if addresses is None:
            if shards < 1:
                raise ValueError(f"shards must be >= 1, got {shards}")
            count = shards
        else:
            count = len(addresses)
        self.base_algorithm = key
        self.shards = count
        self.transport = "pipe" if addresses is None else "tcp"
        self.name = f"{key}x{count}"
        self.trace = bool(trace)
        #: reserved key the worker factories pop before constructing
        #: the per-shard algorithm (JSON-serialisable: it crosses the
        #: TCP configure handshake verbatim).
        worker_options = dict(options)
        worker_options["_obs"] = {"trace": self.trace}
        self.planner = ShardPlanner(count)
        self._queries: Dict[int, TopKQuery] = {}
        self._results: Dict[int, List[ResultEntry]] = {}
        self._last_counters: List[Dict[str, int]] = [
            {} for _ in range(count)
        ]
        self._timeout = _rpc_timeout()
        self._channels: List[ShardChannel] = []
        #: the one in-flight pipelined cycle:
        #: (PreparedCycle, wire-bytes baseline) or None.
        self._pending = None
        self._cycle_log: deque = deque(maxlen=_CYCLE_LOG_LIMIT)
        self._cycles_recorded = 0
        self._cycle_wire_total = 0
        self._cycle_shared_total = 0
        try:
            if addresses is None:
                context = multiprocessing.get_context(
                    _default_start_method()
                )
                for shard in range(count):
                    self._channels.append(
                        PipeChannel.spawn(
                            context,
                            worker_main,
                            (key, dims, cells_per_axis, worker_options),
                            name=f"repro-shard-{shard}",
                        )
                    )
            else:
                for shard, address in enumerate(addresses):
                    try:
                        self._channels.append(
                            TcpChannel.connect(
                                address,
                                algorithm=key,
                                dims=dims,
                                cells_per_axis=cells_per_axis,
                                options=worker_options,
                                timeout=self._timeout,
                            )
                        )
                    except WorkerFailure as exc:
                        raise StreamError(
                            f"shard host {address!r} rejected the "
                            f"configure handshake:\n{exc}"
                        ) from None
                    except ChannelError as exc:
                        raise StreamError(
                            f"cannot bring up remote shard {shard} at "
                            f"{address!r}: {exc}"
                        ) from None
        except BaseException:
            self._terminate()
            raise

    # ------------------------------------------------------------------
    # Shard RPC plumbing (transport-agnostic: channels only)
    # ------------------------------------------------------------------

    def _recv(self, shard: int):
        channel = self._channels[shard]
        try:
            return channel.response(self._timeout)
        except ChannelTimeout:
            self._terminate()
            raise StreamError(
                f"shard {shard} ({self.name}) did not reply within "
                f"{self._timeout:.0f}s; worker pool terminated"
            ) from None
        except ChannelClosed as exc:
            self._terminate()
            raise StreamError(
                f"shard {shard} ({self.name}) died mid-request "
                f"[{channel.describe()}: {exc}]"
            ) from None
        except WorkerFailure as exc:
            self._terminate()
            raise StreamError(
                f"shard {shard} ({self.name}) failed:\n{exc}"
            ) from None

    def _ensure_open(self) -> None:
        if not self._channels:
            raise StreamError(
                f"worker pool of {self.name} is closed; create a new "
                "monitor (close() tears the shards down for good)"
            )

    def _send(self, shard: int, command: str, payload=None) -> None:
        try:
            self._channels[shard].request(command, payload)
        except ChannelClosed as exc:
            self._terminate()
            raise StreamError(
                f"shard {shard} ({self.name}) died mid-request "
                f"[{exc}]"
            ) from None

    def _call(self, shard: int, command: str, payload=None):
        self._ensure_open()
        self._require_no_pending(command)
        self._send(shard, command, payload)
        return self._recv(shard)

    def _broadcast(self, command: str, payload=None) -> List:
        self._ensure_open()
        self._require_no_pending(command)
        for shard in range(self.shards):
            self._send(shard, command, payload)
        return self._recv_all()

    def _recv_all(self) -> List:
        """Collect one reply per shard, in **completion order**.

        ``send-all/recv-all`` in shard order would idle the
        coordinator on shard 0 while faster shards sit with finished
        replies; waiting on whichever channel is readable
        (:func:`~repro.transport.base.wait_ready` — pipes and sockets
        in one wait set) lets the coordinator decode (and later merge)
        each reply while the stragglers still compute. Replies are
        returned indexed by shard, so callers stay
        order-deterministic.
        """
        pending: Dict[ShardChannel, int] = {
            self._channels[shard]: shard for shard in range(self.shards)
        }
        replies: List = [None] * self.shards
        deadline = time.monotonic() + self._timeout
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                ready: List[ShardChannel] = []
            else:
                ready = wait_ready(list(pending), remaining)
            if not ready:
                stuck = sorted(pending.values())
                self._terminate()
                raise StreamError(
                    f"shards {stuck} ({self.name}) did not reply within "
                    f"{self._timeout:.0f}s; worker pool terminated"
                )
            for channel in ready:
                shard = pending.pop(channel)
                try:
                    replies[shard] = channel.response(
                        max(0.001, deadline - time.monotonic())
                    )
                except ChannelTimeout:
                    self._terminate()
                    raise StreamError(
                        f"shards [{shard}] ({self.name}) did not reply "
                        f"within {self._timeout:.0f}s; worker pool "
                        "terminated"
                    ) from None
                except ChannelClosed as exc:
                    self._terminate()
                    raise StreamError(
                        f"shard {shard} ({self.name}) died mid-request "
                        f"[{channel.describe()}: {exc}]"
                    ) from None
                except WorkerFailure as exc:
                    self._terminate()
                    raise StreamError(
                        f"shard {shard} ({self.name}) failed:\n{exc}"
                    ) from None
        return replies

    def _merge_counters(self, shard: int, snapshot: Dict[str, int]) -> None:
        """Fold one worker's counter snapshot into the merged totals.

        Workers report cumulative counts; the coordinator applies the
        delta since that worker's previous report, so coordinator-side
        ``counters.reset()`` (benchmark warm-up) keeps working.
        Replica-ingestion counters (:data:`_REPLICATED_COUNTERS`) are
        taken from shard 0 alone so the merged totals equal a
        single-process run's instead of N times it.
        """
        last = self._last_counters[shard]
        counters = self.counters
        for field_name, value in snapshot.items():
            if shard != 0 and field_name in _REPLICATED_COUNTERS:
                continue
            delta = value - last.get(field_name, 0)
            if delta:
                setattr(
                    counters,
                    field_name,
                    getattr(counters, field_name) + delta,
                )
        self._last_counters[shard] = snapshot

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------

    def register(self, query: TopKQuery) -> List[ResultEntry]:
        """Install one query on its planned shard (see
        :meth:`register_many` for burst registration)."""
        return self.register_many([query])[query.qid]

    def register_many(
        self, queries: List[TopKQuery]
    ) -> Dict[int, List[ResultEntry]]:
        """Install a burst of queries, one batched round trip per shard.

        Shard-local grouped algorithms then serve each shard's share of
        the burst through shared sweeps — and because the planner keeps
        similarity buckets whole, those groups are exactly the groups a
        single-process grouped registration would form.
        """
        self._ensure_open()
        self._require_no_pending("register_many")
        for query in queries:
            if query.dims != self.dims:
                raise DimensionalityError(
                    f"query function has {query.dims} dims, "
                    f"algorithm has {self.dims}"
                )
        per_shard: Dict[int, List[TopKQuery]] = {}
        for query in queries:
            per_shard.setdefault(self.planner.assign(query), []).append(
                query
            )
        for shard, batch_ in per_shard.items():
            self._send(shard, "register_many", batch_)
        results: Dict[int, List[ResultEntry]] = {}
        for shard in per_shard:
            (qids, counts, scores, rids), counters = self._recv(shard)
            self._merge_counters(shard, counters)
            start = 0
            for qid, count in zip(qids, counts):
                end = start + count
                results[qid] = resolve_entries(
                    scores[start:end], rids[start:end], self.store
                )
                start = end
        for query in queries:
            self._queries[query.qid] = query
            self._results[query.qid] = list(results[query.qid])
        return results

    def unregister(self, qid: int) -> None:
        """Terminate a query on its owning shard and release the slot."""
        query = self._queries.get(qid)
        if query is None:
            raise self._unknown_query(qid)
        shard = self.planner.release(qid)
        _, counters = self._call(shard, "unregister", qid)
        self._merge_counters(shard, counters)
        del self._queries[qid]
        del self._results[qid]

    def update_query(
        self,
        qid: int,
        k: Optional[int] = None,
        function=None,
    ) -> List[ResultEntry]:
        """In-flight mutation as one round trip to the owning shard.

        The worker's algorithm applies its own in-place path (TMA
        trims, SMA/TSL recompute from local window state) and replies
        with the new result; the coordinator mirrors the spec change
        on its copy and re-buckets the planner accounting
        (:meth:`~repro.parallel.sharding.ShardPlanner.rekey`) so
        similarity bookkeeping follows the new preference vector.
        """
        query = self._queries.get(qid)
        if query is None:
            raise self._unknown_query(qid)
        shard = self.planner.shard_of(qid)
        (scores, rids), counters = self._call(
            shard, "update", (qid, k, function)
        )
        self._merge_counters(shard, counters)
        entries = resolve_entries(scores, rids, self.store)
        if k is not None:
            query.k = k
        if function is not None:
            query.function = function
        self.planner.rekey(qid, query)
        self._results[qid] = list(entries)
        return list(entries)

    def current_result(self, qid: int) -> List[ResultEntry]:
        """Current top-k of a query (coordinator-side cache, refreshed
        from each cycle's merged change reports)."""
        entries = self._results.get(qid)
        if entries is None:
            raise self._unknown_query(qid)
        return list(entries)

    def queries(self) -> Iterable[TopKQuery]:
        """The registered query specs (coordinator copies)."""
        return list(self._queries.values())

    # ------------------------------------------------------------------
    # Cycle processing
    # ------------------------------------------------------------------

    def process_cycle(
        self,
        arrivals: Sequence,
        expirations: Sequence,
    ) -> Dict[int, ResultChange]:
        """Broadcast one cycle to every shard and merge the reports.

        Workers diff their own queries' results (the usual lazy
        snapshot machinery runs shard-locally), so the merged report is
        the disjoint union of per-shard change dicts — identical to the
        single-process report. ``arrivals``/``expirations`` (and the
        other replica-ingestion counters) come from shard 0's delta.

        This is the strict (non-pipelined) path: encode, send, wait,
        merge. :meth:`prepare_cycle` / :meth:`begin_cycle` /
        :meth:`finish_cycle` expose the same work as three phases so
        :meth:`~repro.core.engine.StreamMonitor.process_many` can
        overlap the next cycle's snapshot encode with these shards
        still computing the current one. Record sequences take the
        base class's store round trip.
        """
        if type(arrivals) is not Slots:
            return self._process_records(arrivals, expirations)
        self.begin_cycle(self.prepare_cycle(arrivals, expirations))
        return self.finish_cycle()

    # ------------------------------------------------------------------
    # Pipelined broadcast (see StreamMonitor.process_many)
    # ------------------------------------------------------------------

    #: the engine's process_many switches to the begin/finish split
    #: when the algorithm advertises this.
    supports_pipelining = True

    def prepare_cycle(
        self,
        arrivals: Sequence[int],
        expirations: Sequence[int],
    ) -> PreparedCycle:
        """Encode one cycle's broadcast without sending it.

        ``arrivals`` and ``expirations`` are slots of :attr:`store`.
        Pure coordinator-side CPU (the arrival columns cut from the
        store, then the per-transport encode: shared-memory fill for
        pipes, binary columnar deltas for TCP) — the portion of a cycle
        that pipelining hides under the shards' in-flight work. The
        returned token is consumed by exactly one :meth:`begin_cycle`.
        """
        self._ensure_open()
        store = self.store
        rids = store.rids
        expired = [rids[slot] for slot in expirations]
        with self.tracer.span("encode"):
            return encode_prepared_cycle(
                self._channels, store.columns(arrivals), expired
            )

    def begin_cycle(self, prepared: PreparedCycle) -> None:
        """Send a prepared snapshot to every shard and return without
        waiting. Exactly one cycle may be in flight; interleaving
        registration/mutation RPCs with an in-flight cycle would
        reorder work between shards, so those raise until
        :meth:`finish_cycle` collects the replies."""
        self._ensure_open()
        if self._pending is not None:
            raise StreamError(
                f"{self.name} already has a cycle in flight; call "
                "finish_cycle() before beginning the next"
            )
        baseline = self._wire_totals()
        try:
            for channel in self._channels:
                channel.send_cycle(prepared.payload_for(channel.kind))
        except ChannelClosed as exc:
            prepared.close()
            self._terminate()
            raise StreamError(
                f"shard channel died mid-broadcast on {self.name} "
                f"[{exc}]"
            ) from None
        except BaseException:
            prepared.close()
            raise
        self._pending = (prepared, baseline)

    def finish_cycle(self) -> Dict[int, ResultChange]:
        """Wait for the in-flight cycle's replies (completion order)
        and merge them into one change report. Every reply is resolved
        before any cached result is replaced: a refused one leaves them
        all as they were and terminates the pool."""
        if self._pending is None:
            raise StreamError(f"{self.name} has no cycle in flight")
        (prepared, baseline), self._pending = self._pending, None
        try:
            with self.tracer.span("shard_rpc"):
                replies = self._recv_all()
        finally:
            # Workers copy out of the shared segment before replying,
            # so the segment is release-safe once every reply (or the
            # terminating error) is in.
            prepared.close()
        self._record_cycle(prepared, baseline)
        changes: Dict[int, ResultChange] = {}
        try:
            for shard, (columns, counters, metrics_delta) in enumerate(
                replies
            ):
                self._merge_counters(shard, counters)
                if metrics_delta and self.metrics is not None:
                    # Worker registries hold phase histograms and
                    # gauges only (OpCounters merge via _merge_counters
                    # above); histograms sum to pool-wide work, gauges
                    # are last-writer-wins in shard order.
                    self.metrics.merge(metrics_delta)
                changes.update(
                    resolve_changes(columns, self.store, self._results)
                )
        except ProtocolError:
            self._terminate()
            raise
        for qid, change in changes.items():
            self._results[qid] = list(change.top)
        return changes

    def _require_no_pending(self, operation: str) -> None:
        if self._pending is not None:
            raise StreamError(
                f"{operation} while a pipelined cycle is in flight on "
                f"{self.name}; finish_cycle() first"
            )

    def _apply_cycle(
        self, arrivals: Slots, expirations: Slots
    ) -> None:  # pragma: no cover - process_cycle is overridden
        raise NotImplementedError("sharded cycles run in workers")

    # ------------------------------------------------------------------
    # Transport accounting
    # ------------------------------------------------------------------

    def _wire_totals(self) -> Dict[str, int]:
        sent = 0
        received = 0
        for channel in self._channels:
            sent += channel.bytes_sent
            received += channel.bytes_received
        return {"sent": sent, "received": received}

    def _record_cycle(
        self, prepared: PreparedCycle, baseline: Dict[str, int]
    ) -> None:
        totals = self._wire_totals()
        sample = {
            "wire_sent_bytes": totals["sent"] - baseline["sent"],
            "wire_received_bytes": totals["received"]
            - baseline["received"],
            "shared_bytes": prepared.shared_bytes,
        }
        sample["wire_bytes"] = (
            sample["wire_sent_bytes"] + sample["wire_received_bytes"]
        )
        self._cycle_log.append(sample)
        self._cycles_recorded += 1
        self._cycle_wire_total += sample["wire_bytes"]
        self._cycle_shared_total += sample["shared_bytes"]
        if self.metrics is not None:
            publish_channel_metrics(self.metrics, self._channels)
            self.metrics.gauge(
                "repro_transport_cycle_shared_bytes",
                "bytes the last cycle placed in shared memory",
            ).set(float(sample["shared_bytes"]))

    def transport_stats(self) -> Dict:
        """Bytes-on-the-wire accounting, merged across the pool.

        Cumulative totals cover every RPC; the per-cycle figures cover
        cycle broadcasts plus their replies (``shared_bytes`` counts
        attribute blocks that rode shared memory instead of a pipe —
        always 0 for TCP shards). ``recent_cycles`` holds the last
        :data:`_CYCLE_LOG_LIMIT` per-cycle samples, oldest first. The
        returned structure is JSON-serialisable (the engine facade
        embeds it verbatim).
        """
        totals = self._wire_totals()
        last = self._cycle_log[-1] if self._cycle_log else None
        return {
            "transport": self.transport,
            "shards": self.shards,
            "endpoints": [
                channel.describe() for channel in self._channels
            ],
            "bytes_sent": totals["sent"],
            "bytes_received": totals["received"],
            "cycles": self._cycles_recorded,
            "cycle_wire_bytes_total": self._cycle_wire_total,
            "cycle_shared_bytes_total": self._cycle_shared_total,
            "last_cycle": dict(last) if last else None,
            "recent_cycles": [dict(sample) for sample in self._cycle_log],
        }

    # ------------------------------------------------------------------
    # Introspection (merged across shards)
    # ------------------------------------------------------------------

    def result_state_sizes(self) -> Dict[int, int]:
        """Per-query result-state entries, merged across shards."""
        sizes: Dict[int, int] = {}
        for shard, ((shard_sizes, _), counters) in enumerate(
            self._broadcast("stats")
        ):
            self._merge_counters(shard, counters)
            sizes.update(shard_sizes)
        return sizes

    def influence_list_entries(self) -> int:
        """Total influence-list entries across all shards.

        Each query's region lives only on its owning shard, so the sum
        equals a single-process run's total.
        """
        total = 0
        for shard, ((_, entries), counters) in enumerate(
            self._broadcast("stats")
        ):
            self._merge_counters(shard, counters)
            total += entries
        return total

    def ping(self) -> bool:
        """Round-trip every worker (health check / pipeline barrier).

        Workers answer strictly in channel order, so a successful ping
        proves every previously submitted cycle has been processed.
        """
        return all(
            reply == "pong" for reply in self._broadcast("ping")
        )

    def shard_spaces(self) -> List:
        """Per-shard :class:`~repro.analysis.memory.SpaceBreakdown`s.

        Stream state is replicated, so record/point-list bytes appear
        once *per shard* — the true footprint of a sharded deployment.
        """
        return self._broadcast("space")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the shard pool down gracefully (terminate stragglers).

        Idempotent, for pipes and remote hosts alike: a second call
        finds no channels and returns.
        """
        if self._pending is not None and self._channels:
            # Drain the in-flight cycle so workers reach their recv
            # loop (and the shared segment is released) before stop.
            try:
                self.finish_cycle()
            except (StreamError, ProtocolError):
                pass
        for channel in self._channels:
            channel.begin_shutdown()
        for channel in self._channels:
            try:
                channel.finish_shutdown(timeout=5)
            except ChannelError:  # pragma: no cover - defensive
                channel.terminate()
        self._channels = []
        self._drop_pending()

    def _drop_pending(self) -> None:
        if self._pending is not None:
            prepared, _ = self._pending
            prepared.close()
            self._pending = None

    def _terminate(self) -> None:
        self._drop_pending()
        for channel in self._channels:
            channel.terminate()
        self._channels = []

    def __enter__(self) -> "ShardedMonitorAlgorithm":
        """Context-manager entry: returns the algorithm itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: closes the worker pool."""
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self._terminate()
        except Exception:
            pass
