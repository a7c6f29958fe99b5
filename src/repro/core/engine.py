"""The unified monitoring facade: windows + algorithm + push delivery.

:class:`StreamMonitor` wires together a sliding window (or an
explicit-deletion live set), a monitoring algorithm, and the query
table, and exposes the processing-cycle model of the paper: each call
to :meth:`StreamMonitor.process` is one cycle — a batch of arrivals
enters the window, the records that fall out of the window expire, the
algorithm maintains every registered query, and the per-query result
changes are reported back *and* pushed to subscribers.

One facade serves every query kind and execution mode:

- **top-k / constrained / threshold queries** all register through
  :meth:`add_query` (the Section-7 extension monitors are thin shims
  over this facade now);
- ``stream_model="update"`` switches the engine to Section 7's
  explicit-deletion stream model (no sliding window; SMA is refused
  because the expiry order is unknown in advance);
- ``shards=N`` partitions queries across worker processes with
  bitwise-identical results.

:meth:`add_query` returns a :class:`~repro.core.handles.QueryHandle`
that owns the query's lifecycle — ``result()``, ``cancel()``,
``pause()``/``resume()``, in-flight ``update(k=…, weights=…)``, and
push delivery via ``subscribe(callback)`` / ``changes()``. Handles are
int-like (they hash and compare as their qid), so the original
qid-based calls (``monitor.result(qid)``, ``report.changes[qid]``)
keep working unchanged; see ``docs/API.md``.

Timing discipline: the engine times the algorithm's maintenance work
(the paper's measured quantity) per cycle in
:attr:`StreamMonitor.cycle_seconds`; the initial top-k computation
each registration performs in :attr:`StreamMonitor.setup_seconds`; and
in-flight mutations (update / pause / resume) in
:attr:`StreamMonitor.mutation_seconds` — three separate accounts, so
none can masquerade as (or hide from) another in a comparison.
Subscriber callbacks run *after* the maintenance clock stops.

Dead-on-arrival records: under a time-based window, an arrival already
older than ``now - duration`` would be inserted and evicted within the
same cycle, feeding the algorithm the same record as both an arrival
and an expiration. The engine drops such records before the window
ever sees them and reports the count in
:attr:`~repro.core.results.CycleReport.dead_on_arrival`.
"""

from __future__ import annotations

import time
import weakref
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Union,
)

from repro.core.errors import QueryError, StreamError
from repro.core.handles import ACTIVE, CANCELLED, CLOSED, PAUSED, QueryHandle
from repro.core.queries import (
    QueryTable,
    ThresholdQuery,
    TopKQuery,
    check_k,
)
from repro.core.results import (
    CycleReport,
    ResultChange,
    ResultEntry,
    diff_results,
)
from repro.core.scoring import CallableFunction, LinearFunction, check_monotone
from repro.core.subscriptions import (
    ChangeStream,
    Subscription,
    SubscriptionHub,
)
from repro.core.tuples import RecordFactory, StreamRecord
from repro.core.window import RecordBatch, RecordStore, SlidingWindow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms import MonitorAlgorithm

#: recognised stream models (see class docstring).
STREAM_MODELS = ("window", "update")


def _probe_monotone(function) -> None:
    """Refuse a user callable whose declared directions fail the
    :func:`~repro.core.scoring.check_monotone` probe. The library's own
    families are monotone by construction."""
    if isinstance(function, CallableFunction):
        check_monotone(function)


class StreamMonitor:
    """Continuous top-k monitoring over one multidimensional stream.

    Args:
        dims: data dimensionality.
        window: a :class:`~repro.core.window.SlidingWindow` instance
            (count-based or time-based). Required under the default
            ``stream_model="window"``; must be None under
            ``stream_model="update"`` (explicit deletions define the
            valid set there).
        algorithm: algorithm name (``"tma"``, ``"sma"``, ``"tsl"``,
            ``"brute"``, or ``"sma-grouped"``, SMA with similarity-
            grouped refills) or a pre-built
            :class:`~repro.algorithms.base.MonitorAlgorithm`.
        cells_per_axis: grid granularity for grid-based algorithms.
        shards: ``None``/``1`` runs the algorithm in-process (the
            default, byte-for-byte the single-process engine).
            ``N > 1`` partitions queries across N worker processes
            (:class:`~repro.parallel.sharded.ShardedMonitorAlgorithm`)
            — results are bitwise identical, maintenance parallelises.
            A ``"host:port"`` string or a sequence of them partitions
            queries across that many *remote* shard hosts
            (``python -m repro.cluster.shard``) over TCP — same
            bitwise-parity contract, columnar cycle deltas on the
            wire (see :meth:`stats`). Either form requires an
            algorithm *name* (workers build their own instances).
        stream_model: ``"window"`` (the paper's sliding window — FIFO
            expiry) or ``"update"`` (Section 7's explicit-deletion
            streams: :meth:`process` takes a ``deletions`` batch, no
            window exists, and SMA is refused because the skyband
            needs the expiry order in advance).
        trace: enable per-cycle phase tracing. Off (the default) the
            engine holds :data:`~repro.obs.trace.NULL_TRACER` and
            every span is a shared no-op object; on, each cycle is
            sliced into phase spans (ingest / traversal / skyband /
            encode / shard_rpc / dispatch — see
            docs/OBSERVABILITY.md) collected in a ring buffer
            (:meth:`last_traces`) and mirrored into phase histograms
            on :attr:`metrics_registry`. Sharded runs forward the
            flag to every worker, whose per-cycle phase deltas merge
            into the coordinator registry.
        slow_cycle_seconds / slow_cycle_path: with ``trace=True``,
            cycles slower than the threshold are appended as JSON
            lines to the path (surviving the ring buffer).
        **algorithm_options: forwarded to the algorithm factory —
            e.g. ``grouped=True`` makes SMA batch each cycle's
            skyband refills by preference-vector similarity
            (bitwise-identical results, shared grid sweeps).

    Example:
        >>> from repro import LinearFunction, TopKQuery, CountBasedWindow
        >>> monitor = StreamMonitor(2, CountBasedWindow(4), algorithm="sma",
        ...                         cells_per_axis=4)
        >>> handle = monitor.add_query(TopKQuery(LinearFunction([1.0, 2.0]), k=1))
        >>> records = monitor.make_records([[0.3, 0.4], [0.9, 0.8]])
        >>> report = monitor.process(records)
        >>> [entry.rid for entry in handle.result()]
        [1]
    """

    def __init__(
        self,
        dims: int,
        window: Optional[SlidingWindow] = None,
        algorithm: Union[str, "MonitorAlgorithm"] = "sma",
        cells_per_axis: Optional[int] = None,
        shards: Union[int, str, Sequence[str], None] = None,
        stream_model: str = "window",
        trace: bool = False,
        slow_cycle_seconds: Optional[float] = None,
        slow_cycle_path: Optional[str] = None,
        **algorithm_options,
    ) -> None:
        # Imported here to keep repro.core importable on its own
        # (repro.algorithms.base imports repro.core in turn).
        from repro.algorithms import MonitorAlgorithm, make_algorithm

        if stream_model not in STREAM_MODELS:
            raise ValueError(
                f"stream_model must be one of {STREAM_MODELS}, "
                f"got {stream_model!r}"
            )
        self.dims = dims
        self.stream_model = stream_model
        if stream_model == "window":
            if window is None:
                raise StreamError(
                    "the sliding-window stream model requires a window; "
                    "pass stream_model='update' for explicit-deletion "
                    "streams"
                )
        elif window is not None:
            raise StreamError(
                "the update stream model has no sliding window — data "
                "leaves via explicit deletions, not expiry"
            )
        self.window = window
        #: the one copy of every valid record (see repro.core.window).
        self.store = RecordStore(dims)
        if window is not None:
            window.bind(self.store)
        shard_hosts: Optional[List[str]] = None
        if isinstance(shards, str):
            shard_hosts = [shards]
        elif shards is not None and not isinstance(shards, int):
            shard_hosts = [str(address) for address in shards]
            if not shard_hosts:
                raise ValueError(
                    "shards address list must name at least one "
                    "'host:port' shard host"
                )
        self.shards = (
            len(shard_hosts)
            if shard_hosts is not None
            else 1 if shards is None else int(shards)
        )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        sharded = self.shards > 1 or shard_hosts is not None
        if isinstance(algorithm, MonitorAlgorithm):
            if sharded:
                raise ValueError(
                    "sharded execution requires an algorithm name "
                    "(worker processes build their own instances), "
                    "not a pre-built algorithm object"
                )
            self.algorithm = algorithm
        elif sharded:
            from repro.parallel import ShardedMonitorAlgorithm

            self.algorithm = ShardedMonitorAlgorithm(
                algorithm,
                dims,
                shards=(
                    shard_hosts if shard_hosts is not None else self.shards
                ),
                cells_per_axis=cells_per_axis,
                trace=trace,
                **algorithm_options,
            )
        else:
            self.algorithm = make_algorithm(
                algorithm, dims, cells_per_axis, **algorithm_options
            )
        # Observability: the registry is always on (collect-time
        # adapters cost nothing per cycle); the tracer only when asked.
        from repro.obs.metrics import MetricsRegistry, publish_op_counters
        from repro.obs.trace import NULL_TRACER, CycleTracer

        self.metrics_registry = MetricsRegistry()
        self.tracer = (
            CycleTracer(
                registry=self.metrics_registry,
                slow_cycle_seconds=slow_cycle_seconds,
                slow_cycle_path=slow_cycle_path,
            )
            if trace
            else NULL_TRACER
        )
        self.algorithm.bind_store(self.store)
        bind_obs = getattr(self.algorithm, "bind_observability", None)
        if bind_obs is not None:
            bind_obs(self.metrics_registry, self.tracer)
        # The registry must not hold the algorithm (or this monitor)
        # strongly: the registry lives on self, so a strong closure
        # would make every monitor a reference cycle, deferring its
        # grid and window to gen-2 GC instead of refcount death.
        algo_ref = weakref.ref(self.algorithm)

        def _read_op_counters(ref=algo_ref):
            algo = ref()
            return algo.counters.as_dict() if algo is not None else {}

        publish_op_counters(self.metrics_registry, _read_op_counters)
        if stream_model == "update":
            self._refuse_unordered_expiry()
        self.query_table = QueryTable()
        self.cycle_seconds: List[float] = []
        #: per-registration wall-clock of the initial top-k computation
        #: (one entry per add_query / add_queries call) — kept apart
        #: from cycle_seconds so benchmarks can report setup and
        #: maintenance without either skewing the other.
        self.setup_seconds: List[float] = []
        #: wall-clock of in-flight query mutations (update / pause /
        #: resume), one entry per operation — the third timing account
        #: (bench ``--churn`` reports it separately).
        self.mutation_seconds: List[float] = []
        self._factory = RecordFactory()
        self._clock = 0.0
        self._handles: Dict[int, QueryHandle] = {}
        #: qids registered with an accuracy contract (see add_query).
        self._contracted: Set[int] = set()
        self._paused: Dict[int, List[ResultEntry]] = {}
        self._hub = SubscriptionHub()
        self._closed = False

    def _refuse_unordered_expiry(self) -> None:
        """Reject SMA under the update model (paper Section 7: the
        skyband needs the expiry order known in advance)."""
        from repro.algorithms.sma import SkybandMonitoringAlgorithm

        base = getattr(self.algorithm, "base_algorithm", "")
        if isinstance(
            self.algorithm, SkybandMonitoringAlgorithm
        ) or base.startswith("sma"):
            raise StreamError(
                "SMA cannot monitor update streams: the skyband reduction "
                "requires the expiry order to be known in advance "
                "(paper Section 7); use TMA instead"
            )

    # ------------------------------------------------------------------
    # Internal guards
    # ------------------------------------------------------------------

    def _describe(self) -> str:
        name = getattr(self.algorithm, "name", type(self.algorithm).__name__)
        state = "closed" if self._closed else "open"
        return (
            f"{state} {self.stream_model}-model monitor, "
            f"algorithm={name}, {len(self.query_table)} live queries, "
            f"{len(self._paused)} paused"
        )

    def _require(self, qid) -> object:
        """The registered query behind ``qid`` (handle or int), or a
        descriptive :class:`~repro.core.errors.QueryError`."""
        qid = int(qid)
        if self._closed:
            raise QueryError(
                f"query {qid} is unavailable: the monitor is closed "
                f"({self._describe()})"
            )
        try:
            return self.query_table.get(qid)
        except QueryError:
            raise QueryError(
                f"unknown or terminated query id {qid} "
                f"({self._describe()})"
            ) from None

    def _ensure_open(self, operation: str) -> None:
        if self._closed:
            raise StreamError(
                f"{operation} on a closed monitor ({self._describe()})"
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def add_query(self, query, accuracy=None) -> QueryHandle:
        """Register a query; its initial result is computed immediately.

        Accepts every query kind — :class:`~repro.core.queries.TopKQuery`,
        :class:`~repro.core.queries.ConstrainedTopKQuery`, and
        :class:`~repro.core.queries.ThresholdQuery` — and returns an
        int-like :class:`~repro.core.handles.QueryHandle` owning the
        query's lifecycle. Monitor-wide subscribers receive the initial
        result as a ``cause="register"`` delta.

        ``accuracy`` (an :class:`~repro.core.queries.Accuracy`, or
        one already attached to the query) attaches an (ε,δ) contract
        to a top-k query. Every algorithm maintains the query exactly,
        which meets any contract with a certified bound of 0, so its
        cycle changes carry ``bound=0.0`` (uncontracted queries'
        carry ``None``). Threshold queries refuse a contract.
        """
        self._ensure_open("add_query")
        _probe_monotone(query.function)
        self._apply_accuracy(query, accuracy)
        qid = self.query_table.register(query)
        started = time.perf_counter()
        try:
            entries = self.algorithm.register(query)
        except BaseException:
            self.query_table.unregister(qid)
            raise
        self.setup_seconds.append(time.perf_counter() - started)
        return self._adopt(query, entries)

    def add_queries(
        self, queries: Sequence, accuracy=None
    ) -> List[QueryHandle]:
        """Register a burst of queries in one batch; return handles.

        The whole burst is handed to the algorithm at once
        (:meth:`~repro.algorithms.base.MonitorAlgorithm.register_many`),
        so grouped algorithms can serve similar queries' initial top-k
        computations through shared grid sweeps, and a sharded engine
        issues one round trip per shard instead of one per query.
        Results are identical to registering one by one.

        ``accuracy`` applies one (ε,δ) contract to the whole burst
        (see :meth:`add_query`); queries carrying their own contract
        keep it either way.
        """
        self._ensure_open("add_queries")
        for query in queries:
            _probe_monotone(query.function)
            self._apply_accuracy(query, accuracy)
        qids = [self.query_table.register(query) for query in queries]
        started = time.perf_counter()
        try:
            results = self.algorithm.register_many(list(queries))
        except BaseException:
            for qid in qids:
                self.query_table.unregister(qid)
            raise
        self.setup_seconds.append(time.perf_counter() - started)
        return [
            self._adopt(query, results[query.qid]) for query in queries
        ]

    def _apply_accuracy(self, query, accuracy) -> None:
        """Attach an accuracy contract (one passed here wins over one
        already on the query); only top-k queries take one."""
        if accuracy is None:
            return
        if not isinstance(query, TopKQuery):
            raise QueryError(
                "accuracy contracts apply to top-k queries only, not "
                f"{type(query).__name__}"
            )
        query.accuracy = accuracy

    def _adopt(self, query, entries: List[ResultEntry]) -> QueryHandle:
        handle = QueryHandle(self, query)
        self._handles[handle.qid] = handle
        if getattr(query, "accuracy", None) is not None:
            self._contracted.add(handle.qid)
        if entries and not self._hub.empty:
            self._hub.dispatch(
                {
                    handle.qid: diff_results(
                        handle.qid, [], entries, cause="register"
                    )
                }
            )
        return handle

    def remove_query(self, qid) -> None:
        """Terminate a query and scrub its book-keeping everywhere.

        Subscribers receive a final ``cause="cancel"`` delta clearing
        the result, then the query's subscriptions are cancelled. The
        handle transitions to ``cancelled``; any further operation on
        it raises :class:`~repro.core.errors.QueryError`.
        """
        self._require(qid)
        qid = int(qid)
        announce = not self._hub.empty
        frozen = self._paused.pop(qid, None)
        if frozen is None:
            last = self.algorithm.current_result(qid) if announce else []
            self.algorithm.unregister(qid)
        else:
            # Paused queries are already unregistered from the
            # algorithm; their frozen snapshot is the last delivered
            # result.
            last = frozen
        self.query_table.unregister(qid)
        # Drop the handle entry so register/cancel churn cannot grow
        # the monitor without bound — the caller's handle object keeps
        # reporting its (now cancelled) state.
        handle = self._handles.pop(qid, None)
        if handle is not None:
            handle._state = CANCELLED
        self._contracted.discard(qid)
        if announce and last:
            self._hub.dispatch(
                {
                    qid: ResultChange(
                        qid=qid,
                        removed=list(last),
                        top=[],
                        cause="cancel",
                    )
                }
            )
        self._hub.drop_query(qid)

    def result(self, qid) -> List[ResultEntry]:
        """Current top-k of a query, best-first (the frozen snapshot
        while the query is paused)."""
        self._require(qid)
        qid = int(qid)
        frozen = self._paused.get(qid)
        if frozen is not None:
            return list(frozen)
        return self.algorithm.current_result(qid)

    # ------------------------------------------------------------------
    # Handles
    # ------------------------------------------------------------------

    def handle(self, qid) -> QueryHandle:
        """The :class:`~repro.core.handles.QueryHandle` of a live
        (active or paused) qid; cancelled queries' entries are
        released, so only the caller's own reference outlives
        termination."""
        found = self._handles.get(int(qid))
        if found is None:
            raise QueryError(
                f"no handle for query id {int(qid)} ({self._describe()})"
            )
        return found

    def handles(self) -> List[QueryHandle]:
        """Handles of every live (active or paused) query."""
        return [
            handle
            for handle in self._handles.values()
            if handle.state in (ACTIVE, PAUSED)
        ]

    # ------------------------------------------------------------------
    # In-flight mutation
    # ------------------------------------------------------------------

    def pause_query(self, qid) -> None:
        """Freeze a query: its maintenance is skipped entirely until
        :meth:`resume_query`. The result visible through the pull API
        stays the snapshot taken here; no deltas are delivered while
        paused."""
        self._require(qid)
        qid = int(qid)
        if qid in self._paused:
            raise QueryError(
                f"query {qid} is already paused ({self._describe()})"
            )
        started = time.perf_counter()
        self._paused[qid] = self.algorithm.current_result(qid)
        self.algorithm.unregister(qid)
        self.mutation_seconds.append(time.perf_counter() - started)
        handle = self._handles.get(qid)
        if handle is not None:
            handle._state = PAUSED

    def resume_query(self, qid) -> List[ResultEntry]:
        """Re-activate a paused query with an exact re-sync.

        The result is recomputed from the *current* window state (one
        registration-grade computation — never a stream replay), and
        subscribers receive a single ``cause="resume"`` delta bridging
        the frozen snapshot to the fresh result.
        """
        query = self._require(qid)
        qid = int(qid)
        frozen = self._paused.get(qid)
        if frozen is None:
            raise QueryError(
                f"query {qid} is not paused ({self._describe()})"
            )
        started = time.perf_counter()
        entries = self.algorithm.register(query)
        self.mutation_seconds.append(time.perf_counter() - started)
        del self._paused[qid]
        handle = self._handles.get(qid)
        if handle is not None:
            handle._state = ACTIVE
        if not self._hub.empty:
            change = diff_results(
                qid, frozen, entries, cause="resume", rescored=True
            )
            if change.changed:
                self._hub.dispatch({qid: change})
        return entries

    def update_query(
        self,
        qid,
        k: Optional[int] = None,
        weights: Optional[Sequence[float]] = None,
        function=None,
    ) -> List[ResultEntry]:
        """Mutate a running query in flight; return the new result.

        ``k`` and/or the preference function change without tearing
        the registration down: the algorithm reuses its window/grid
        state (TMA trims its top list in place on a k decrease; the
        others recompute from current structures — never a stream
        replay), and the outcome is identical to cancelling and
        re-registering the modified query under the same qid.
        ``weights`` is sugar for ``function=LinearFunction(weights)``.
        Subscribers receive one ``cause="update"`` delta. While
        paused, only the spec changes — the re-sync happens at resume.
        """
        query = self._require(qid)
        qid = int(qid)
        if isinstance(query, ThresholdQuery):
            raise QueryError(
                f"threshold query {qid} cannot be updated in flight; "
                "cancel and re-register it instead"
            )
        if weights is not None:
            if function is not None:
                raise QueryError(
                    "pass either weights= or function=, not both"
                )
            function = LinearFunction(list(weights))
        if function is not None:
            _probe_monotone(function)
        if function is not None and function.dims != self.dims:
            raise QueryError(
                f"updated function has {function.dims} dims, "
                f"monitor has {self.dims}"
            )
        if k is not None:
            check_k(k)
        if k is None and function is None:
            return self.result(qid)
        if qid in self._paused:
            if k is not None:
                query.k = k
            if function is not None:
                query.function = function
            return list(self._paused[qid])
        announce = not self._hub.empty
        before = self.algorithm.current_result(qid) if announce else []
        started = time.perf_counter()
        entries = self.algorithm.update_query(qid, k=k, function=function)
        self.mutation_seconds.append(time.perf_counter() - started)
        if announce:
            change = diff_results(
                qid,
                before,
                entries,
                cause="update",
                rescored=function is not None,
            )
            if change.changed:
                self._hub.dispatch({qid: change})
        return entries

    # ------------------------------------------------------------------
    # Push subscriptions
    # ------------------------------------------------------------------

    def subscribe(
        self, qid, callback: Callable[[ResultChange], None]
    ) -> Subscription:
        """Deliver every future delta of ``qid`` to ``callback``
        (cycle maintenance, update, resume, and the final cancel).
        Callbacks run synchronously after each cycle's maintenance has
        been timed."""
        self._require(qid)
        return self._hub.subscribe(int(qid), callback)

    def subscribe_all(
        self, callback: Callable[[ResultChange], None]
    ) -> Subscription:
        """Fan-in: deliver every delta of *every* query (current and
        future, including ``cause="register"`` initial results) to one
        callback."""
        if self._closed:
            raise StreamError(
                f"subscribe_all on a closed monitor ({self._describe()})"
            )
        return self._hub.subscribe_all(callback)

    def changes(
        self,
        qid=None,
        maxlen: Optional[int] = None,
        block: bool = False,
    ) -> ChangeStream:
        """A buffered :class:`~repro.core.subscriptions.ChangeStream`
        of future deltas — of one query, or of the whole monitor when
        ``qid`` is None.

        ``maxlen`` bounds the buffer (default
        :data:`~repro.core.subscriptions.DEFAULT_STREAM_MAXLEN`; on
        overflow the oldest delta is dropped and counted — see
        :meth:`delivery_stats`). ``block=True`` makes iteration wait
        for the next delta instead of stopping when dry; a blocked
        iterator terminates cleanly when the stream closes, the query
        is cancelled, or the monitor shuts down.
        """
        if qid is None:
            if self._closed:
                raise StreamError(
                    f"changes() on a closed monitor ({self._describe()})"
                )
            return self._hub.stream(None, maxlen=maxlen, block=block)
        self._require(qid)
        return self._hub.stream(int(qid), maxlen=maxlen, block=block)

    def delivery_stats(self) -> Dict[str, int]:
        """Aggregate push-delivery accounting: live subscriptions and
        streams, deltas buffered in stream FIFOs, deltas dropped to
        buffer bounds (``dropped_changes``), and the deepest buffer
        ever observed (``high_watermark``)."""
        return self._hub.stats()

    @property
    def dropped_changes(self) -> int:
        """Total deltas dropped to :class:`ChangeStream` buffer bounds
        (0 means every delivered stream still has full replay
        parity)."""
        return self._hub.dropped_changes

    # ------------------------------------------------------------------
    # Stream processing
    # ------------------------------------------------------------------

    def make_records(
        self, rows: Sequence[Sequence[float]], time_: Optional[float] = None
    ) -> RecordBatch:
        """Mint a batch of records (ids assigned in order) for ad-hoc
        streams: a columnar :class:`~repro.core.window.RecordBatch`,
        which builds a record only when one is read."""
        stamp = self._clock if time_ is None else time_
        return RecordBatch.of_rows(self._factory.take(len(rows)), rows, stamp)

    def process(
        self,
        arrivals: Sequence[StreamRecord],
        now: Optional[float] = None,
        deletions: Optional[Sequence[StreamRecord]] = None,
    ) -> CycleReport:
        """Run one processing cycle and return the change report.

        ``arrivals`` is a :class:`~repro.core.window.RecordBatch` (what
        :meth:`make_records` returns) or any sequence of
        :class:`~repro.core.tuples.StreamRecord`, packed into one here.
        ``now`` defaults to the latest arrival time (or the previous
        clock when the batch is empty); it drives time-based eviction
        and must never move backwards.

        Under the default window model, ``deletions`` must be None:
        records leave by expiry. Arrivals already expired at ``now``
        (possible under a time-based window when a batch spans more
        than the window duration) are dropped without touching the
        algorithm and counted in the report's ``dead_on_arrival``.

        Under ``stream_model="update"``, ``deletions`` carries the
        batch of explicit deletions; the whole batch is validated
        before anything mutates.

        After maintenance, the report's changes are pushed to every
        matching subscriber (merged across shards first in a sharded
        run).
        """
        self._ensure_open("process")
        tracer = self.tracer
        tracer.begin_cycle()
        with tracer.span("ingest"):
            now, live, expirations, dead = self._ingest(
                arrivals, now, deletions
            )
        try:
            started = time.perf_counter()
            changes: Dict[int, ResultChange] = self.algorithm.process_cycle(
                live, expirations
            )
            elapsed = time.perf_counter() - started
            report = self._conclude(
                now, len(live), len(expirations), dead, changes, elapsed
            )
        finally:
            self.store.release(expirations)
        tracer.end_cycle(
            arrivals=len(live),
            expirations=len(expirations),
            changes=len(changes),
        )
        return report

    def _ingest(
        self,
        arrivals: Sequence[StreamRecord],
        now: Optional[float],
        deletions: Optional[Sequence[StreamRecord]],
    ):
        """Admit one batch, advance the clock and apply the batch to
        the window (or the update-model store). Returns ``(now,
        arrived, expired, dead_on_arrival)``: the cycle's slot batches,
        the expired ones still in the store until the cycle ends."""
        arrivals = self._admit(arrivals)
        if now is None:
            now = max(self._clock, max(arrivals.times, default=self._clock))
        if now < self._clock:
            raise StreamError(
                f"clock moved backwards: {now} < {self._clock}"
            )
        if self.stream_model == "update":
            self._check_update_batch(arrivals, deletions)
            self._clock = now
            live = self.store.add_batch(arrivals)
            expired = self.store.slots_of_records(deletions or ())
            return now, live, expired, 0

        if deletions is not None:
            raise StreamError(
                "explicit deletions require "
                "StreamMonitor(..., stream_model='update'); the "
                "window model expires records by age"
            )
        live, dead = self.window.insert_batch(arrivals, now)
        self._clock = now
        return now, live, self.window.evict(now), dead

    def _admit(self, arrivals: Sequence[StreamRecord]) -> RecordBatch:
        """The batch as a :class:`~repro.core.window.RecordBatch`, or a
        refusal when it holds a row of the wrong arity or a value that
        is not a number in the unit workspace ``[0, 1]`` — before the
        clock, the window or any shard changes, so a refused batch
        leaves the monitor exactly as it was.

        Cell maxscores bound only in-workspace rows: a row outside it
        would sit in a clamped edge cell that no influence region
        accounts for, and go missing from results it belongs to."""
        if type(arrivals) is not RecordBatch:
            arrivals = RecordBatch.of_records(arrivals)
        refusal = arrivals.refusal(self.dims)
        if refusal is not None:
            raise StreamError(f"batch refused: {refusal}")
        return arrivals

    def process_many(
        self,
        batches: Sequence[Sequence[StreamRecord]],
        nows: Optional[Sequence[float]] = None,
    ) -> List[CycleReport]:
        """Process a run of cycles, pipelining when the algorithm can.

        For in-process algorithms this is exactly ``[process(batch) for
        batch in batches]``. A sharded algorithm exposes the
        begin/finish cycle split (``supports_pipelining``), and this
        method overlaps the *coordinator's* per-cycle work — window
        maintenance plus the columnar snapshot encode of cycle *t+1* —
        with the shards still computing cycle *t*, instead of the
        strict send-all/recv-all lockstep of :meth:`process`. Reports
        come back in cycle order, results and deltas are bitwise
        identical to sequential processing, and every cycle is fully
        merged (and its deltas dispatched) before this method returns.

        A cycle's expired slots stay in the store until that cycle is
        finished, so cycle *t+1*'s arrivals never reuse a slot cycle
        *t*'s replies may still name.

        Per-cycle ``cycle_seconds`` under pipelining measure the
        coordinator's *blocking* time for that cycle (encode + send +
        reply wait + merge); the shard compute hidden under the next
        cycle's encode no longer shows up, which is the point.

        ``nows`` optionally provides one explicit clock value per
        batch (same semantics as :meth:`process`'s ``now``).
        """
        self._ensure_open("process_many")
        if nows is not None and len(nows) != len(batches):
            raise StreamError(
                f"nows has {len(nows)} entries for {len(batches)} batches"
            )
        pipelined = (
            getattr(self.algorithm, "supports_pipelining", False)
            and self.stream_model == "window"
        )
        if not pipelined:
            return [
                self.process(
                    batch_, now=None if nows is None else nows[index]
                )
                for index, batch_ in enumerate(batches)
            ]

        reports: List[CycleReport] = []
        pending = None  # (now, arrivals, expired slots, dead, seconds)
        tracer = self.tracer
        try:
            for index, batch_ in enumerate(batches):
                # One trace per loop iteration: the previous cycle's
                # reply wait (shard_rpc) deliberately lands in *this*
                # iteration's trace — that is the coordinator's real
                # blocking structure under pipelining.
                tracer.begin_cycle(pipelined=True)
                with tracer.span("ingest"):
                    now, live, expirations, dead = self._ingest(
                        batch_, None if nows is None else nows[index], None
                    )
                try:
                    started = time.perf_counter()
                    prepared = self.algorithm.prepare_cycle(
                        live, expirations
                    )
                    prep_seconds = time.perf_counter() - started
                except BaseException:
                    self.store.release(expirations)
                    raise
                # The encode above ran while the shards were still
                # chewing the previous cycle; only now block for their
                # replies.
                if pending is not None:
                    current, pending = pending, None
                    reports.append(self._finish_pipelined(current))
                started = time.perf_counter()
                try:
                    self.algorithm.begin_cycle(prepared)
                except BaseException:
                    self.store.release(expirations)
                    raise
                send_seconds = time.perf_counter() - started
                pending = (
                    now,
                    len(live),
                    expirations,
                    dead,
                    prep_seconds + send_seconds,
                )
                tracer.end_cycle(
                    arrivals=len(live), expirations=len(expirations)
                )
            if pending is not None:
                tracer.begin_cycle(pipelined=True, tail=True)
                current, pending = pending, None
                reports.append(self._finish_pipelined(current))
                tracer.end_cycle()
            return reports
        except BaseException:
            # A failed ingest/encode must not strand the in-flight
            # cycle: collect it so its deltas dispatch, its report is
            # accounted, and the algorithm accepts new cycles again.
            if pending is not None:
                try:
                    reports.append(self._finish_pipelined(pending))
                except Exception:  # already-terminated pool etc.
                    pass
            raise

    def _finish_pipelined(self, pending) -> CycleReport:
        """Collect one in-flight pipelined cycle: merge the shard
        replies, account its coordinator-side seconds, dispatch its
        deltas, and release its expired slots."""
        now, arrivals, expirations, dead, seconds = pending
        try:
            started = time.perf_counter()
            changes = self.algorithm.finish_cycle()
            elapsed = seconds + (time.perf_counter() - started)
            return self._conclude(
                now, arrivals, len(expirations), dead, changes, elapsed
            )
        finally:
            self.store.release(expirations)

    def _conclude(
        self,
        now: float,
        arrivals: int,
        expirations: int,
        dead: int,
        changes: Dict[int, ResultChange],
        elapsed: float,
    ) -> CycleReport:
        """Account one maintained cycle, certify the changes of
        contracted queries, and dispatch them — the one place both
        :meth:`process` and the pipelined path end a cycle."""
        self.cycle_seconds.append(elapsed)
        if self._contracted:
            # Every algorithm is exact, and an exact answer meets any
            # (ε,δ) contract with a certified bound of 0.
            for qid in self._contracted.intersection(changes):
                changes[qid].bound = 0.0
        report = CycleReport(
            timestamp=now,
            arrivals=arrivals,
            expirations=expirations,
            changes=changes,
            cpu_seconds=elapsed,
            dead_on_arrival=dead,
        )
        if not self._hub.empty:
            with self.tracer.span("dispatch"):
                self._hub.dispatch(report.changes)
        return report

    def _check_update_batch(
        self,
        insertions: RecordBatch,
        deletions: Optional[Sequence[StreamRecord]],
    ) -> None:
        """Validate one explicit-deletion batch against the store
        (the whole batch, *before* anything mutates)."""
        live = self.store.index
        inserted: Set[int] = set()
        for rid in insertions.rids:
            if rid in live or rid in inserted:
                raise StreamError(f"record {rid} inserted twice")
            inserted.add(rid)
        deleted: Set[int] = set()
        for record in deletions or ():
            known = record.rid in live or record.rid in inserted
            if not known or record.rid in deleted:
                raise StreamError(
                    f"deletion of unknown/already-deleted record "
                    f"{record.rid}"
                )
            deleted.add(record.rid)

    def advance(self, now: float) -> CycleReport:
        """Process a cycle with no arrivals (time-based expiry only)."""
        return self.process([], now=now)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the monitor down: cancel every subscription, mark all
        live handles ``closed``, and release algorithm resources
        (worker processes of a sharded run). Idempotent — a second
        ``close()`` is a no-op; further queries/cycles raise."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles.values():
            if handle._state != CANCELLED:
                handle._state = CLOSED
        # Release the handle table: handles hold the monitor, so
        # keeping them here would tie every closed monitor (and its
        # window/grid) into a reference cycle that only gen-2 GC can
        # free — large enough piles of those turn into multi-ms GC
        # pauses inside later cycle loops. After close the handles
        # are CLOSED anyway; only the caller's own references remain.
        self._handles.clear()
        self._paused.clear()
        self._hub.close()
        shutdown = getattr(self.algorithm, "close", None)
        if shutdown is not None:
            shutdown()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._closed

    def __enter__(self) -> "StreamMonitor":
        """Context-manager entry: returns the monitor itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: closes the monitor (see :meth:`close`)."""
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def valid_count(self) -> int:
        """Number of records currently valid (window contents, or the
        live set under the update model)."""
        if self.stream_model == "update":
            return len(self.store)
        return len(self.window)

    @property
    def live_count(self) -> int:
        """Alias of :attr:`valid_count` (update-model terminology)."""
        return self.valid_count

    @property
    def total_cpu_seconds(self) -> float:
        """Total maintenance seconds across cycles (setup excluded)."""
        return sum(self.cycle_seconds)

    @property
    def total_setup_seconds(self) -> float:
        """Total seconds spent computing initial results at
        registration — the cost ``total_cpu_seconds`` deliberately
        excludes."""
        return sum(self.setup_seconds)

    @property
    def total_mutation_seconds(self) -> float:
        """Total seconds spent in in-flight mutations (update / pause
        / resume) — excluded from both other accounts."""
        return sum(self.mutation_seconds)

    @property
    def counters(self):
        """The algorithm's operation counters (additive, resettable)."""
        return self.algorithm.counters

    def metrics(self) -> Dict[str, Dict[str, object]]:
        """One snapshot of :attr:`metrics_registry` (counters, gauges,
        histograms — including the collect-time OpCounters mirror and,
        in a sharded run, everything merged from the workers)."""
        return self.metrics_registry.snapshot()

    def last_traces(self, n: Optional[int] = None) -> List[Dict[str, object]]:
        """The most recent per-cycle phase traces (oldest first).
        Empty unless the monitor was built with ``trace=True``."""
        return self.tracer.last_traces(n)

    def stats(self) -> Dict[str, object]:
        """One JSON-serialisable snapshot of the monitor's accounting.

        Always present: the algorithm name, query/cycle counts, the
        three timing accounts, and the operation counters. Sharded
        monitors additionally report a ``"transport"`` block
        (:meth:`~repro.parallel.sharded.ShardedMonitorAlgorithm.transport_stats`)
        with cumulative and per-cycle bytes-on-the-wire — the remote
        tier's communication-cost hook.
        """
        data: Dict[str, object] = {
            "algorithm": getattr(
                self.algorithm, "name", type(self.algorithm).__name__
            ),
            "stream_model": self.stream_model,
            "shards": self.shards,
            "queries": len(self.query_table),
            "cycles": len(self.cycle_seconds),
            "cycle_seconds": self.total_cpu_seconds,
            "setup_seconds": self.total_setup_seconds,
            "mutation_seconds": self.total_mutation_seconds,
            "counters": self.algorithm.counters.as_dict(),
        }
        transport_stats = getattr(
            self.algorithm, "transport_stats", None
        )
        if transport_stats is not None:
            data["transport"] = transport_stats()
        return data
