"""Shard worker: one algorithm instance behind one server channel.

A worker owns a full replica of the *stream* state — its algorithm's
:class:`~repro.core.window.RecordStore` (filled straight from each
cycle frame's columns, its rid index resolving expired ids) and the
grid / sorted lists over it, fed the same arrivals and expirations as
every other shard — and a disjoint subset of the *query* state. It answers a tiny
request/response protocol over a shard channel; every data-bearing
reply carries a fresh :class:`~repro.core.stats.OpCounters` snapshot
so the coordinator can merge machine-independent work counts
additively.

Protocol (``(command, payload)`` in, ``(status, payload)`` out)::

    register_many [TopKQuery]   -> ok ((qids, counts, scores, rids), counters)
    unregister    qid           -> ok (None, counters)
    update        (qid, k, fn)  -> ok ((scores, rids), counters)
    cycle         snapshot      -> ok (change_columns, counters,
                                       metrics_delta_or_None)
    stats         None          -> ok ((state_sizes, il_entries), counters)
    space         None          -> ok SpaceBreakdown
    ping          None          -> ok "pong"
    stop          None          -> ok None, then the loop exits

A ``cycle`` snapshot is arrival columns plus expired ids
(:mod:`repro.transport.snapshot`); :func:`dispatch_command` fills the
algorithm's store from it, runs the cycle over the slots, and releases
the expired slots once the reply is built. No reply carries a record:
entries travel as ``(score, rid)`` columns, best-first, for the
coordinator to resolve against its own store and rebuild each change's
``top`` (:func:`repro.parallel.sharded.resolve_changes`).

``ping`` is a pure round trip: because a worker serves requests
strictly in channel order, a ``pong`` proves every previously sent
cycle has been fully processed — the barrier the pipelined-broadcast
tests and the serving runtime's health checks rely on.

The serve loop (:func:`serve_shard`) is transport-agnostic: the same
loop runs behind a pipe (:func:`worker_main`, the spawned-process
entry point) and behind a TCP session (:mod:`repro.cluster.shard`, the
remote host). Any exception is caught and returned as
``("error", traceback)`` — the coordinator re-raises; a worker only
dies on channel EOF or ``stop``.
"""

from __future__ import annotations

import traceback
from typing import Dict, Sequence

from repro.core.results import ResultChange, ResultEntry
from repro.transport.base import ChannelClosed
from repro.transport.pipe import PipeServerChannel
from repro.transport.snapshot import decode_cycle


def worker_main(
    conn,
    algorithm: str,
    dims: int,
    cells_per_axis,
    options: dict,
) -> None:
    """Entry point of a shard worker process (blocks until ``stop``)."""
    from repro.algorithms import make_algorithm

    options = dict(options)
    obs = options.pop("_obs", None)
    algo = make_algorithm(algorithm, dims, cells_per_axis, **options)
    bind_worker_observability(algo, obs)
    channel = PipeServerChannel(conn)
    try:
        serve_shard(channel, algo)
    finally:
        channel.close()


def bind_worker_observability(algo, obs) -> None:
    """Give a shard worker its own registry (plus a tracer when the
    coordinator asked for tracing via the reserved ``_obs`` option).

    Workers always hold a worker-local
    :class:`~repro.obs.metrics.MetricsRegistry` so gauges published by
    the algorithm reach the coordinator even with tracing off; phase
    histograms appear only when tracing is on. Every cycle reply ships
    the registry's delta since the previous cycle
    (:func:`cycle_metrics_delta`), which the coordinator ``merge()``s.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import NULL_TRACER, CycleTracer

    bind = getattr(algo, "bind_observability", None)
    if bind is None:
        return
    registry = MetricsRegistry()
    tracer = (
        CycleTracer(registry=registry)
        if obs and obs.get("trace")
        else NULL_TRACER
    )
    bind(registry, tracer)


def cycle_metrics_delta(algo):
    """The worker registry's delta since the previous cycle reply
    (None when the worker has no registry or nothing changed)."""
    registry = getattr(algo, "metrics", None)
    if registry is None:
        return None
    current = registry.snapshot()
    previous = getattr(algo, "_obs_prev_snapshot", None)
    algo._obs_prev_snapshot = current
    delta = (
        current if previous is None else registry.delta(current, previous)
    )
    if not any(delta.values()):
        return None
    return delta


def serve_shard(channel, algo) -> None:
    """Serve shard requests off ``channel`` until ``stop`` or EOF.

    ``channel`` is any server-side half of a shard channel
    (:class:`~repro.transport.pipe.PipeServerChannel` in a worker
    process, :class:`~repro.transport.tcp.TcpServerChannel` in a
    remote host session) — the loop itself never sees the transport.
    """
    while True:
        try:
            command, payload = channel.receive()
        except ChannelClosed:
            break
        try:
            if command == "stop":
                channel.reply_ok(None)
                break
            channel.reply_ok(
                dispatch_command(algo, command, payload)
            )
        except ChannelClosed:  # pragma: no cover - reply raced a close
            break
        except Exception:
            try:
                channel.reply_error(traceback.format_exc())
            except ChannelClosed:  # pragma: no cover
                break


def entry_columns(entries: Sequence[ResultEntry]):
    """``(scores, rids)`` of a list of result entries."""
    return [entry[0] for entry in entries], [entry[1].rid for entry in entries]


def change_columns(changes: Dict[int, ResultChange]):
    """A cycle's ``{qid: ResultChange}`` → the six reply columns
    ``(qids, added_counts, removed_counts, added_scores, added_rids,
    removed_rids)``."""
    changed = changes.values()
    added = [entry for change in changed for entry in change.added]
    return (
        list(changes),
        [len(change.added) for change in changed],
        [len(change.removed) for change in changed],
        *entry_columns(added),
        [entry[1].rid for change in changed for entry in change.removed],
    )


def dispatch_command(algo, command: str, payload):
    """Execute one shard command against the local algorithm."""
    if command == "cycle":
        arrivals, expirations = decode_cycle(payload, algo.store)
        try:
            tracer = getattr(algo, "tracer", None)
            if tracer is not None:
                tracer.begin_cycle(
                    arrivals=len(arrivals), expirations=len(expirations)
                )
            changes = algo.process_cycle(arrivals, expirations)
            if tracer is not None:
                tracer.end_cycle(changes=len(changes))
            return (
                change_columns(changes),
                algo.counters.as_dict(),
                cycle_metrics_delta(algo),
            )
        finally:
            algo.store.release(expirations)
    if command == "register_many":
        results = algo.register_many(payload)
        scores, rids = entry_columns(
            [entry for entries in results.values() for entry in entries]
        )
        counts = [len(entries) for entries in results.values()]
        return (list(results), counts, scores, rids), algo.counters.as_dict()
    if command == "unregister":
        algo.unregister(payload)
        return None, algo.counters.as_dict()
    if command == "update":
        qid, k, function = payload
        entries = algo.update_query(qid, k=k, function=function)
        return entry_columns(entries), algo.counters.as_dict()
    if command == "stats":
        entries = getattr(algo, "influence_list_entries", None)
        return (
            algo.result_state_sizes(),
            entries() if entries is not None else 0,
        ), algo.counters.as_dict()
    if command == "space":
        from repro.analysis.memory import estimate_space

        return estimate_space(algo)
    if command == "ping":
        return "pong"
    raise ValueError(f"unknown shard command {command!r}")
