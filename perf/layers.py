"""Span wrappers: per-layer timing recorded from outside the program.

The library has no span hooks fine enough to say which layer paid for
a batch, so the traced pass wraps the public entry points of each
layer — one table, :data:`ENTRY_POINTS` — and records a span around
every call. A module-level function is replaced in its defining module
*and* in every loaded ``repro`` module that imported it by name (the
import sites), a method is replaced on its class. Nothing is patched
unless ``--trace 1`` asks for it, and :func:`install` returns the
function that puts every original back.

A span is ``[name, start, end, parent, batch]`` (``parent`` indexes
the same thread's span list, -1 for a root). Alongside the span list
each thread keeps one ``[calls, total_s, self_s, items]`` row per
name; ``self_s`` is the span's duration minus the part its child spans
cover, so the rows of one thread never count a microsecond twice.
Per-record and per-cell entry points (``kind=AGG``) feed only those
rows — one span each would cost more than the work they time.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

SPAN = "span"
AGG = "agg"


class EntryPoint(NamedTuple):
    """One wrapped callable: ``module.attr`` recorded under ``span``."""

    span: str
    module: str
    attr: str
    kind: str = SPAN
    #: optional ``(args, result) -> int`` work count at this boundary.
    items: Optional[Callable] = None
    #: optional ``(args) -> bool``: this call starts a new batch in a
    #: child process (see :class:`Tracer`).
    root: Optional[Callable] = None


def _second_arg_len(args, result) -> int:
    return len(args[1])


ENTRY_POINTS = [
    # core.engine
    EntryPoint("engine.process", "repro.core.engine",
               "StreamMonitor.process", root=lambda args: True),
    EntryPoint("engine.make_records", "repro.core.engine",
               "StreamMonitor.make_records"),
    EntryPoint("engine.query_op", "repro.core.engine",
               "StreamMonitor.add_query"),
    EntryPoint("engine.query_op", "repro.core.engine",
               "StreamMonitor.add_queries"),
    EntryPoint("engine.query_op", "repro.core.engine",
               "StreamMonitor.remove_query"),
    EntryPoint("engine.query_op", "repro.core.engine",
               "StreamMonitor.update_query"),
    EntryPoint("engine.query_op", "repro.core.engine",
               "StreamMonitor.pause_query"),
    EntryPoint("engine.query_op", "repro.core.engine",
               "StreamMonitor.resume_query"),
    # core.window
    EntryPoint("window.evict", "repro.core.window",
               "CountBasedWindow.evict"),
    # grid.grid
    EntryPoint("grid.insert_many", "repro.grid.grid", "Grid.insert_many",
               items=_second_arg_len),
    EntryPoint("grid.delete_many", "repro.grid.grid", "Grid.delete_many",
               items=_second_arg_len),
    # grid.traversal
    EntryPoint("traversal.solo", "repro.grid.traversal", "compute_top_k"),
    EntryPoint("traversal.group", "repro.grid.traversal",
               "compute_top_k_group", items=_second_arg_len),
    # core.scoring / core.batch
    EntryPoint("scoring.score_batch", "repro.core.scoring",
               "LinearFunction.score_batch", AGG, items=_second_arg_len),
    # algorithms
    EntryPoint("algorithms.process_cycle", "repro.algorithms.base",
               "MonitorAlgorithm.process_cycle"),
    # skyband
    EntryPoint("skyband.rebuild", "repro.skyband.skyband",
               "ScoreTimeSkyband.rebuild", AGG),
    # core.subscriptions
    EntryPoint("subscriptions.dispatch", "repro.core.subscriptions",
               "SubscriptionHub.dispatch"),
    # parallel.sharded (coordinator side)
    EntryPoint("sharded.prepare", "repro.parallel.sharded",
               "ShardedMonitorAlgorithm.prepare_cycle"),
    EntryPoint("sharded.begin", "repro.parallel.sharded",
               "ShardedMonitorAlgorithm.begin_cycle"),
    EntryPoint("sharded.finish", "repro.parallel.sharded",
               "ShardedMonitorAlgorithm.finish_cycle"),
    # transport.codec (both ends of a shard channel)
    EntryPoint("codec.encode", "repro.transport.codec",
               "encode_cycle_request"),
    EntryPoint("codec.encode", "repro.transport.codec", "encode_request"),
    EntryPoint("codec.encode", "repro.transport.codec", "encode_reply"),
    EntryPoint("codec.encode", "repro.transport.codec", "frame_message"),
    EntryPoint("codec.decode", "repro.transport.codec", "decode_body"),
    EntryPoint("codec.decode", "repro.transport.codec", "decode_request"),
    EntryPoint("codec.decode", "repro.transport.codec", "decode_reply"),
    # transport.tcp (coordinator side)
    EntryPoint("tcp.send", "repro.transport.tcp", "TcpChannel.send_cycle"),
    EntryPoint("tcp.send", "repro.transport.tcp", "TcpChannel.request"),
    EntryPoint("tcp.wait", "repro.transport.tcp", "TcpChannel.response"),
    EntryPoint("tcp.wait", "repro.transport.base", "wait_ready"),
    # parallel.worker (shard-host side)
    EntryPoint("worker.dispatch", "repro.parallel.worker",
               "dispatch_command", root=lambda args: args[1] == "cycle"),
    EntryPoint("worker.decode_cycle", "repro.transport.snapshot",
               "decode_cycle"),
    # service.protocol (server child and client; see install())
    EntryPoint("protocol.encode", "repro.service.protocol", "encode_line",
               AGG, items=lambda args, result: len(result)),
    EntryPoint("protocol.encode", "repro.service.protocol",
               "change_to_wire", AGG),
    EntryPoint("protocol.encode", "repro.service.protocol",
               "entries_to_wire", AGG),
    EntryPoint("protocol.decode", "repro.service.protocol", "decode_line",
               AGG, items=lambda args, result: len(args[0])),
    EntryPoint("protocol.decode", "repro.service.protocol",
               "change_from_wire", AGG),
    EntryPoint("protocol.decode", "repro.service.protocol",
               "query_from_wire", AGG),
]

#: totals row: calls, inclusive seconds, self seconds, items.
Totals = Dict[str, List[float]]


def merge_totals(parts: Iterable[Totals]) -> Totals:
    """Column-wise sum of totals rows, name by name."""
    merged: Totals = {}
    for totals in parts:
        for name, row in totals.items():
            into = merged.setdefault(name, [0, 0.0, 0.0, 0])
            for index, value in enumerate(row):
                into[index] += value
    return merged


class _ThreadState:
    __slots__ = ("thread", "stack", "spans", "totals")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        #: open frames, innermost last: [child_seconds, span_index].
        self.stack: List[list] = []
        self.spans: List[list] = []
        self.totals: Totals = {}


class Tracer:
    """Collects spans and per-name totals, one state per thread.

    The process that runs the benchmark switches ``enabled`` and sets
    ``batch`` itself. A child process cannot be told when set-up ends,
    so it is built with ``skip_roots`` — the number of set-up cycles
    the parent is about to send — and arms itself on the first root
    call after those, counting batches from there.
    """

    def __init__(self, skip_roots: Optional[int] = None) -> None:
        self.enabled = False
        self.batch = -1
        self._skip_roots = skip_roots
        self._roots = 0
        self._local = threading.local()
        self._states: List[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            self._states.append(state)
        return state

    def _saw_root(self) -> None:
        self._roots += 1
        if self._roots > self._skip_roots:
            self.enabled = True
            self.batch += 1

    def totals(self) -> Totals:
        """Per-name rows summed over this process's threads."""
        return merge_totals(state.totals for state in list(self._states))

    def spans(self) -> List[dict]:
        """Every recorded span, grouped by the thread that ran it."""
        return [
            {"thread": state.thread, "spans": state.spans}
            for state in list(self._states)
            if state.spans
        ]

    def span_count(self) -> int:
        return sum(len(state.spans) for state in list(self._states))


def _wrap(tracer: Tracer, entry: EntryPoint, original: Callable) -> Callable:
    name = entry.span
    record_span = entry.kind == SPAN
    items = entry.items
    root = entry.root
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        if (
            root is not None
            and tracer._skip_roots is not None
            and root(args)
        ):
            tracer._saw_root()
        if not tracer.enabled:
            return original(*args, **kwargs)
        state = tracer._state()
        stack = state.stack
        parent = stack[-1][1] if stack else -1
        if record_span:
            index = len(state.spans)
            span = [name, 0.0, 0.0, parent, tracer.batch]
            state.spans.append(span)
        else:
            index = parent
        frame = [0.0, index]
        stack.append(frame)
        start = clock()
        try:
            result = original(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            elapsed = end - start
            if stack:
                stack[-1][0] += elapsed
            row = state.totals.get(name)
            if row is None:
                row = state.totals[name] = [0, 0.0, 0.0, 0]
            row[0] += 1
            row[1] += elapsed
            row[2] += elapsed - frame[0]
            if record_span:
                span[1] = start
                span[2] = end
        if items is not None:
            row[3] += items(args, result)
        return result

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", name)
    return wrapper


def install(tracer: Tracer, service: bool) -> Callable[[], None]:
    """Wrap every entry point; return the function that undoes it.

    ``service`` says whether this process speaks the serving protocol.
    The shard codec frames its messages with ``service.protocol``'s
    JSON helpers, so wrapping those in a coordinator or shard host
    would move codec time into a layer that workload does not use;
    they are wrapped only where the protocol itself is the layer.
    """
    entries = [
        entry
        for entry in ENTRY_POINTS
        if service or not entry.module.startswith("repro.service")
    ]
    for entry in entries:
        importlib.import_module(entry.module)
    patched: List[tuple] = []  # (owner, attribute, original)
    for entry in entries:
        module = sys.modules[entry.module]
        owner_name, _, attr = entry.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = vars(owner)[attr]
            sites = [(owner, attr)]
        else:
            original = vars(module)[attr]
            sites = [
                (candidate, key)
                for candidate_name, candidate in list(sys.modules.items())
                if candidate is not None
                and candidate_name.split(".")[0] == "repro"
                for key, value in list(vars(candidate).items())
                if value is original
            ]
        wrapper = _wrap(tracer, entry, original)
        for owner, key in sites:
            setattr(owner, key, wrapper)
            patched.append((owner, key, original))

    def uninstall() -> None:
        for owner, key, original in reversed(patched):
            setattr(owner, key, original)

    return uninstall
