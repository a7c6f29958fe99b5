"""Per-cycle phase spans with a near-zero disabled path.

A :class:`CycleTracer` slices each monitoring cycle into named phase
spans — ``with tracer.span("traversal"): ...`` — recording wall time
(``time.perf_counter``) and CPU time (``time.process_time``) per
phase. Traces accumulate three ways:

- a ring buffer of the last N completed cycle traces
  (:meth:`CycleTracer.last_traces`), each a plain dict;
- cumulative per-phase totals (:meth:`CycleTracer.phase_totals`),
  optionally mirrored into registry histograms
  (``repro_phase_<name>_seconds``) so shard workers can ship them and
  Prometheus can scrape them;
- a slow-cycle policy: any cycle whose wall time exceeds
  ``slow_cycle_seconds`` is appended as one JSON line to
  ``slow_cycle_path`` (JSONL), so pathological cycles survive the ring
  buffer.

When tracing is off the engine holds :data:`NULL_TRACER` instead — the
same null-object pattern as :data:`~repro.core.stats.NULL_COUNTERS`.
Every method is a no-op and ``span()`` returns one shared do-nothing
context manager, so call sites stay unconditional at per-*cycle*
granularity. Per-*record* hot loops must still gate on
``tracer.enabled`` before calling any clock — analyzer rule OBS401
(:mod:`repro.analysis.check.rules.obs`) enforces exactly that.

Span phase names used across the engine (docs/OBSERVABILITY.md has
the catalogue): ``ingest``, ``traversal``, ``skyband``, ``encode``,
``shard_rpc``, ``dispatch``, ``delivery``.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Deque, Dict, List, Optional

__all__ = [
    "CycleTracer",
    "NULL_TRACER",
    "PHASE_NAMES",
    "DEFAULT_RING_SIZE",
]

#: the canonical span names the engine emits (see module docstring).
PHASE_NAMES = (
    "ingest",
    "traversal",
    "skyband",
    "encode",
    "shard_rpc",
    "dispatch",
    "delivery",
)

#: default ring-buffer capacity for completed cycle traces.
DEFAULT_RING_SIZE = 64

#: histogram buckets for per-phase wall time, in seconds.
PHASE_BUCKETS = (
    0.00001,
    0.0001,
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
)


class _Span:
    """One active phase measurement. Re-raised exceptions pass
    through; the span still records."""

    __slots__ = ("_tracer", "name", "_wall0", "_cpu0")

    def __init__(self, tracer: "CycleTracer", name: str) -> None:
        self._tracer = tracer
        self.name = name
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> "_Span":
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        self._tracer._record(self.name, wall, cpu)


class _NullSpan:
    """Shared do-nothing context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class CycleTracer:
    """Collects phase spans for one cycle at a time.

    Single-writer like the metrics instruments: only the engine thread
    (or a worker's serve loop) drives ``begin_cycle``/``span``/
    ``end_cycle``. Readers take :meth:`last_traces` snapshots, which
    copy under the GIL.
    """

    enabled = True

    def __init__(
        self,
        registry=None,
        ring_size: int = DEFAULT_RING_SIZE,
        slow_cycle_seconds: Optional[float] = None,
        slow_cycle_path: Optional[str] = None,
    ) -> None:
        self._registry = registry
        self._ring: Deque[Dict[str, object]] = deque(maxlen=ring_size)
        self.slow_cycle_seconds = slow_cycle_seconds
        self.slow_cycle_path = slow_cycle_path
        self.slow_cycles = 0
        self.cycles = 0
        self._phases: Dict[str, List[float]] = {}
        self._totals: Dict[str, List[float]] = {}
        self._cycle_open = False
        self._cycle_wall0 = 0.0
        self._cycle_meta: Dict[str, object] = {}
        self._histograms: Dict[str, object] = {}

    # -- cycle lifecycle ----------------------------------------------

    def begin_cycle(self, **meta: object) -> None:
        """Open a cycle trace; ``meta`` (cycle index, arrival count,
        ...) is stored on the finished trace verbatim."""
        self._phases = {}
        self._cycle_meta = dict(meta)
        self._cycle_open = True
        self._cycle_wall0 = time.perf_counter()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def _record(self, name: str, wall: float, cpu: float) -> None:
        slot = self._phases.get(name)
        if slot is None:
            self._phases[name] = [wall, cpu]
        else:
            slot[0] += wall
            slot[1] += cpu
        total = self._totals.get(name)
        if total is None:
            self._totals[name] = [wall, cpu, 1.0]
        else:
            total[0] += wall
            total[1] += cpu
            total[2] += 1.0
        if self._registry is not None:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._registry.histogram(
                    f"repro_phase_{name}_seconds",
                    f"wall seconds spent in the {name} phase per span",
                    buckets=PHASE_BUCKETS,
                )
                self._histograms[name] = histogram
            histogram.observe(wall)

    def end_cycle(self, **meta: object) -> Optional[Dict[str, object]]:
        """Close the open cycle trace and append it to the ring.
        Returns the trace dict (or None when no cycle was open)."""
        if not self._cycle_open:
            return None
        wall = time.perf_counter() - self._cycle_wall0
        self._cycle_open = False
        trace: Dict[str, object] = dict(self._cycle_meta)
        trace.update(meta)
        trace["cycle"] = self.cycles
        trace["wall_seconds"] = wall
        trace["phases"] = {
            name: {"wall_seconds": slot[0], "cpu_seconds": slot[1]}
            for name, slot in sorted(self._phases.items())
        }
        self.cycles += 1
        self._ring.append(trace)
        threshold = self.slow_cycle_seconds
        if threshold is not None and wall > threshold:
            self.slow_cycles += 1
            self._dump_slow(trace)
        return trace

    def _dump_slow(self, trace: Dict[str, object]) -> None:
        if not self.slow_cycle_path:
            return
        try:
            with open(self.slow_cycle_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(trace, sort_keys=True) + "\n")
        except OSError:
            # Telemetry must never take the engine down; a full disk
            # or revoked path degrades to counting only.
            pass

    # -- read side ----------------------------------------------------

    def last_traces(self, n: Optional[int] = None) -> List[Dict[str, object]]:
        """The most recent completed cycle traces, oldest first."""
        traces = list(self._ring)
        if n is not None:
            traces = traces[-n:]
        return traces

    def phase_totals(self) -> Dict[str, Dict[str, float]]:
        """Cumulative per-phase totals across all traced cycles."""
        return {
            name: {
                "wall_seconds": total[0],
                "cpu_seconds": total[1],
                "spans": int(total[2]),
            }
            for name, total in sorted(self._totals.items())
        }


class _NullTracer:
    """Disabled tracer: every call vanishes, ``span()`` hands back one
    shared no-op context manager. Mirrors ``_NullOpCounters``."""

    __slots__ = ()

    enabled = False
    cycles = 0
    slow_cycles = 0

    def begin_cycle(self, **meta: object) -> None:
        pass

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def end_cycle(self, **meta: object) -> None:
        return None

    def last_traces(self, n: Optional[int] = None) -> List[Dict[str, object]]:
        return []

    def phase_totals(self) -> Dict[str, Dict[str, float]]:
        return {}


#: shared do-nothing tracer (see :class:`_NullTracer`).
NULL_TRACER = _NullTracer()
