"""Tests for the cycle tracer: spans, ring buffer, slow-cycle JSONL."""

import json

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    DEFAULT_RING_SIZE,
    NULL_TRACER,
    PHASE_NAMES,
    CycleTracer,
)


class TestSpans:
    def test_trace_records_phases(self):
        tracer = CycleTracer()
        tracer.begin_cycle(arrivals=3)
        with tracer.span("ingest"):
            pass
        with tracer.span("traversal"):
            pass
        trace = tracer.end_cycle(changes=1)
        assert trace["arrivals"] == 3
        assert trace["changes"] == 1
        assert trace["cycle"] == 0
        assert set(trace["phases"]) == {"ingest", "traversal"}
        for phase in trace["phases"].values():
            assert phase["wall_seconds"] >= 0.0
            assert phase["cpu_seconds"] >= 0.0
        assert trace["wall_seconds"] >= 0.0

    def test_repeated_spans_accumulate_within_cycle(self):
        tracer = CycleTracer()
        tracer.begin_cycle()
        for _ in range(3):
            with tracer.span("ingest"):
                pass
        trace = tracer.end_cycle()
        assert len(trace["phases"]) == 1
        totals = tracer.phase_totals()
        assert totals["ingest"]["spans"] == 3

    def test_span_records_even_on_exception(self):
        tracer = CycleTracer()
        tracer.begin_cycle()
        try:
            with tracer.span("ingest"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        trace = tracer.end_cycle()
        assert "ingest" in trace["phases"]

    def test_end_without_begin_is_none(self):
        assert CycleTracer().end_cycle() is None

    def test_phase_histograms_feed_registry(self):
        registry = MetricsRegistry()
        tracer = CycleTracer(registry=registry)
        tracer.begin_cycle()
        with tracer.span("skyband"):
            pass
        tracer.end_cycle()
        snap = registry.snapshot()
        assert "repro_phase_skyband_seconds" in snap["histograms"]
        assert snap["histograms"]["repro_phase_skyband_seconds"]["count"] == 1


class TestRing:
    def test_ring_keeps_last_n(self):
        tracer = CycleTracer(ring_size=4)
        for _ in range(10):
            tracer.begin_cycle()
            tracer.end_cycle()
        traces = tracer.last_traces()
        assert len(traces) == 4
        assert [t["cycle"] for t in traces] == [6, 7, 8, 9]
        assert [t["cycle"] for t in tracer.last_traces(2)] == [8, 9]
        assert tracer.cycles == 10

    def test_default_ring_size(self):
        tracer = CycleTracer()
        assert tracer._ring.maxlen == DEFAULT_RING_SIZE


class TestSlowCycles:
    def test_slow_cycle_dumped_as_jsonl(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        tracer = CycleTracer(
            slow_cycle_seconds=0.0, slow_cycle_path=str(path)
        )
        for _ in range(2):
            tracer.begin_cycle()
            with tracer.span("ingest"):
                pass
            tracer.end_cycle()
        assert tracer.slow_cycles == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            trace = json.loads(line)
            assert "phases" in trace and "wall_seconds" in trace

    def test_fast_cycles_not_dumped(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        tracer = CycleTracer(
            slow_cycle_seconds=60.0, slow_cycle_path=str(path)
        )
        tracer.begin_cycle()
        tracer.end_cycle()
        assert tracer.slow_cycles == 0
        assert not path.exists()

    def test_unwritable_path_degrades_silently(self):
        tracer = CycleTracer(
            slow_cycle_seconds=0.0,
            slow_cycle_path="/nonexistent-dir/slow.jsonl",
        )
        tracer.begin_cycle()
        tracer.end_cycle()  # must not raise
        assert tracer.slow_cycles == 1


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.begin_cycle(arrivals=1)
        with NULL_TRACER.span("ingest"):
            pass
        assert NULL_TRACER.end_cycle() is None
        assert NULL_TRACER.last_traces() == []
        assert NULL_TRACER.phase_totals() == {}
        assert NULL_TRACER.cycles == 0

    def test_shared_null_span(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


def test_phase_catalogue_is_stable():
    # docs/OBSERVABILITY.md documents exactly these span names; code
    # emitting a new phase must extend the catalogue deliberately.
    assert PHASE_NAMES == (
        "ingest",
        "traversal",
        "skyband",
        "encode",
        "shard_rpc",
        "dispatch",
        "delivery",
    )
