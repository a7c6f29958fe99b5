"""Engine-level observability: op-counter mirror, spans, shard merge.

The overriding contract: instrumentation never perturbs results —
traced and untraced runs stay bitwise identical, sharded or not.
"""

import pytest

from repro.core.engine import StreamMonitor
from repro.core.queries import TopKQuery
from repro.core.scoring import LinearFunction
from repro.core.stats import OpCounters
from repro.core.window import CountBasedWindow
from repro.obs.metrics import op_counter_names


def make_monitor(algorithm="tma", capacity=16, shards=None, **kwargs):
    return StreamMonitor(
        2,
        CountBasedWindow(capacity),
        algorithm=algorithm,
        cells_per_axis=4,
        shards=shards,
        **kwargs,
    )


def drive(monitor, cycles=3, batch=6, seed=7):
    import random

    rng = random.Random(seed)
    qid = monitor.add_query(TopKQuery(LinearFunction([0.7, 0.3]), k=3))
    results = []
    for cycle in range(cycles):
        rows = [[rng.random(), rng.random()] for _ in range(batch)]
        monitor.process(monitor.make_records(rows, time_=float(cycle)))
        results.append([entry.rid for entry in monitor.result(qid)])
    return results


class TestOpCounterMirror:
    def test_every_op_counter_field_exposed(self):
        monitor = make_monitor()
        try:
            drive(monitor)
            snap = monitor.metrics()
            expected = set(op_counter_names(OpCounters().as_dict()))
            assert expected <= set(snap["counters"])
            assert (
                snap["counters"]["repro_op_arrivals_total"]
                == monitor.counters.arrivals
            )
        finally:
            monitor.close()

    def test_mirror_tracks_counters_without_tracing(self):
        monitor = make_monitor()  # trace defaults off
        try:
            drive(monitor, cycles=2)
            first = monitor.metrics()["counters"]["repro_op_arrivals_total"]
            assert first == monitor.counters.arrivals > 0
        finally:
            monitor.close()


class TestTracing:
    def test_untraced_monitor_has_no_traces(self):
        monitor = make_monitor()
        try:
            drive(monitor)
            assert monitor.last_traces() == []
            assert monitor.tracer.enabled is False
        finally:
            monitor.close()

    def test_traced_monitor_records_phase_spans(self):
        monitor = make_monitor(trace=True)
        try:
            drive(monitor, cycles=4)
            traces = monitor.last_traces()
            assert len(traces) == 4
            phases = set(traces[-1]["phases"])
            assert "ingest" in phases
            assert "traversal" in phases  # tma's maintenance span
            histograms = monitor.metrics()["histograms"]
            assert "repro_phase_ingest_seconds" in histograms
            assert histograms["repro_phase_ingest_seconds"]["count"] == 4
        finally:
            monitor.close()

    def test_sma_emits_skyband_span(self):
        monitor = make_monitor(algorithm="sma", trace=True)
        try:
            drive(monitor)
            assert "skyband" in monitor.last_traces()[-1]["phases"]
        finally:
            monitor.close()

    def test_skyband_span_encloses_inserts_without_a_refill(self):
        """The span is SMA's skyband upkeep — arrival inserts and
        expiry removals, not only refill sweeps: a cycle that inserts
        and refills nothing still opens it, around every insert.
        Structure only; no duration is looked at."""
        from repro.algorithms.sma import SkybandMonitoringAlgorithm
        from repro.core.tuples import RecordFactory

        algorithm = SkybandMonitoringAlgorithm(2, 4)
        spans = []

        class Recording:
            def __init__(self, name):
                self.name = name

            def __enter__(self):
                self.before = algorithm.counters.snapshot()

            def __exit__(self, *exc):
                spans.append((self.name, self.before, algorithm.counters.snapshot()))

        class Tracer:
            enabled = True
            span = staticmethod(Recording)

        algorithm.bind_observability(None, Tracer())
        factory = RecordFactory()
        window = [factory.make((0.1 * i, 0.1)) for i in range(6)]
        algorithm.process_cycle(window, [])
        query = TopKQuery(LinearFunction([0.7, 0.3]), k=3)
        query.qid = 0
        algorithm.register(query)

        del spans[:]
        before = algorithm.counters.snapshot()
        # A new best record arrives; the record leaving is no member.
        algorithm.process_cycle([factory.make((0.9, 0.9))], window[:1])
        after = algorithm.counters
        assert after.skyband_insertions - before.skyband_insertions == 1
        assert after.recomputations == before.recomputations
        assert [name for name, _, _ in spans] == ["skyband"]
        _, entered, left = spans[0]
        assert entered.skyband_insertions == before.skyband_insertions
        assert left.skyband_insertions == after.skyband_insertions

    def test_tracing_does_not_change_results(self):
        plain = make_monitor()
        traced = make_monitor(trace=True)
        try:
            assert drive(plain) == drive(traced)
        finally:
            plain.close()
            traced.close()

    def test_slow_cycle_jsonl(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        monitor = make_monitor(
            trace=True,
            slow_cycle_seconds=0.0,
            slow_cycle_path=str(path),
        )
        try:
            drive(monitor, cycles=2)
            assert monitor.tracer.slow_cycles == 2
            assert len(path.read_text().splitlines()) == 2
        finally:
            monitor.close()


class TestShardedMerge:
    def test_pipe_workers_ship_metric_deltas(self):
        monitor = make_monitor(shards=2, trace=True)
        try:
            drive(monitor, cycles=3)
            snap = monitor.metrics()
            histograms = snap["histograms"]
            # coordinator-side spans
            assert "repro_phase_encode_seconds" in histograms
            assert "repro_phase_shard_rpc_seconds" in histograms
            # worker-side spans, merged back through the reply frames
            assert "repro_phase_traversal_seconds" in histograms
            # transport byte/frame gauges are published per cycle
            assert snap["gauges"]["repro_transport_sent_bytes"] > 0
            assert snap["gauges"]["repro_transport_frames_sent"] > 0
        finally:
            monitor.close()

    def test_sharded_counters_match_op_counters(self):
        monitor = make_monitor(shards=2)
        try:
            drive(monitor, cycles=3)
            snap = monitor.metrics()
            assert (
                snap["counters"]["repro_op_arrivals_total"]
                == monitor.counters.arrivals
            )
        finally:
            monitor.close()

    def test_sharded_tracing_matches_inproc_results(self):
        inproc = make_monitor()
        sharded = make_monitor(shards=2, trace=True)
        try:
            assert drive(inproc) == drive(sharded)
        finally:
            inproc.close()
            sharded.close()


class TestLifecycle:
    """The registry must not change how monitors die.

    The obs layer hangs a registry (with collect-time callbacks) off
    every monitor; done naively that ties monitor, algorithm, and
    handles into reference cycles, so closed monitors — and their
    windows and grids — sit in the heap until a gen-2 GC pass, whose
    pause then lands inside some *later* cycle loop. Pin refcount
    death: a closed, dereferenced monitor is gone without gc.collect().
    """

    def test_closed_monitor_dies_by_refcount(self):
        import gc
        import weakref

        gc.disable()
        try:
            monitor = make_monitor()
            handle = monitor.add_query(
                TopKQuery(LinearFunction([0.7, 0.3]), k=3)
            )
            drive(monitor)
            monitor.metrics()  # exercise the collect-time adapters
            monitor.close()
            ref = weakref.ref(monitor)
            del monitor, handle
            assert ref() is None, (
                "closed StreamMonitor kept alive by a reference cycle"
            )
        finally:
            gc.enable()

    def test_traced_monitor_dies_by_refcount(self):
        import gc
        import weakref

        gc.disable()
        try:
            monitor = make_monitor(trace=True)
            monitor.add_query(TopKQuery(LinearFunction([0.5, 0.5]), k=2))
            drive(monitor)
            monitor.close()
            ref = weakref.ref(monitor)
            del monitor
            assert ref() is None, (
                "traced StreamMonitor kept alive by a reference cycle"
            )
        finally:
            gc.enable()
