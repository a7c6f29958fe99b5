"""Tests for operation counters and run statistics."""

from repro.core.stats import OpCounters, RunStats


class TestOpCounters:
    def test_defaults_zero(self):
        counters = OpCounters()
        assert counters.arrivals == 0
        assert all(value == 0 for value in counters.as_dict().values())

    def test_add(self):
        a = OpCounters(arrivals=2, points_scored=5)
        b = OpCounters(arrivals=1, cells_processed=3)
        a.add(b)
        assert a.arrivals == 3
        assert a.points_scored == 5
        assert a.cells_processed == 3

    def test_snapshot_is_independent(self):
        counters = OpCounters(arrivals=1)
        snap = counters.snapshot()
        counters.arrivals = 10
        assert snap.arrivals == 1

    def test_reset(self):
        counters = OpCounters(arrivals=5, recomputations=2)
        counters.reset()
        assert counters.arrivals == 0
        assert counters.recomputations == 0

    def test_as_dict_keys(self):
        data = OpCounters().as_dict()
        assert "recomputations" in data
        assert "skyband_insertions" in data


class TestRunStats:
    def test_empty(self):
        stats = RunStats()
        assert stats.cycles == 0
        assert stats.total_seconds == 0.0
        assert stats.mean_cycle_seconds == 0.0

    def test_record_cycles(self):
        stats = RunStats()
        stats.record_cycle(0.5, OpCounters(arrivals=10))
        stats.record_cycle(1.5, OpCounters(arrivals=20))
        assert stats.cycles == 2
        assert stats.total_seconds == 2.0
        assert stats.mean_cycle_seconds == 1.0
        assert stats.counters.arrivals == 30

    def test_summary(self):
        stats = RunStats()
        stats.record_cycle(1.0, OpCounters(expirations=4))
        summary = stats.summary()
        assert summary["cycles"] == 1
        assert summary["expirations"] == 4

    def test_summary_keeps_counts_integral(self):
        # Counts must stay int (a JSON dump renders 17, not 17.0);
        # only the timing aggregates are floats.
        stats = RunStats()
        stats.record_cycle(0.25, OpCounters(arrivals=17))
        summary = stats.summary()
        assert isinstance(summary["cycles"], int)
        assert isinstance(summary["arrivals"], int)
        assert isinstance(summary["expirations"], int)
        assert isinstance(summary["total_seconds"], float)
        assert isinstance(summary["mean_cycle_seconds"], float)
