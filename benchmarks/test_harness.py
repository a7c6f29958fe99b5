"""The figure tests' harness: workloads, runs, agreement and tables."""

import gc

import pytest

import harness
from repro.core.errors import StreamError
from repro.core.scoring import (
    LinearFunction,
    ProductFunction,
    QuadraticFunction,
)

from repro.grid import default_cells_per_axis

from harness import (
    TABLE_1,
    WorkloadSpec,
    compare_algorithms,
    env_scale,
    format_table,
    print_series,
    run_workload,
    scaled_defaults,
)

SMALL = WorkloadSpec(
    dims=2, n=400, rate=20, num_queries=4, k=5, cycles=4, seed=2
)


class TestWorkloadSpec:
    def test_with_creates_modified_copy(self):
        spec = WorkloadSpec()
        other = spec.with_(k=50)
        assert other.k == 50
        assert spec.k == 20
        assert other.dims == spec.dims

    def test_query_generation_deterministic(self):
        a = WorkloadSpec(seed=5).make_queries()
        b = WorkloadSpec(seed=5).make_queries()
        assert len(a) == len(b) == WorkloadSpec().num_queries
        for qa, qb in zip(a, b):
            assert qa.function.weights == qb.function.weights
            assert qa.k == qb.k

    def test_query_generation_varies_with_seed(self):
        a = WorkloadSpec(seed=1).make_queries()
        b = WorkloadSpec(seed=2).make_queries()
        assert a[0].function.weights != b[0].function.weights

    def test_function_families(self):
        assert isinstance(
            WorkloadSpec(function_family="linear").make_functions()[0],
            LinearFunction,
        )
        assert isinstance(
            WorkloadSpec(function_family="product").make_functions()[0],
            ProductFunction,
        )
        assert isinstance(
            WorkloadSpec(function_family="quadratic").make_functions()[0],
            QuadraticFunction,
        )

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            WorkloadSpec(function_family="cubic").make_functions()

    def test_explicit_grid_granularity_wins(self):
        spec = WorkloadSpec(cells_per_axis=9)
        assert spec.grid_cells_per_axis() == 9

    def test_auto_grid_granularity_is_the_library_default(self):
        spec = WorkloadSpec(dims=3, n=5_000)
        assert spec.grid_cells_per_axis() == default_cells_per_axis(3, 5_000)

    def test_coefficients_in_range(self):
        for similarity in (None, 0.0, 0.5):
            spec = WorkloadSpec(num_queries=30, query_similarity=similarity)
            for function in spec.make_functions():
                assert len(function.weights) == spec.dims
                assert all(0.05 <= w <= 1.0 for w in function.weights)

    def test_full_similarity_gives_identical_queries(self):
        functions = WorkloadSpec(query_similarity=1.0).make_functions()
        assert len({tuple(f.weights) for f in functions}) == 1

    @pytest.mark.parametrize("similarity", [-0.1, 1.5])
    def test_similarity_out_of_range(self, similarity):
        with pytest.raises(ValueError, match="query_similarity"):
            WorkloadSpec(query_similarity=similarity).make_functions()

    def test_queries_carry_k_and_labels(self):
        queries = WorkloadSpec(num_queries=3, k=7).make_queries()
        assert [q.k for q in queries] == [7, 7, 7]
        assert [q.label for q in queries] == ["bench-0", "bench-1", "bench-2"]


class TestDefaults:
    def test_scaled_defaults_ratios(self):
        spec = scaled_defaults()
        assert spec.rate == spec.n // 100  # the paper's r = N/100
        assert spec.dims == 4
        assert spec.k == 20

    def test_overrides(self):
        assert scaled_defaults(k=50).k == 50

    def test_scale_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert env_scale() == 1.0

    def test_operating_point_at_scale_one(self, monkeypatch):
        # The point the benchmark banner prints: N=20K on a 5^4 grid.
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        spec = scaled_defaults()
        assert (spec.n, spec.rate, spec.num_queries) == (20_000, 200, 20)
        assert spec.grid_cells_per_axis() == 5

    def test_scale_fifty_restores_table1_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "50")
        spec = scaled_defaults()
        assert TABLE_1["Data cardinality (N)"]["default"] == "1M"
        assert TABLE_1["Arrival rate (r)"]["default"] == "10K"
        assert TABLE_1["Query cardinality (Q)"]["default"] == "1K"
        assert (spec.n, spec.rate, spec.num_queries) == (
            1_000_000,
            10_000,
            1_000,
        )
        assert spec.dims == TABLE_1["Data dimensionality (d)"]["default"]
        assert spec.k == TABLE_1["Result cardinality (k)"]["default"]
        assert spec.grid_cells_per_axis() == 12

    def test_table1_documented(self):
        assert "Result cardinality (k)" in TABLE_1
        assert TABLE_1["Result cardinality (k)"]["range"] == [
            1,
            5,
            10,
            20,
            50,
            100,
        ]


class TestRunWorkload:
    def test_smoke(self):
        result = run_workload(SMALL, "sma")
        assert result.algorithm == "sma"
        assert len(result.cycle_seconds) == SMALL.cycles
        assert result.counters.arrivals == SMALL.rate * SMALL.cycles
        assert result.counters.expirations == SMALL.rate * SMALL.cycles
        assert result.space.total > 0
        assert len(result.final_results) == SMALL.num_queries
        assert result.mean_state_size >= SMALL.k

    def test_recomputation_rate(self):
        result = run_workload(SMALL, "tma")
        assert 0.0 <= result.recomputation_rate <= 1.0

    def test_same_spec_same_results(self):
        a = run_workload(SMALL, "tma")
        b = run_workload(SMALL, "tma")
        assert a.final_results == b.final_results
        assert a.scratch_work == b.scratch_work

    @pytest.mark.parametrize("algorithm", ["brute", "tsl", "tma", "sma"])
    def test_counters_deterministic(self, algorithm):
        # The figure tests assert counter trends, so every counter must
        # depend on the seeded workload alone.
        a = run_workload(SMALL, algorithm)
        b = run_workload(SMALL, algorithm)
        assert a.counters == b.counters
        assert a.mean_state_size == b.mean_state_size

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_workload(SMALL, "magic")

    def test_unknown_distribution(self):
        with pytest.raises(StreamError, match="unknown distribution"):
            run_workload(SMALL.with_(distribution="zipf"), "tma")

    @pytest.mark.parametrize("enabled", [True, False])
    def test_cyclic_gc_state_restored(self, enabled):
        was_enabled = gc.isenabled()
        try:
            if enabled:
                gc.enable()
            else:
                gc.disable()
            run_workload(SMALL.with_(cycles=2), "tma")
            assert gc.isenabled() is enabled
        finally:
            if was_enabled:
                gc.enable()
            else:
                gc.disable()


class TestCompare:
    def test_agreement_enforced(self):
        results = compare_algorithms(SMALL, ("brute", "tsl", "tma", "sma"))
        assert set(results) == {"brute", "tsl", "tma", "sma"}
        reference = results["brute"].final_results
        for name in ("tsl", "tma", "sma"):
            assert results[name].final_results == reference

    def test_disagreement_raises(self, monkeypatch):
        real_run = harness.run_workload

        def wrong_tma(spec, algorithm):
            result = real_run(spec, algorithm)
            if algorithm == "tma":
                first = min(result.final_results)
                result.final_results[first] = result.final_results[first][1:]
            return result

        monkeypatch.setattr(harness, "run_workload", wrong_tma)
        with pytest.raises(AssertionError, match="tma disagrees with brute"):
            compare_algorithms(SMALL, ("brute", "tma"))

    def test_check_can_be_disabled(self):
        results = compare_algorithms(
            SMALL, ("tma",), check_results=False
        )
        assert "tma" in results


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            ["x", "value"], [[1, "aaa"], [22, "b"]]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("x")
        assert "---" not in lines[0]

    def test_format_table_rule_matches_widths(self):
        text = format_table(["x", "value"], [[1, "aaa"], [22, "b"]])
        assert text.splitlines()[1] == "--  -----"

    def test_print_series(self, capsys):
        print_series(
            "Figure X",
            "k",
            [1, 2],
            {"TMA": [0.5, 1.0], "SMA": [0.25, 0.5]},
        )
        out = capsys.readouterr().out
        assert "Figure X" in out
        assert "TMA [s]" in out
        assert "0.2500" in out

    def test_print_series_unit_and_precision(self, capsys):
        print_series(
            "Space", "k", [5], {"TMA": [1.23456]}, unit="KB", precision=1
        )
        out = capsys.readouterr().out
        assert "TMA [KB]" in out
        assert "1.2" in out
        assert "1.23" not in out
