"""Batch-scoring subsystem: backend helpers and the exactness contract.

The load-bearing property: for every preference-function family and
both block representations (packed backend matrix and plain row list),
``score_batch`` returns exactly — bitwise — what per-record ``score``
returns. The canonical rank order ``(score, rid)`` resolves ties by
rid, so any last-bit deviation could reorder records near a tie and
desynchronise a vectorized algorithm from the brute-force oracle.
"""

import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batch
from repro.core.batch import (
    ArrivalScorer,
    as_matrix,
    is_matrix,
    take_at_least,
    to_list,
)
from repro.core.scoring import (
    CallableFunction,
    LinearFunction,
    ProductFunction,
    QuadraticFunction,
)
from repro.core.tuples import RecordFactory

finite = st.floats(
    min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
unit = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


def matrices(dims, rows_strategy, values=unit):
    return st.lists(
        st.tuples(*[values] * dims), min_size=1, max_size=rows_strategy
    )


def make_functions(dims, coefficients):
    return [
        LinearFunction(coefficients),
        QuadraticFunction(coefficients),
        ProductFunction([abs(c) for c in coefficients]),
        CallableFunction(
            lambda *attrs: math.fsum(attrs),
            directions=[1] * dims,
            label="fsum",
        ),
    ]


class TestExactness:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        dims=st.integers(1, 6),
    )
    def test_score_batch_equals_scalar_score(self, data, dims):
        coefficients = data.draw(
            st.lists(finite, min_size=dims, max_size=dims)
        )
        rows = data.draw(matrices(dims, 24))
        for function in make_functions(dims, coefficients):
            expected = [function.score(row) for row in rows]
            # Packed representation (ndarray under the NumPy backend).
            packed = to_list(function.score_batch(as_matrix(rows)))
            assert packed == expected, function
            # Plain row-list representation (the fallback path).
            plain = to_list(function.score_batch(list(rows)))
            assert plain == expected, function

    def test_tie_heavy_grid_scores_stay_tied(self):
        # Values on a coarse lattice collide constantly; batched and
        # scalar scores must collide identically.
        rows = [
            (x / 10.0, y / 10.0) for x in range(11) for y in range(11)
        ]
        function = LinearFunction([1.0, 1.0])
        assert to_list(function.score_batch(as_matrix(rows))) == [
            function.score(row) for row in rows
        ]


class TestBackendHelpers:
    def test_backend_is_declared(self):
        assert batch.BACKEND in ("numpy", "python")
        assert batch.HAVE_NUMPY == (batch.BACKEND == "numpy")

    def test_as_matrix_empty_is_row_list(self):
        assert as_matrix([]) == []

    def test_as_matrix_roundtrip_is_lossless(self):
        rows = [(0.1, 0.2), (1 / 3, 2 / 3)]
        matrix = as_matrix(rows)
        if is_matrix(matrix):
            assert matrix.tolist() == [list(row) for row in rows]
        else:
            assert matrix == rows

    def test_to_list_returns_python_floats(self):
        function = LinearFunction([0.5, 0.5])
        values = to_list(function.score_batch(as_matrix([(0.2, 0.4)])))
        assert all(type(value) is float for value in values)

    def test_take_at_least_matches_loop(self):
        function = LinearFunction([1.0, 1.0])
        rows = [(0.1, 0.1), (0.5, 0.5), (0.3, 0.7), (0.9, 0.9)]
        vector = function.score_batch(as_matrix(rows))
        values = to_list(vector)
        for threshold in (-1.0, 0.2, 1.0, 1.7999, 1.8, 2.5):
            indices, picked = take_at_least(vector, threshold)
            assert indices == [
                index
                for index, value in enumerate(values)
                if value >= threshold
            ]
            assert picked == [values[index] for index in indices]
            assert all(type(value) is float for value in picked)

    def test_take_at_least_includes_exact_ties(self):
        function = LinearFunction([1.0, 1.0])
        vector = function.score_batch(as_matrix([(0.25, 0.25)]))
        threshold = function.score((0.25, 0.25))
        assert take_at_least(vector, threshold) == ([0], [threshold])


class TestBlockHelpers:
    def test_store_gather_scores_like_its_rows(self):
        """A wave of cells is scored after one gather from the record
        store, in the order the slots were asked for."""
        from repro.core.window import RecordStore

        function = LinearFunction([0.3, -0.7])
        rows = [(0.1, 0.9), (0.5, 0.5), (1 / 3, 2 / 3), (0.9, 0.2)]
        store = RecordStore(2)
        slots = store.add(range(4), [0.0] * 4, rows)
        wave = [slots[2], slots[0], slots[3]]
        assert to_list(function.score_batch(store.gather(wave))) == [
            function.score(rows[i]) for i in (2, 0, 3)
        ]

    def test_take_rows_keeps_requested_order(self):
        rows = [(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)]
        function = LinearFunction([1.0, 2.0])
        picked = batch.take_rows(as_matrix(rows), [2, 0])
        assert to_list(function.score_batch(picked)) == [
            function.score(rows[2]),
            function.score(rows[0]),
        ]

    def test_kth_largest_counts_ties(self):
        function = LinearFunction([1.0, 0.0])
        values = [0.5, 0.9, 0.5, 0.1, 0.9, 0.7]
        vector = function.score_batch(as_matrix([(v, 0.0) for v in values]))
        ranked = sorted(values, reverse=True)
        for k in range(1, len(values) + 1):
            assert batch.kth_largest(vector, k) == ranked[k - 1]


class TestArrivalScorer:
    def test_scores_match_scalar(self):
        factory = RecordFactory()
        records = [
            factory.make((0.1 * i, 1.0 - 0.05 * i)) for i in range(12)
        ]
        scorer = ArrivalScorer(as_matrix([r.attrs for r in records]))
        function = LinearFunction([0.7, 0.3])
        expected = [function.score(record.attrs) for record in records]
        assert scorer.scores(function) == expected

    def test_take_survivors_prefilter(self):
        factory = RecordFactory()
        records = [factory.make((value, value)) for value in (0.1, 0.5, 0.9)]
        scorer = ArrivalScorer(as_matrix([r.attrs for r in records]))
        function = LinearFunction([1.0, 1.0])
        assert scorer.take_survivors(function, 1.0)[0] == [1, 2]
        # A threshold equal to a score keeps that arrival (rid ties).
        best = function.score((0.9, 0.9))
        assert scorer.take_survivors(function, best) == ([2], [best])

    def test_cache_is_per_function(self):
        factory = RecordFactory()
        records = [factory.make((0.2, 0.8))]
        scorer = ArrivalScorer(as_matrix([r.attrs for r in records]))
        first = LinearFunction([1.0, 0.0])
        second = LinearFunction([0.0, 1.0])
        assert scorer.scores(first) == [pytest.approx(0.2)]
        assert scorer.scores(second) == [pytest.approx(0.8)]


class TestPythonBackendProcess:
    def test_env_override_forces_python_backend(self):
        """REPRO_BATCH_BACKEND=python must disable NumPy and stay exact."""
        code = (
            "from repro.core import batch\n"
            "from repro.core.scoring import LinearFunction\n"
            "assert batch.BACKEND == 'python', batch.BACKEND\n"
            "assert batch.np is None\n"
            "f = LinearFunction([0.3, -0.7])\n"
            "rows = [(0.1, 0.9), (0.5, 0.5)]\n"
            "m = batch.as_matrix(rows)\n"
            "assert not batch.is_matrix(m)\n"
            "assert batch.to_list(f.score_batch(m)) == "
            "[f.score(r) for r in rows]\n"
            "print('ok')\n"
        )
        env = dict(os.environ, REPRO_BATCH_BACKEND="python")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"
