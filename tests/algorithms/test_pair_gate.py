"""The pair-stacked arrival gate and the one linear kernel under it.

- :func:`repro.core.scoring.linear_scores` — through ``score_batch``,
  through the grouped traversal's block form and through the gate's
  per-pair form — returns the scalar ``score`` bit for bit, the sign of
  a zero included;
- :func:`repro.algorithms.base.gated_arrivals` yields exactly the
  (arrival, query) pairs the influence regions name that reach the
  gate, query by query in query-table order and in arrival order,
  whatever families share the table;
- a cycle of linear queries costs one kernel call on the arrival side.

Re-run under the pure-Python batch backend by
:func:`test_python_backend_subprocess`.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import base
from repro.algorithms.base import gated_arrivals
from repro.algorithms.sma import SkybandMonitoringAlgorithm
from repro.algorithms.tma import TopKMonitoringAlgorithm
from repro.core import batch
from repro.core.queries import TopKQuery
from repro.core.scoring import (
    LinearFunction,
    ProductFunction,
    QuadraticFunction,
    linear_scores,
)
from repro.core.stats import OpCounters
from repro.core.tuples import RecordFactory
from repro.core.window import RecordStore

from tests.conftest import rerun_under_python_backend

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True)

numpy_only = pytest.mark.skipif(
    not batch.HAVE_NUMPY, reason="the vector kernel needs the NumPy backend"
)

#: negatives, both zeros, subnormals and the ends of the exponent range.
WEIGHT = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300,
         1e-300, -1e-300]
    ),
    st.floats(-2.0, 2.0, allow_nan=False),
)
ATTR = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 1 / 3, 5e-324, 1e-300]),
    st.floats(0.0, 1.0, allow_nan=False),
)


def table(dims, of, low, high):
    return st.lists(
        st.tuples(*[of] * dims), min_size=low, max_size=high
    )


def bits(values):
    return [float(value).hex() for value in values]


@PROPERTY
@given(data=st.data(), dims=st.integers(1, 4))
def test_vector_scores_are_the_scalar_bit_for_bit(data, dims):
    """Both weighted-sum families, sign of zero included: the scalar
    sum starts from ``0.0``, so it never returns ``-0.0``."""
    weights = data.draw(st.tuples(*[WEIGHT] * dims))
    rows = data.draw(table(dims, ATTR, 1, 12))
    for function in (LinearFunction(weights), QuadraticFunction(weights)):
        expected = [function.score(row) for row in rows]
        assert "-0x0.0p+0" not in bits(expected)
        packed = batch.to_list(function.score_batch(batch.as_matrix(rows)))
        assert bits(packed) == bits(expected), function


def test_negative_weight_on_a_zero_attribute_scores_plus_zero():
    for function in (LinearFunction, QuadraticFunction):
        scores = function([-1.0, -0.5]).score_batch(
            batch.as_matrix([(0.0, 0.0), (0.5, 0.0)])
        )
        assert bits(scores[:1]) == bits([0.0])
        assert scores[1] < 0


@numpy_only
@PROPERTY
@given(data=st.data(), dims=st.integers(1, 4))
def test_pair_and_block_forms_match_score_batch(data, dims):
    np = batch.np
    functions = [
        LinearFunction(weights)
        for weights in data.draw(table(dims, WEIGHT, 1, 6))
    ]
    rows = data.draw(table(dims, ATTR, 1, 10))
    matrix = batch.as_matrix(rows)
    expected = [bits(function.score_batch(matrix)) for function in functions]
    # Any index columns, repeated (arrival, query) positions included.
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, len(rows) - 1),
                st.integers(0, len(functions) - 1),
            ),
            min_size=1,
            max_size=40,
        )
    )
    positions = np.array([pair[0] for pair in pairs])
    columns = np.array([pair[1] for pair in pairs])
    weights = np.array(
        [function.weights for function in functions], dtype=np.float64
    )
    stacked = linear_scores(matrix[positions], weights.T[:, columns])
    assert bits(stacked) == [
        expected[column][position] for position, column in pairs
    ]
    # The grouped traversal's (n, Q) block is the same kernel.
    block = linear_scores(matrix[:, :, None], list(weights.T))
    assert [bits(block[:, q]) for q in range(len(functions))] == expected


class FakeCell:
    def __init__(self, coords):
        self.coords = coords


def draw_family(data, dims):
    family = data.draw(st.sampled_from(["linear", "quadratic", "product"]))
    if family == "product":
        return ProductFunction(data.draw(st.tuples(*[ATTR] * dims)))
    weights = data.draw(st.tuples(*[WEIGHT] * dims))
    return (LinearFunction if family == "linear" else QuadraticFunction)(
        weights
    )


@PROPERTY
@given(data=st.data(), dims=st.integers(1, 3))
def test_gate_yields_the_named_pairs_that_reach_it(data, dims):
    factory = RecordFactory()
    arrivals = [
        factory.make(row) for row in data.draw(table(dims, ATTR, 1, 12))
    ]
    pool = [FakeCell((index,)) for index in range(3)] + [None]
    region = st.frozensets(st.sampled_from([(0,), (1,), (2,), (7,)]))
    states = {}
    for qid in range(data.draw(st.integers(1, 6))):
        function = draw_family(data, dims)
        # A gate some arrival ties with, or none reaches, or all do.
        gate = data.draw(
            st.sampled_from(
                [float("-inf"), float("inf")]
                + [function.score(record.attrs) for record in arrivals]
            )
        )
        states[qid] = SimpleNamespace(
            query=TopKQuery(function, 1),
            gate=gate,
            qid=qid,
            cells=data.draw(region),
        )
    cells = [data.draw(st.sampled_from(pool)) for _ in arrivals]
    counters = OpCounters()
    store = RecordStore(dims)
    slots = store.add_records(arrivals)
    got = [
        (state.qid, store.rids[slot], score.hex())
        for state, slot, score in gated_arrivals(
            store, slots, cells, states, counters, lambda state: state.gate
        )
    ]
    # The record-major scan of the paper's per-cell lists, regrouped
    # by query in query-table order, arrival order within one.
    lists = {}
    for qid, state in states.items():
        for coords in state.cells:
            lists.setdefault(coords, set()).add(qid)
    expected = {qid: [] for qid in states}
    checks = 0
    for record, cell in zip(arrivals, cells):
        for qid in lists.get(cell.coords, ()) if cell is not None else ():
            checks += 1
            score = states[qid].query.function.score(record.attrs)
            if score >= states[qid].gate:
                expected[qid].append((qid, record.rid, score.hex()))
    assert counters.influence_checks == checks
    assert got == [
        triple for triples in expected.values() for triple in triples
    ]


@numpy_only
@pytest.mark.parametrize(
    "family", [TopKMonitoringAlgorithm, SkybandMonitoringAlgorithm]
)
def test_one_kernel_call_per_cycle_on_the_arrival_side(family, monkeypatch):
    rng = random.Random(23)
    algorithm = family(2, 8)
    factory = RecordFactory()
    algorithm.process_cycle(
        [factory.make((rng.random(), rng.random())) for _ in range(400)], []
    )
    queries = []
    for qid in range(50):
        query = TopKQuery(
            LinearFunction([0.2 + rng.random(), 0.2 + rng.random()]), 5
        )
        query.qid = qid
        queries.append(query)
    algorithm.register_many(queries)

    calls = {"pairs": 0, "score_batch": 0, "rows": 0}
    kernel = base.linear_scores
    score_batch = LinearFunction.score_batch

    def counting_kernel(matrix, weights):
        calls["pairs"] += 1
        calls["rows"] += len(matrix)
        return kernel(matrix, weights)

    def counting_score_batch(self, matrix):
        calls["score_batch"] += 1
        return score_batch(self, matrix)

    monkeypatch.setattr(base, "linear_scores", counting_kernel)
    monkeypatch.setattr(LinearFunction, "score_batch", counting_score_batch)
    before = algorithm.counters.influence_checks
    # Arrivals only: nothing expires, so nothing is recomputed and the
    # whole cycle is the arrival phase.
    algorithm.process_cycle(
        [factory.make((rng.random(), rng.random())) for _ in range(200)], []
    )
    assert calls["pairs"] == 1
    assert calls["score_batch"] == 0
    # One row per (arrival, query) hit the influence regions name.
    assert calls["rows"] == algorithm.counters.influence_checks - before
    assert 0 < calls["rows"] < 200 * 50


def test_python_backend_subprocess():
    """Everything above again under ``REPRO_BATCH_BACKEND=python``."""
    rerun_under_python_backend(__file__)
