"""Grouped recomputation ≡ per-query recomputation, end to end.

The tentpole contract of the grouped-traversal subsystem: running
SMA with ``grouped=True`` must produce bitwise-identical results —
same ``(score, rid)`` per cycle per query — and identical influence
regions to the per-query path, under query churn and on both batch
backends. TMA rides along ungrouped. The stream replay keeps the
brute-force oracle in the loop, so a grouped bug cannot hide behind a
matching plain-path bug.
"""

import os
import random
import subprocess
import sys

import pytest

from repro.algorithms import make_algorithm
from repro.core.queries import TopKQuery
from repro.core.scoring import LinearFunction, QuadraticFunction
from repro.core.tuples import RecordFactory

PLAIN = ("tma", "sma")


def make_similar_function(rng, base, jitter):
    return LinearFunction(
        [max(0.05, value + rng.uniform(-jitter, jitter)) for value in base]
    )


def influence_map(algorithm):
    """qid -> influence region, for every registered query."""
    return {
        query.qid: algorithm.influence_region(query.qid)
        for query in algorithm.queries()
    }


def run_parity_stream(
    seed,
    cycles=18,
    dims=2,
    window=70,
    rate=9,
    num_queries=12,
    make_function=None,
    churn=False,
):
    rng = random.Random(seed)
    factory = RecordFactory()
    if make_function is None:
        base = [rng.uniform(0.3, 0.9) for _ in range(dims)]
        make_function = lambda rng: make_similar_function(rng, base, 0.08)  # noqa: E731
    algorithms = {"brute": make_algorithm("brute", dims)}
    for name in PLAIN + ("sma-grouped",):
        algorithms[name] = make_algorithm(name, dims, cells_per_axis=5)

    next_qid = 0
    queries = {}

    def new_query():
        nonlocal next_qid
        query = TopKQuery(make_function(rng), k=rng.choice([1, 3, 5]))
        query.qid = next_qid
        next_qid += 1
        queries[query.qid] = query
        return query

    def add_query():
        query = new_query()
        for algorithm in algorithms.values():
            algorithm.register(query)

    def remove_query(qid):
        for algorithm in algorithms.values():
            algorithm.unregister(qid)
        del queries[qid]

    # The initial queries arrive as one burst: the grouped registration.
    burst = [new_query() for _ in range(num_queries)]
    for algorithm in algorithms.values():
        algorithm.register_many(burst)

    window_records = []
    for cycle in range(cycles):
        if churn and cycle % 3 == 1:
            # Mid-stream churn: drop a random query, add two fresh
            # ones — the group registry must invalidate and regroup.
            remove_query(rng.choice(sorted(queries)))
            add_query()
            add_query()
        arrivals = [factory.make(tuple(rng.random() for _ in range(dims)))
                    for _ in range(rate)]
        window_records.extend(arrivals)
        expired = []
        while len(window_records) > window:
            expired.append(window_records.pop(0))
        outcomes = {}
        for name, algorithm in algorithms.items():
            algorithm.process_cycle(list(arrivals), list(expired))
            outcomes[name] = {
                qid: [
                    (entry.score, entry.rid)
                    for entry in algorithm.current_result(qid)
                ]
                for qid in queries
            }
        assert outcomes["sma-grouped"] == outcomes["sma"], (
            f"sma-grouped diverged from sma at cycle {cycle} (seed {seed})"
        )
        for plain in PLAIN:
            assert outcomes[plain] == outcomes["brute"], (
                f"{plain} diverged from brute at cycle {cycle} (seed {seed})"
            )
    assert influence_map(algorithms["sma-grouped"]) == influence_map(
        algorithms["sma"]
    ), "sma-grouped influence regions diverged from sma"
    return algorithms


@pytest.mark.parametrize("seed", range(4))
def test_similar_query_families(seed):
    algorithms = run_parity_stream(seed)
    # The similar workload must actually exercise the grouped sweep.
    assert algorithms["sma-grouped"].counters.grouped_queries_served > 0


@pytest.mark.parametrize("seed", range(3))
def test_query_churn_mid_stream(seed):
    run_parity_stream(seed + 40, churn=True)


@pytest.mark.parametrize("size", [1, 2, 8, 32])
def test_group_sizes_to_32(size):
    run_parity_stream(
        700 + size, num_queries=size, cycles=10, window=50, rate=8
    )


def test_mixed_families_group_only_the_linear_members():
    """Non-linear queries ride along ungrouped; results stay exact."""

    def make_function(rng):
        if rng.random() < 0.3:
            return QuadraticFunction(
                [rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)]
            )
        return LinearFunction([0.6, 0.4])

    run_parity_stream(9000, make_function=make_function, churn=True)


def test_dissimilar_queries_fall_back_to_singletons():
    def make_function(rng):
        return LinearFunction(
            [rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)]
        )

    run_parity_stream(9100, make_function=make_function)


def test_python_backend_parity_subprocess():
    """The grouped sweep must stay exact under the pure-Python backend
    (REPRO_BATCH_BACKEND=python picks the fallback at import time, so
    this runs in a subprocess like the other backend-override tests)."""
    code = (
        "import random\n"
        "from repro.core import batch\n"
        "assert batch.BACKEND == 'python', batch.BACKEND\n"
        "from repro.algorithms import make_algorithm\n"
        "from repro.core.queries import TopKQuery\n"
        "from repro.core.scoring import LinearFunction\n"
        "from repro.core.tuples import RecordFactory\n"
        "rng = random.Random(5)\n"
        "factory = RecordFactory()\n"
        "names = ('brute', 'tma', 'sma', 'sma-grouped')\n"
        "algos = {n: make_algorithm(n, 2, cells_per_axis=4) for n in names}\n"
        "queries = []\n"
        "for qid in range(10):\n"
        "    w = [max(0.05, 0.6 + rng.uniform(-0.1, 0.1)),\n"
        "         max(0.05, 0.4 + rng.uniform(-0.1, 0.1))]\n"
        "    q = TopKQuery(LinearFunction(w), k=rng.choice([1, 3, 5]))\n"
        "    q.qid = qid\n"
        "    queries.append(q)\n"
        "for a in algos.values():\n"
        "    a.register_many(queries)\n"
        "window = []\n"
        "for cycle in range(14):\n"
        "    arrivals = [factory.make((rng.random(), rng.random()))\n"
        "                for _ in range(8)]\n"
        "    window.extend(arrivals)\n"
        "    expired = []\n"
        "    while len(window) > 50:\n"
        "        expired.append(window.pop(0))\n"
        "    outs = {}\n"
        "    for n, a in algos.items():\n"
        "        a.process_cycle(list(arrivals), list(expired))\n"
        "        outs[n] = {qid: [(e.score, e.rid)\n"
        "                   for e in a.current_result(qid)]\n"
        "                   for qid in range(10)}\n"
        "    assert outs['tma'] == outs['brute'], cycle\n"
        "    assert outs['sma-grouped'] == outs['sma'], cycle\n"
        "    assert outs['sma'] == outs['brute'], cycle\n"
        "assert algos['sma-grouped'].counters.grouped_queries_served > 0\n"
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
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
