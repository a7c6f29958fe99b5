"""Sharded execution ≡ single-process execution, end to end.

The tentpole contract of the sharded maintenance engine
(:mod:`repro.parallel`): a ``StreamMonitor(..., shards=N)`` must
produce *bitwise-identical* per-cycle change reports, results and
influence-list totals to the in-process engine — for every shard
count, for TMA and SMA, with grouping on and off, under mid-stream
query churn, and on both batch backends. The replays below drive a
single-process twin and a sharded monitor through identical streams
and compare cycle by cycle.
"""

import os
import random
import subprocess
import sys

import pytest

from repro.core.engine import StreamMonitor
from repro.core.queries import TopKQuery
from repro.core.scoring import LinearFunction, QuadraticFunction
from repro.core.window import CountBasedWindow


def make_query_factory(seed, dims=2, similar=True):
    rng = random.Random(seed)
    base = [rng.uniform(0.3, 0.9) for _ in range(dims)]

    def make_spec():
        if similar and rng.random() < 0.7:
            weights = [
                max(0.05, value + rng.uniform(-0.08, 0.08))
                for value in base
            ]
            function = LinearFunction(weights)
        elif rng.random() < 0.5:
            function = LinearFunction(
                [rng.uniform(0.05, 1.0) for _ in range(dims)]
            )
        else:
            function = QuadraticFunction(
                [rng.uniform(0.1, 1.0) for _ in range(dims)]
            )
        return function, rng.choice([1, 3, 5])

    return make_spec


def change_signature(report):
    return {
        qid: (
            [entry.key for entry in change.added],
            [entry.key for entry in change.removed],
            [entry.key for entry in change.top],
        )
        for qid, change in report.changes.items()
    }


def run_parity_stream(
    seed,
    shards,
    algorithm="tma",
    grouped=False,
    cycles=12,
    dims=2,
    window=70,
    rate=9,
    num_queries=10,
    churn=False,
):
    """Drive twin monitors (in-process vs sharded) on one stream."""
    make_spec = make_query_factory(seed, dims)
    options = {"grouped": True} if grouped else {}
    mono = StreamMonitor(
        dims,
        CountBasedWindow(window),
        algorithm=algorithm,
        cells_per_axis=5,
        **options,
    )
    sharded = StreamMonitor(
        dims,
        CountBasedWindow(window),
        algorithm=algorithm,
        cells_per_axis=5,
        shards=shards,
        **options,
    )
    try:
        rng = random.Random(seed * 31 + 7)

        def add_burst(count):
            specs = [make_spec() for _ in range(count)]
            qids = mono.add_queries(
                [TopKQuery(fn, k) for fn, k in specs]
            )
            qids_sharded = sharded.add_queries(
                [TopKQuery(fn, k) for fn, k in specs]
            )
            assert qids == qids_sharded
            return qids

        live = set(add_burst(num_queries))
        for qid in sorted(live):
            assert [entry.key for entry in mono.result(qid)] == [
                entry.key for entry in sharded.result(qid)
            ], f"initial result diverged for query {qid}"

        for cycle in range(cycles):
            if churn and cycle % 3 == 1 and live:
                victim = rng.choice(sorted(live))
                mono.remove_query(victim)
                sharded.remove_query(victim)
                live.discard(victim)
                live.update(add_burst(2))
            rows = [
                [rng.random() for _ in range(dims)] for _ in range(rate)
            ]
            report_mono = mono.process(
                mono.make_records(rows, time_=float(cycle))
            )
            report_sharded = sharded.process(
                sharded.make_records(rows, time_=float(cycle))
            )
            assert change_signature(report_mono) == change_signature(
                report_sharded
            ), f"cycle {cycle} change reports diverged (seed {seed})"
            for qid in sorted(live):
                assert [entry.key for entry in mono.result(qid)] == [
                    entry.key for entry in sharded.result(qid)
                ], f"cycle {cycle} result diverged for query {qid}"

        mono_entries = getattr(
            mono.algorithm, "influence_list_entries", None
        )
        if mono_entries is not None:  # grid algorithms only
            assert (
                mono_entries()
                == sharded.algorithm.influence_list_entries()
            ), "influence-list totals diverged"
        for field in (
            "recomputations",
            "topk_computations",
            "arrivals",
            "expirations",
            "influence_checks",
            "top_list_updates",
            "skyband_insertions",
            # Replica-ingestion counter: every shard performs it, but
            # the merge must count it once (TSL regression guard).
            "sorted_list_updates",
            "view_insertions",
        ):
            assert getattr(mono.counters, field) == getattr(
                sharded.counters, field
            ), f"counter {field} diverged"
        assert (
            mono.algorithm.result_state_sizes()
            == sharded.algorithm.result_state_sizes()
        )
    finally:
        mono.close()
        sharded.close()


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("algorithm", ["tma", "sma"])
def test_shard_counts(shards, algorithm):
    run_parity_stream(17, shards, algorithm=algorithm)


@pytest.mark.parametrize("seed", [23, 29])
def test_grouped_sharding(seed):
    run_parity_stream(seed, 2, algorithm="sma", grouped=True)


@pytest.mark.parametrize("shards", [2, 3])
def test_query_churn_mid_stream(shards):
    run_parity_stream(41, shards, algorithm="tma", churn=True)


def test_grouped_churn():
    run_parity_stream(43, 2, algorithm="sma", grouped=True, churn=True)


def test_more_shards_than_queries():
    run_parity_stream(47, 4, algorithm="tma", num_queries=2, cycles=8)


def test_tsl_sharded_parity():
    """Sharding is algorithm-agnostic: the TSL baseline partitions too."""
    run_parity_stream(53, 2, algorithm="tsl", cycles=8)


def test_python_backend_parity_subprocess():
    """Sharded parity must hold under the pure-Python backend too
    (pickled-columns snapshot path). REPRO_BATCH_BACKEND is read at
    import time, so this runs in a subprocess like the other
    backend-override tests."""
    code = (
        "import os, sys\n"
        "sys.path.insert(0, os.environ['REPRO_TEST_DIR'])\n"
        "from repro.core import batch\n"
        "assert batch.BACKEND == 'python', batch.BACKEND\n"
        "from test_sharded_parity import run_parity_stream\n"
        "run_parity_stream(61, 2, algorithm='sma', grouped=True)\n"
        "run_parity_stream(61, 2, algorithm='tma')\n"
        "run_parity_stream(67, 2, algorithm='sma', churn=True, cycles=8)\n"
        "print('ok')\n"
    )
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.abspath(os.path.join(here, "..", "..", "src"))
    env = dict(os.environ, REPRO_BATCH_BACKEND="python")
    env["REPRO_TEST_DIR"] = here
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
