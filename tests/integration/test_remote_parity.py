"""Remote TCP shards ≡ pipe shards ≡ single process, bit for bit.

The acceptance contract of the transport layer: a
``StreamMonitor(shards=["host:port", ...])`` pointed at real
``repro.cluster.shard`` subprocesses must produce per-cycle change
reports, results, counters and influence totals *bitwise identical*
to both the in-process engine and the pipe-sharded pool — across
algorithms (TMA, SMA, TSL), shard counts, grouping, and mid-stream
query churn. Scores are compared through ``float.hex`` so even
sign-of-zero drift would fail.

Only linear preference functions appear here: quadratic ones are not
wire-serialisable by design (the codec rejects them locally; see
``tests/cluster/test_remote_shard.py``).
"""

import os
import random
import subprocess
import sys

import pytest

from repro.cluster import local_shard_hosts
from repro.core.engine import StreamMonitor
from repro.core.queries import TopKQuery
from repro.core.scoring import LinearFunction
from repro.core.window import CountBasedWindow


def make_linear_query_factory(seed, dims=2, similar=True):
    """Like the sharded-parity factory, but linear-only (the codec's
    wire-serialisable subset)."""
    rng = random.Random(seed)
    base = [rng.uniform(0.3, 0.9) for _ in range(dims)]

    def make_spec():
        if similar and rng.random() < 0.7:
            weights = [
                max(0.05, value + rng.uniform(-0.08, 0.08))
                for value in base
            ]
        else:
            weights = [rng.uniform(0.05, 1.0) for _ in range(dims)]
        return LinearFunction(weights), rng.choice([1, 3, 5])

    return make_spec


def exact_keys(entries):
    return [(entry.score.hex(), entry.rid) for entry in entries]


def change_signature(report):
    return {
        qid: (
            exact_keys(change.added),
            exact_keys(change.removed),
            exact_keys(change.top),
        )
        for qid, change in report.changes.items()
    }


def run_remote_parity_stream(
    seed,
    shards,
    algorithm="tma",
    grouped=False,
    cycles=10,
    dims=2,
    window=60,
    rate=8,
    num_queries=8,
    churn=False,
):
    """Drive triplet monitors (in-process / pipe / TCP-remote) on one
    stream and require bitwise-equal behavior every cycle."""
    make_spec = make_linear_query_factory(seed, dims)
    options = {"grouped": True} if grouped else {}
    with local_shard_hosts(shards) as addresses:
        monitors = {
            "mono": StreamMonitor(
                dims,
                CountBasedWindow(window),
                algorithm=algorithm,
                cells_per_axis=5,
                **options,
            ),
            "pipe": StreamMonitor(
                dims,
                CountBasedWindow(window),
                algorithm=algorithm,
                cells_per_axis=5,
                shards=shards,
                **options,
            ),
            "tcp": StreamMonitor(
                dims,
                CountBasedWindow(window),
                algorithm=algorithm,
                cells_per_axis=5,
                shards=addresses,
                **options,
            ),
        }
        try:
            assert monitors["tcp"].algorithm.transport == "tcp"
            rng = random.Random(seed * 31 + 7)

            def add_burst(count):
                specs = [make_spec() for _ in range(count)]
                per_monitor = {
                    name: monitor.add_queries(
                        [TopKQuery(fn, k) for fn, k in specs]
                    )
                    for name, monitor in monitors.items()
                }
                assert (
                    per_monitor["mono"]
                    == per_monitor["pipe"]
                    == per_monitor["tcp"]
                )
                return per_monitor["mono"]

            def assert_results_equal(live, context):
                for qid in sorted(live):
                    want = exact_keys(monitors["mono"].result(qid))
                    for name in ("pipe", "tcp"):
                        got = exact_keys(monitors[name].result(qid))
                        assert got == want, (
                            f"{context}: query {qid} diverged on "
                            f"{name} (seed {seed})"
                        )

            live = set(add_burst(num_queries))
            assert_results_equal(live, "initial registration")

            for cycle in range(cycles):
                if churn and cycle % 3 == 1 and live:
                    victim = rng.choice(sorted(live))
                    for monitor in monitors.values():
                        monitor.remove_query(victim)
                    live.discard(victim)
                    live.update(add_burst(2))
                rows = [
                    [rng.random() for _ in range(dims)]
                    for _ in range(rate)
                ]
                reports = {
                    name: monitor.process(
                        monitor.make_records(rows, time_=float(cycle))
                    )
                    for name, monitor in monitors.items()
                }
                want = change_signature(reports["mono"])
                for name in ("pipe", "tcp"):
                    assert change_signature(reports[name]) == want, (
                        f"cycle {cycle}: change reports diverged on "
                        f"{name} (seed {seed})"
                    )
                assert_results_equal(live, f"cycle {cycle}")

            mono_entries = getattr(
                monitors["mono"].algorithm, "influence_list_entries", None
            )
            if mono_entries is not None:  # grid algorithms only
                want_total = mono_entries()
                for name in ("pipe", "tcp"):
                    assert (
                        monitors[name].algorithm.influence_list_entries()
                        == want_total
                    ), f"influence totals diverged on {name}"
            for field in (
                "recomputations",
                "topk_computations",
                "arrivals",
                "expirations",
                "influence_checks",
                "top_list_updates",
                "skyband_insertions",
                "sorted_list_updates",
                "view_insertions",
            ):
                want_value = getattr(monitors["mono"].counters, field)
                for name in ("pipe", "tcp"):
                    assert (
                        getattr(monitors[name].counters, field)
                        == want_value
                    ), f"counter {field} diverged on {name}"
            want_sizes = monitors["mono"].algorithm.result_state_sizes()
            for name in ("pipe", "tcp"):
                assert (
                    monitors[name].algorithm.result_state_sizes()
                    == want_sizes
                )
            # remote cycles moved real bytes, none via shared memory
            transport = monitors["tcp"].algorithm.transport_stats()
            assert transport["cycles"] == cycles
            assert transport["cycle_wire_bytes_total"] > 0
            assert transport["cycle_shared_bytes_total"] == 0
        finally:
            for monitor in monitors.values():
                monitor.close()


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_tma_shard_counts(shards):
    run_remote_parity_stream(171, shards, algorithm="tma")


@pytest.mark.parametrize("algorithm", ["sma", "tsl"])
def test_other_algorithms(algorithm):
    run_remote_parity_stream(173, 2, algorithm=algorithm, cycles=8)


@pytest.mark.parametrize("seed", [179, 197])
def test_grouped_remote_sharding(seed):
    run_remote_parity_stream(seed, 2, algorithm="sma", grouped=True)


def test_query_churn_mid_stream():
    run_remote_parity_stream(181, 2, algorithm="tma", churn=True)


def test_grouped_churn():
    run_remote_parity_stream(
        191, 2, algorithm="sma", grouped=True, churn=True, cycles=8
    )


def test_python_backend_parity_subprocess():
    """Remote parity must hold under the pure-Python batch backend too
    (both coordinator and shard hosts inherit it via the environment).
    REPRO_BATCH_BACKEND is read at import time, so this runs in a
    subprocess like the other backend-override tests."""
    code = (
        "import os, sys\n"
        "sys.path.insert(0, os.environ['REPRO_TEST_DIR'])\n"
        "from repro.core import batch\n"
        "assert batch.BACKEND == 'python', batch.BACKEND\n"
        "from test_remote_parity import run_remote_parity_stream\n"
        "run_remote_parity_stream(193, 2, algorithm='tma', cycles=6)\n"
        "run_remote_parity_stream(197, 2, algorithm='tsl', cycles=6)\n"
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
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
