"""Tier-1 smoke of the benchmark: deterministic facts only.

Runs ``python3 -m perf.run --smoke`` (N=500) on all four workloads —
once untraced for one second each, the way a real run is driven, and
twice traced with one seed and 8 batches per phase — and asserts what
must hold on any machine at any speed: names and units agree with
``BENCHMARK.json``, nothing failed, counts repeat exactly, no span's
children outlast it, and a child's memory reading is its own. No
wall-clock value is compared.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from perf import children, metrics
from perf.run import DEFAULT_SECONDS
from perf.workloads import WORKLOADS

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: per-layer counts that depend on the inputs alone.
REPEATABLE = [
    "sharded.wire_kb_per_batch",
    "traversal.solo_calls",
    "traversal.group_calls",
    "traversal.group_members",
    "traversal.cells_enheaped",
    "traversal.cells_processed",
    "traversal.points_scored",
]


def _run(tmp_path, tag, *flags):
    out = tmp_path / f"{tag}.json"
    done = subprocess.run(
        [sys.executable, "-m", "perf.run", "--seed", "3", "--smoke",
         "--json", str(out), *flags],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    with open(out) as source:
        return json.load(source)["runs"]


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        return json.load(source)


def test_benchmark_json_names_what_the_code_measures(declared):
    assert declared["paths"] == ["perf"]
    assert declared["run_seconds"] == DEFAULT_SECONDS
    assert [w["name"] for w in declared["workloads"]] == [
        workload.name for workload in WORKLOADS
    ]
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == (
        metrics.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == (
        metrics.PER_LAYER
    )
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in declared[key]
    ]
    assert len(names) == len(set(names))
    assert not set(metrics.ALSO) & set(metrics.END_TO_END)
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_end_to_end_smoke_passes_the_gate(tmp_path):
    runs = _run(tmp_path, "plain", "--seconds", "1")
    assert [run["workload"] for run in runs] == [w.name for w in WORKLOADS]
    for run in runs:
        assert run["seconds"] == 1
        assert run["failed"] == 0 and run["correct"], run["notes"]
        assert run["queries_checked"] > 0
        assert {
            name: metric["unit"] for name, metric in run["metrics"].items()
        } == metrics.END_TO_END
        assert all(metric["value"] > 0 for metric in run["metrics"].values())
        # The four metrics BENCHMARK.json cannot declare, where defined.
        assert run["also"]["failed_share"] == {"value": 0, "unit": "ratio"}
        assert ("wire_kb_per_batch" in run["also"]) == (
            run["workload"] == "tcp_sharded"
        )
        assert ("register_ms_p50" in run["also"]) == (
            run["workload"] == "sma_query_churn"
        )
        assert ("fresh_ms_p99" in run["also"]) == (
            run["samples"]["fresh_ms"] >= metrics.P99_SAMPLES
        )
        assert all(NAME.match(name) for name in run["also"])
        assert all(
            metric["unit"] == metrics.ALSO[name]["unit"]
            for name, metric in run["also"].items()
        )


def test_traced_smoke_repeats_its_counts_and_nests_its_spans(tmp_path):
    first = _run(tmp_path, "traced-1", "--trace", "1")
    second = _run(tmp_path, "traced-2", "--trace", "1")
    for run, again in zip(first, second):
        assert run["failed"] == 0 and again["failed"] == 0
        values = {name: m["value"] for name, m in run["metrics"].items()}
        assert set(values) == set(metrics.PER_LAYER)
        assert values["failed_share"] == 0
        for name in REPEATABLE:
            assert values[name] == again["metrics"][name]["value"], name
        assert values["traversal.cells_processed"] > 0
        for thread in run["spans"]:
            spans = thread["spans"]
            covered = [0.0] * len(spans)
            for _, start, end, parent, _ in spans:
                assert end >= start
                if parent >= 0:
                    covered[parent] += end - start
            for (name, start, end, _, _), inner in zip(spans, covered):
                assert inner <= (end - start) + 1e-9, name
    sharded = {run["workload"]: run for run in first}["tcp_sharded"]
    assert sharded["metrics"]["sharded.wire_kb_per_batch"]["value"] > 0


def test_a_child_reports_its_own_peak_memory_not_its_parents():
    ballast = bytearray(256 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])  # touch every page
    assert children.peak_rss_kb() > len(ballast) // 1024
    child = children.start_server(False, 0, "sma", 500, 3, 4)
    report = child.stop()
    assert 0 < report["rss_kb"] < len(ballast) // 1024 // 2
