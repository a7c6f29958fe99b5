"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.core.queries import TopKQuery
from repro.core.results import ResultEntry
from repro.core.tuples import RecordFactory, StreamRecord


def brute_top_k(
    records: Sequence[StreamRecord], query: TopKQuery
) -> List[ResultEntry]:
    """Reference top-k under the canonical (score, rid) order."""
    from repro.algorithms.topk_computation import query_region

    region = query_region(query)
    scored = [
        (query.score(record.attrs), record.rid, record)
        for record in records
        if region is None or region.contains(record.attrs)
    ]
    scored.sort(key=lambda item: item[:2], reverse=True)
    return [
        ResultEntry(score, record) for score, _, record in scored[: query.k]
    ]


def result_ids(entries: Sequence[ResultEntry]) -> List[int]:
    return [entry.rid for entry in entries]


def make_records(
    rows: Sequence[Sequence[float]],
    start_id: int = 0,
    time: float = 0.0,
) -> List[StreamRecord]:
    factory = RecordFactory(start=start_id)
    return [factory.make(row, time) for row in rows]


def store_holding(records: Sequence[StreamRecord]):
    """A :class:`~repro.core.window.RecordStore` holding ``records``."""
    from repro.core.window import RecordStore

    store = RecordStore(len(records[0].attrs) if records else 2)
    store.add_records(records)
    return store


def arrival_columns(records: Sequence[StreamRecord]):
    """The ``(rids, times, rows)`` arrival columns a coordinator cuts
    from its store for ``records``."""
    from repro.core.window import RecordStore

    store = RecordStore(len(records[0].attrs) if records else 2)
    return store.columns(store.add_records(records))


def random_rows(
    rng: random.Random, count: int, dims: int
) -> List[Tuple[float, ...]]:
    return [tuple(rng.random() for _ in range(dims)) for _ in range(count)]


def rerun_under_python_backend(test_file: str) -> None:
    """Run ``test_file`` again under ``REPRO_BATCH_BACKEND=python`` (the
    backend is picked at import time, hence the subprocess) and assert
    it passes; a no-op when this already is the pure-Python leg."""
    if os.environ.get("REPRO_BATCH_BACKEND", "").strip().lower() == "python":
        return
    env = dict(os.environ, REPRO_BATCH_BACKEND="python")
    root = os.path.join(os.path.dirname(__file__), "..")
    env["PYTHONPATH"] = os.pathsep.join(
        [
            os.path.abspath(os.path.join(root, "src")),
            os.path.abspath(root),
            env.get("PYTHONPATH", ""),
        ]
    )
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            os.path.abspath(test_file),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
