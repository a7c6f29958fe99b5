"""Backend selection and helpers for vectorized batch scoring.

Every hot path of the reproduction ultimately evaluates a monotone
preference function over many attribute vectors: the Figure-6 traversal
scores whole grid cells, TSL scores every arrival against every query,
and TMA/SMA score arrivals against the queries whose influence region
they hit. This module picks, once at import time, the *batch backend*
those paths use:

- ``numpy`` — when NumPy is importable, attribute blocks become
  ``float64`` matrices and the scoring kernels in
  :mod:`repro.core.scoring` evaluate a whole block with a handful of
  array operations;
- ``python`` — otherwise, a block is a plain list of attribute tuples
  and the kernels fall back to per-row ``score`` calls, costing exactly
  what the pre-batching code paths did.

Set the environment variable ``REPRO_BATCH_BACKEND=python`` to force
the fallback even when NumPy is installed (used by tests and by the
fallback benchmarks).

**Exactness contract.** Vectorization must not perturb results: the
paper's canonical rank order ``(score, rid)`` breaks ties by record id,
so a score that differs from the scalar path in its last bit could
reorder records near a tie and desynchronise an algorithm from the
brute-force oracle. Every kernel therefore evaluates with *the same
floating-point operations in the same order* as the scalar ``score``
(see :meth:`repro.core.scoring.PreferenceFunction.score_batch`), and
``tests/core/test_batch.py`` asserts bitwise equality per family and
backend. Helpers here preserve that: matrix construction and
``to_list`` round-trip Python floats through ``float64`` losslessly.
"""

from __future__ import annotations

import heapq
import os
from typing import List, Optional, Sequence

try:  # pragma: no cover - exercised indirectly via BACKEND checks
    import numpy as _numpy
except ImportError:  # pragma: no cover - environment-dependent
    _numpy = None

if os.environ.get("REPRO_BATCH_BACKEND", "").strip().lower() == "python":
    _numpy = None

#: the numpy module when the vector backend is active, else None.
np = _numpy

#: True when batch kernels run on NumPy arrays.
HAVE_NUMPY = np is not None

#: name of the selected backend: "numpy" or "python".
BACKEND = "numpy" if HAVE_NUMPY else "python"


def as_matrix(rows: Sequence[Sequence[float]]):
    """Pack attribute rows into the backend's batch representation.

    NumPy backend: a C-contiguous ``(n, d)`` float64 array (Python
    floats convert losslessly). Fallback: the rows themselves, as a
    list. Either form is accepted by
    :meth:`~repro.core.scoring.PreferenceFunction.score_batch`.
    """
    if np is not None and len(rows):
        return np.asarray(rows, dtype=np.float64)
    return list(rows)


def is_matrix(block) -> bool:
    """Whether ``block`` is a backend array (vs a plain row list)."""
    return np is not None and isinstance(block, np.ndarray)


def to_list(vector) -> List[float]:
    """Score vector as a list of Python floats (lossless conversion)."""
    if np is not None and isinstance(vector, np.ndarray):
        return vector.tolist()
    return list(vector)


def take_at_least(vector, threshold: float):
    """``(indices, values)`` of entries with ``value >= threshold``.

    The survivor prefilter of the batched cycle paths: candidates whose
    score cannot reach a query's current gate are dropped in one
    vector comparison instead of one interpreted comparison each, and
    only the surviving values become Python floats.
    """
    if np is not None and isinstance(vector, np.ndarray):
        picked = np.nonzero(vector >= threshold)[0]
        return picked.tolist(), vector[picked].tolist()
    indices = []
    values = []
    for index, value in enumerate(vector):
        if value >= threshold:
            indices.append(index)
            values.append(value)
    return indices, values


def take_rows(block, indices: Sequence[int]):
    """The rows of ``block`` at ``indices``, as a block."""
    if is_matrix(block):
        return block[indices]
    return [block[index] for index in indices]


def kth_largest(vector, k: int) -> float:
    """The kth largest value of ``vector`` (``1 <= k <= len(vector)``)."""
    if is_matrix(vector):
        cut = len(vector) - k
        return float(np.partition(vector, cut)[cut])
    return heapq.nlargest(k, vector)[-1]


class ArrivalScorer:
    """Lazy per-function batch scores over one cycle's arrival block.

    For the paths that need every (arrival, query) score — TSL and
    threshold queries without a grid: per preference function the full
    score vector of ``matrix`` (the arrivals' attribute block) is
    computed on first request and cached (keyed by function identity,
    which is stable for the cycle because query objects outlive it).
    TMA/SMA score only the pairs their influence lists name
    (:func:`repro.algorithms.base.gated_arrivals`).
    """

    __slots__ = ("_matrix", "_vectors", "_lists")

    def __init__(self, matrix) -> None:
        self._matrix = matrix
        self._vectors: dict = {}
        self._lists: dict = {}

    def __len__(self) -> int:
        return len(self._matrix)

    def vector(self, function):
        """Backend-native score vector of the whole batch (cached)."""
        key = id(function)
        vector = self._vectors.get(key)
        if vector is None:
            vector = function.score_batch(self._matrix)
            self._vectors[key] = vector
        return vector

    def scores(self, function) -> List[float]:
        """Scores of the whole batch as Python floats (cached)."""
        key = id(function)
        values = self._lists.get(key)
        if values is None:
            values = to_list(self.vector(function))
            self._lists[key] = values
        return values

    def take_survivors(self, function, min_score: float):
        """``(indices, values)`` of arrivals scoring ``>= min_score``.

        Gathers only the surviving scores (see :func:`take_at_least`),
        so a high gate avoids materialising the full batch as floats.
        """
        return take_at_least(self.vector(function), min_score)
