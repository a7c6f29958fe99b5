"""Seeded inputs: stream rows and query preference vectors.

Everything the library receives is generated here from ``--seed``; the
same seed gives the same stream and the same queries however long the
run lasts. Rows are uniform IND points in the unit workspace, kept in
one flat ``array('d')`` so the generator's own memory is a single
buffer the cyclic GC never scans. A time-driven run cannot know how
many batches it will send, so the stream walks a fixed pool of rows
and wraps around: the record with arrival id ``rid`` always carries
``pool[rid % pool_rows]``, which is also how ``perf.check`` rebuilds
the window without having kept a single record.
"""

from __future__ import annotations

import os
import platform
import random
from array import array
from typing import Dict, List, Optional, Tuple

DIMS = 4

Row = Tuple[float, ...]


#: the vector similar queries are drawn around. Fixed, not seeded: all
#: of a workload's queries share it, so a seeded base would make one
#: draw decide how expensive the whole run is.
SIMILAR_BASE = (0.5, 0.6, 0.7, 0.8)


class Weights:
    """A session's stream of query preference vectors: independent
    uniform weights, or jittered copies of :data:`SIMILAR_BASE` when
    the workload asks for similar queries. Every session of a run
    starts its own, so all of a run's set-ups register the same
    queries."""

    def __init__(self, seed: int, similarity: Optional[float]) -> None:
        self._rng = random.Random(seed * 7919 + 13)
        self._jitter = (
            None if similarity is None else (1.0 - similarity) * 0.5
        )

    def next(self) -> List[float]:
        rng = self._rng
        jitter = self._jitter
        if jitter is None:
            return [rng.uniform(0.05, 1.0) for _ in range(DIMS)]
        return [
            min(1.0, max(0.05, value + rng.uniform(-jitter, jitter)))
            for value in SIMILAR_BASE
        ]


class Inputs:
    """The stream pool of one run (and the seed its queries grow from)."""

    def __init__(
        self,
        seed: int,
        pool_rows: int,
        similarity: Optional[float] = None,
    ) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.similarity = similarity
        self.pool_rows = pool_rows
        self._flat = array(
            "d", (rng.random() for _ in range(pool_rows * DIMS))
        )

    def attrs_of(self, rid: int) -> Row:
        """Attributes of the record whose arrival id is ``rid``."""
        offset = (rid % self.pool_rows) * DIMS
        return tuple(self._flat[offset:offset + DIMS])

    def rows(self, first_rid: int, count: int) -> List[Row]:
        """Row tuples of ``count`` consecutive arrivals. Call this
        before the clock starts: building the tuples is the
        generator's work, not the library's."""
        attrs_of = self.attrs_of
        return [attrs_of(rid) for rid in range(first_rid, first_rid + count)]

    def weights(self) -> Weights:
        return Weights(self.seed, self.similarity)


def environment() -> Dict[str, object]:
    """What the numbers were measured on (printed with every run)."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "REPRO_BATCH_BACKEND": os.environ.get("REPRO_BATCH_BACKEND", ""),
    }
