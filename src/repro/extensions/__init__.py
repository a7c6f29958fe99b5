"""Section 7 extensions: constrained, threshold, and update-stream monitoring.

All three run through the one :class:`~repro.core.engine.StreamMonitor`
facade:

- Constrained top-k queries run through the ordinary TMA/SMA engines
  (they understand :class:`~repro.core.queries.ConstrainedTopKQuery`
  natively); :mod:`repro.extensions.constrained` adds ergonomic
  constructors and validation.
- Threshold monitoring (all points scoring above a user threshold) is
  ``monitor.add_query(ThresholdQuery(...))`` on any algorithm and
  shard count; grid algorithms install the query on the cells whose
  maxscore exceeds the threshold (:mod:`repro.algorithms.base`).
- Streams with explicit (non-FIFO) deletions are
  ``StreamMonitor(dims, stream_model="update")`` and
  ``process(insertions, deletions=...)`` — TMA applies, SMA is refused
  exactly as the paper prescribes.
"""

from repro.extensions.constrained import constrained_query

__all__ = [
    "constrained_query",
]
