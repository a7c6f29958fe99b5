"""Query-sharded parallel maintenance (multi-process execution).

The paper's per-query, additive cost model makes TMA/SMA maintenance
embarrassingly partitionable by query. This package supplies the
pieces:

- :class:`~repro.parallel.sharding.ShardPlanner` — query→shard
  assignment (similarity-bucket-sticky for linear top-k queries,
  round-robin otherwise);
- :mod:`repro.transport.snapshot` — the pipe transport's columnar
  per-cycle broadcast (shared memory under the NumPy backend, pickled
  columns otherwise);
- :mod:`~repro.parallel.worker` — the shard worker process loop;
- :class:`~repro.parallel.sharded.ShardedMonitorAlgorithm` — the
  coordinator, a drop-in
  :class:`~repro.algorithms.base.MonitorAlgorithm`.

Entry point for users: ``StreamMonitor(..., shards=N)``.
"""

from repro.parallel.sharded import ShardedMonitorAlgorithm
from repro.parallel.sharding import ShardPlanner

__all__ = ["ShardPlanner", "ShardedMonitorAlgorithm"]
