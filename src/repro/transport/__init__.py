"""Transport layer: shard channels under the parallel/serving tiers.

Layering (see ``docs/ARCHITECTURE.md``)::

    core  →  transport  →  parallel / service  →  cluster

- :mod:`~repro.transport.base` — the :class:`ShardChannel` interface,
  typed channel errors, mixed-transport completion-order
  :func:`wait_ready`, and the per-kind :func:`prepare_cycle` broadcast
  encoding;
- :mod:`~repro.transport.pipe` — worker processes on multiprocessing
  pipes (the shared-memory snapshot fast path preserved bit-for-bit);
- :mod:`~repro.transport.tcp` — remote shard hosts on length-delimited
  binary columnar frames (:mod:`~repro.transport.codec`: a small JSON
  header plus raw float64/int64 blocks), cycle deltas on the wire;
- :mod:`~repro.transport.snapshot` — the columnar cycle snapshot
  codec the pipe transport broadcasts.

This package depends only on :mod:`repro.core` and, for frame headers
and query specs, the JSON helpers of :mod:`repro.service.protocol`; it
never imports the parallel, serving or cluster tiers above it.
"""

from repro.transport.base import (
    ChannelClosed,
    ChannelError,
    ChannelTimeout,
    PreparedCycle,
    ShardChannel,
    WorkerFailure,
    parse_address,
    prepare_cycle,
    wait_ready,
)
from repro.transport.pipe import PipeChannel, PipeServerChannel
from repro.transport.tcp import TcpChannel, TcpServerChannel

__all__ = [
    "ChannelClosed",
    "ChannelError",
    "ChannelTimeout",
    "PipeChannel",
    "PipeServerChannel",
    "PreparedCycle",
    "ShardChannel",
    "TcpChannel",
    "TcpServerChannel",
    "WorkerFailure",
    "parse_address",
    "prepare_cycle",
    "wait_ready",
]
