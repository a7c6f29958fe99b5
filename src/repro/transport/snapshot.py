"""Columnar cycle snapshots broadcast from coordinator to shards.

This is the *pipe transport's* cycle encoding (the TCP transport
sends the same columns as binary blocks — see
:mod:`repro.transport.codec`). Each processing cycle the coordinator
must hand every worker the same ``P_ins`` / ``P_del`` batches. Only
arrivals travel as records — ids, timestamps, and one attribute block
packed the same way the batch kernels pack theirs
(:func:`repro.core.batch.as_matrix`); every worker already holds the
records it expires, so expirations travel as a list of ids:

- **NumPy backend**: the arrivals' ``(n, d)`` float64 attribute matrix
  is placed in a :mod:`multiprocessing.shared_memory` segment, so N
  workers read the attribute payload without N pickled copies
  travelling through pipes. Ids and times (small, one int/float per
  record) and the expired ids ride along in the pickled header.
- **Pure-Python backend** (``REPRO_BATCH_BACKEND=python``): the block
  is a plain list of attribute tuples, pickled with the header —
  exactly the fallback contract of :mod:`repro.core.batch`.

Payloads::

    ("cols", (rids, times, rows), expired_rids)
    ("shm", segment_name, (rows, dims), rids, times, expired_rids)

**Exactness.** Attributes are Python floats, i.e. IEEE-754 doubles;
the float64 round trip through the matrix is lossless, so a worker
rebuilds records bit-for-bit identical to the coordinator's — the
precondition for sharded results matching single-process results under
the canonical ``(score, rid)`` order.

**The replica map.** :func:`decode_cycle` keeps a worker's rid →
record map: arrivals enter it first (the update model may delete a
record in the batch that inserted it), then expired ids are resolved
and dropped — the algorithm expires the very objects it ingested.

Lifecycle: :func:`encode_cycle` returns ``(payload, handle)``; the
coordinator broadcasts the payload, waits for every worker's reply
(workers copy out of the segment inside :func:`decode_cycle`, before
replying), then calls ``handle.close()`` which unlinks the segment.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core import batch
from repro.core.tuples import StreamRecord
from repro.core.errors import ProtocolError

Batches = Tuple[List[StreamRecord], List[StreamRecord]]

#: attribute-block size below which pickled columns beat a shared
#: segment: shm pays create + N × attach/mmap + unlink syscalls per
#: cycle, which only amortises once the block stops being pipe-sized.
SHM_MIN_BYTES = 16384


class _NullHandle:
    """Handle for payloads with nothing to release."""

    __slots__ = ()

    def close(self) -> None:
        pass


class _SharedBlockHandle:
    """Owns the shared-memory segment backing one cycle's attributes."""

    __slots__ = ("_shm",)

    def __init__(self, shm) -> None:
        self._shm = shm

    def close(self) -> None:
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - defensive
                pass
            self._shm = None


def record_columns(records: Sequence[StreamRecord]):
    """``(rids, times, attribute rows)`` of a batch — the ``"cols"``
    payload's arrival columns."""
    rids = [record.rid for record in records]
    times = [record.time for record in records]
    rows = [record.attrs for record in records]
    return rids, times, rows


def encode_cycle(
    arrivals: Sequence[StreamRecord],
    expired_rids: Sequence[int],
):
    """Encode one cycle's arrivals and expired ids; returns
    ``(payload, handle)``.

    The payload is picklable and may be broadcast to any number of
    workers; call ``handle.close()`` only after every worker replied.
    """
    rids, times, rows = record_columns(arrivals)
    expired = list(expired_rids)
    if (
        batch.np is not None
        and rows
        and len(rows) * len(rows[0]) * 8 >= SHM_MIN_BYTES
    ):
        name, shape, shm = _encode_shared(rows)
        payload = ("shm", name, shape, rids, times, expired)
        return payload, _SharedBlockHandle(shm)
    return ("cols", (rids, times, rows), expired), _NullHandle()


def _encode_shared(rows):
    from multiprocessing import shared_memory

    np = batch.np
    matrix = np.asarray(rows, dtype=np.float64)
    if matrix.ndim != 2:  # ragged rows cannot happen from StreamRecords
        raise ValueError(f"inhomogeneous attribute rows: {matrix.shape}")
    shm = shared_memory.SharedMemory(create=True, size=max(1, matrix.nbytes))
    view = np.ndarray(matrix.shape, dtype=np.float64, buffer=shm.buf)
    view[:] = matrix
    return shm.name, matrix.shape, shm


def decode_cycle(payload, replica: Dict[int, StreamRecord]) -> Batches:
    """Rebuild ``(arrivals, expirations)`` from an encoded payload
    against the worker's ``replica`` map, which it updates: arrivals
    enter it, expirations leave it. An expired id the replica does not
    hold is a :class:`~repro.service.protocol.ProtocolError` naming it.
    """
    kind = payload[0]
    if kind == "cols":
        _, (rids, times, rows), expired = payload
    elif kind == "shm":
        _, name, shape, rids, times, expired = payload
        rows = _read_shared(name, shape)
    else:  # pragma: no cover - protocol guard
        raise ValueError(f"unknown snapshot payload kind {kind!r}")
    arrivals = [
        StreamRecord(rid, tuple(row), time)
        for rid, row, time in zip(rids, rows, times)
    ]
    replica.update(zip(rids, arrivals))
    try:
        expirations = list(map(replica.pop, expired))
    except KeyError as exc:
        raise ProtocolError(
            f"expired record id {exc.args[0]} is not in this shard's "
            "replica"
        ) from None
    return arrivals, expirations


def _read_shared(name: str, shape) -> List[Sequence[float]]:
    np = batch.np
    shm = _attach_untracked(name)
    try:
        view = np.ndarray(shape, dtype=np.float64, buffer=shm.buf)
        rows = view.tolist()  # lossless float64 -> Python float
    finally:
        shm.close()
    return rows


def _attach_untracked(name: str):
    """Attach to an existing segment without tracker registration.

    The *coordinator* owns the segment (it created, registered, and
    will unlink it); a reader registering it too would make some
    resource tracker double-clean it — a KeyError in a fork-shared
    tracker, a spurious "leaked shared_memory" warning in a spawned
    worker's own. Python 3.13 exposes ``track=False`` for exactly
    this; earlier versions need the registration suppressed during
    attach (the documented community workaround for CPython #82300).
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original

