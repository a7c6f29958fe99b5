"""Columnar cycle snapshots broadcast from coordinator to shards.

This is the *pipe transport's* cycle encoding (the TCP transport
sends the same columns as binary blocks — see
:mod:`repro.transport.codec`). Each processing cycle the coordinator
must hand every worker the same ``P_ins`` / ``P_del`` batches. Only
arrivals travel as records, and only as columns cut from the
coordinator's :class:`~repro.core.window.RecordStore` — ids, times and
one attribute block in the batch backend's form; every worker already
holds the records it expires, so expirations travel as a list of ids:

- **NumPy backend**: the arrivals' ``(n, d)`` float64 attribute block
  is placed in a :mod:`multiprocessing.shared_memory` segment once it
  is large enough (:data:`SHM_MIN_BYTES`), so N workers read the
  attribute payload without N pickled copies travelling through
  pipes; a smaller block is pickled with the header. Ids and times
  (one int/float per record) and the expired ids ride in the header.
- **Pure-Python backend** (``REPRO_BATCH_BACKEND=python``): the block
  is a plain list of attribute tuples, pickled with the header —
  exactly the fallback contract of :mod:`repro.core.batch`.

Payloads::

    ("cols", (rids, times, rows), expired_rids)
    ("shm", segment_name, (rows, dims), rids, times, expired_rids)

**The shard store fill.** :func:`decode_cycle` copies the arrival
columns straight into the worker's own
:class:`~repro.core.window.RecordStore` — from the shared segment, the
pickled block, or a TCP frame's attribute block alike — and resolves
the expired ids to slots; no record object is built. Arrivals enter
first (the update model may delete a record in the batch that inserted
it), and an expired id the store does not hold is refused before
anything changes. The worker releases the expired slots after the
cycle's reply is built.

**Exactness.** Attributes are IEEE-754 doubles end to end: the store's
float64 block, the segment and the wire blocks all carry their eight
bytes unchanged, so a worker scores bit-for-bit the values the
coordinator holds — the precondition for sharded results matching
single-process results under the canonical ``(score, rid)`` order.

Lifecycle: :func:`encode_cycle` returns ``(payload, handle)``; the
coordinator broadcasts the payload, waits for every worker's reply
(workers copy out of the segment inside :func:`decode_cycle`, before
replying), then calls ``handle.close()`` which unlinks the segment.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from repro.core import batch
from repro.core.errors import ProtocolError
from repro.core.window import RecordStore, Slots

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


def encode_cycle(columns, expired_rids: Sequence[int]):
    """Encode one cycle's arrival columns ``(rids, times, rows)`` and
    expired ids; returns ``(payload, handle)``.

    The payload is picklable and may be broadcast to any number of
    workers; call ``handle.close()`` only after every worker replied.
    """
    rids, times, rows = columns
    expired = list(expired_rids)
    if batch.is_matrix(rows) and rows.nbytes >= SHM_MIN_BYTES:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=rows.nbytes)
        view = batch.np.ndarray(rows.shape, dtype=rows.dtype, buffer=shm.buf)
        view[:] = rows
        payload = ("shm", shm.name, rows.shape, rids, times, expired)
        return payload, _SharedBlockHandle(shm)
    return ("cols", (rids, times, rows), expired), _NullHandle()


def decode_cycle(payload, store: RecordStore):
    """Fill ``store`` from an encoded cycle; return ``(arrived,
    expired)`` slots. An expired id the store does not hold (and the
    batch does not bring) is a :class:`~repro.core.errors.ProtocolError`
    naming it, raised before the store changes."""
    kind = payload[0]
    if kind == "cols":
        _, (rids, times, rows), expired = payload
        if isinstance(rows, array) and len(rows) != len(rids) * store.dims:
            raise ProtocolError(
                f"attribute block holds {len(rows)} values, expected "
                f"{len(rids)} rows x {store.dims}"
            )
    elif kind == "shm":
        _, name, shape, rids, times, expired = payload
    else:  # pragma: no cover - protocol guard
        raise ValueError(f"unknown snapshot payload kind {kind!r}")
    if len(set(expired)) != len(expired):
        seen = set()
        twice = next(rid for rid in expired if rid in seen or seen.add(rid))
        raise ProtocolError(
            f"expired record id {twice} expires twice in one cycle"
        )
    slots = list(map(store.index.get, expired))
    unknown = None in slots
    if unknown:
        arriving = set(rids)
        for rid, slot in zip(expired, slots):
            if slot is None and rid not in arriving:
                raise ProtocolError(
                    f"expired record id {rid} is not in this shard's store"
                )
    if kind == "shm":
        shm = _attach_untracked(name)
        try:
            view = batch.np.ndarray(shape, dtype=batch.np.float64, buffer=shm.buf)
            arrived = store.add(rids, times, view)
        finally:
            shm.close()
    else:
        arrived = store.add(rids, times, rows)
    return arrived, store.slots_of(expired) if unknown else Slots(slots)


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

