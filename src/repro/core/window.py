"""The record store and the sliding-window policies over it.

The paper (Section 4.1) keeps each valid record once and lets the grid
cells point to it. :class:`RecordStore` is that one copy, held as
columns indexed by *slot*:

- ``rids`` and ``times`` — one int / float per slot (Python lists, so
  the per-slot reads of the cycle loop return plain numbers);
- ``attrs`` — an ``(capacity, d)`` float64 block under the NumPy
  backend, a list of attribute tuples under the pure-Python one, so a
  set of slots is scored after one gather (:meth:`RecordStore.gather`);
- ``cells`` — the flat id of the grid cell a slot lies in, written by
  the grid on insert and read back on delete;
- ``index`` — rid → slot, and a FIFO free list of released slots.

Slots are reused in the order they were released, so under a sliding
window (FIFO expiry) the store behaves as a ring: a batch takes the
slots the previous cycle expired. The update model's explicit
deletions leave holes that the free list refills. A slot is released
only after the cycle that expired it has ended (the engine calls
:meth:`RecordStore.release` once the cycle's changes are dispatched),
so nothing read during a cycle — a pipelined cycle's shard reply
included — can see a recycled slot.

A :class:`~repro.core.tuples.StreamRecord` is built from the columns
only when something reads it (:meth:`RecordStore.record`: results,
handles, change entries) and cached on its slot until the slot is
released. Records handed in by a caller are cached as given.

Batches enter as a :class:`RecordBatch` — a read-only columnar
``Sequence[StreamRecord]`` (what
:meth:`~repro.core.engine.StreamMonitor.make_records` returns) — and
leave the window as :class:`Slots`.

The window classes keep the paper's two flavours: a *count-based*
window holds the N most recent tuples, a *time-based* window the
tuples of the last T time units. Both expire first-in-first-out, so a
window is a FIFO of slots over a store. :meth:`SlidingWindow.evict`
pops the expired slots; :meth:`SlidingWindow.insert` and
:meth:`SlidingWindow.expire` keep a record-level surface for
stand-alone use.
"""

from __future__ import annotations

import abc
from array import array
from collections import deque
from itertools import chain, islice
from operator import le
from math import isfinite
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import batch
from repro.core.errors import StreamError, WindowError
from repro.core.tuples import StreamRecord


class Slots(list):
    """Slot ids of one batch of records in a :class:`RecordStore`, in
    arrival order. The type tells an algorithm's ``process_cycle`` that
    the batch is already in its store."""

    __slots__ = ()


def _pack(rows: Sequence[Sequence[float]]):
    """``rows`` as a float64 ``(n, d)`` block under NumPy when they are
    a rectangle of numbers, else as a list of tuples (the pure-Python
    backend's block, and the form admission reports bad rows from)."""
    np = batch.np
    if np is not None and len(rows):
        try:
            block = np.asarray(rows)
        except (ValueError, TypeError):  # ragged rows
            block = None
        if (
            block is not None
            and block.ndim == 2
            and block.dtype.kind in "biuf"
        ):
            return block.astype(np.float64, copy=False)
    return [tuple(row) for row in rows]


class RecordBatch(Sequence[StreamRecord]):
    """A read-only columnar batch of stream records.

    ``rids`` and ``times`` hold one entry per record, ``rows`` the
    attribute block (a float64 ``(n, d)`` array, or a list of tuples).
    Indexing builds the :class:`~repro.core.tuples.StreamRecord` on
    demand; a batch packed from records (:meth:`of_records`) returns
    those objects.
    """

    __slots__ = ("rids", "times", "rows", "_records")

    def __init__(
        self,
        rids: Sequence[int],
        times: Sequence[float],
        rows,
        records: Optional[Sequence[StreamRecord]] = None,
    ) -> None:
        self.rids = rids
        self.times = times
        self.rows = rows
        self._records = records

    @classmethod
    def of_records(cls, records: Sequence[StreamRecord]) -> "RecordBatch":
        """Pack a record sequence; anything that is not a
        ``StreamRecord`` is a :class:`~repro.core.errors.StreamError`."""
        records = list(records)
        if not set(map(type, records)) <= {StreamRecord}:
            bad = next(r for r in records if type(r) is not StreamRecord)
            raise StreamError(
                f"batch refused: {bad!r} is a {type(bad).__name__}, not a "
                "StreamRecord (make_records() turns rows into records)"
            )
        return cls(
            [record.rid for record in records],
            [record.time for record in records],
            _pack([record.attrs for record in records]),
            records,
        )

    @classmethod
    def of_rows(
        cls, start: int, rows: Sequence[Sequence[float]], time: float
    ) -> "RecordBatch":
        """Rows stamped ``time`` with ids ``start, start + 1, ...``."""
        return cls(range(start, start + len(rows)), [time] * len(rows), _pack(rows))

    def __len__(self) -> int:
        return len(self.rids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if self._records is not None:
            return self._records[index]
        row = self.rows[index]
        return StreamRecord(
            self.rids[index],
            tuple(row.tolist() if batch.is_matrix(self.rows) else row),
            self.times[index],
        )

    def __iter__(self) -> Iterator[StreamRecord]:
        return (self[index] for index in range(len(self)))

    def __repr__(self) -> str:
        return f"RecordBatch({len(self)} records)"

    def __eq__(self, other) -> bool:
        if isinstance(other, (RecordBatch, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other) -> List[StreamRecord]:
        """Concatenation gives a plain list of records."""
        return list(self) + list(other)

    def __radd__(self, other) -> List[StreamRecord]:
        return list(other) + list(self)

    def refusal(self, dims: int) -> Optional[str]:
        """Why admission refuses this batch, or None: a row that does
        not have ``dims`` attributes, or a value that is not a number
        in the unit workspace ``[0, 1]`` (the first such record is
        named)."""
        rows = self.rows
        if batch.is_matrix(rows):
            if rows.shape[1] != dims:
                return _wrong_width(self[0], dims)
            inside = (rows >= 0) & (rows <= 1)  # NaN fails both
            if inside.all():
                return None
            return _outside(self[int(batch.np.argmin(inside.all(axis=1)))])
        if not set(map(len, rows)) <= {dims}:
            return _wrong_width(
                next(r for r in self if len(r.attrs) != dims), dims
            )
        values = list(chain.from_iterable(rows))
        try:
            # A finite sum proves every value finite (and numeric);
            # only a failed check pays for the per-record scan.
            if not values or (
                isfinite(sum(values)) and min(values) >= 0 and max(values) <= 1
            ):
                return None
        except (TypeError, OverflowError):
            pass
        for record in self:
            try:  # NaN and infinities fail the comparison too
                inside = all(0 <= value <= 1 for value in record.attrs)
            except TypeError:  # text
                inside = False
            if not inside:
                return _outside(record)
        return None

    def take(self, positions: Sequence[int]) -> "RecordBatch":
        """The records at ``positions``, as a batch."""
        return RecordBatch(
            [self.rids[i] for i in positions],
            [self.times[i] for i in positions],
            batch.take_rows(self.rows, list(positions)),
            None
            if self._records is None
            else [self._records[i] for i in positions],
        )


def _wrong_width(record: StreamRecord, dims: int) -> str:
    return (
        f"record {record.rid} has {len(record.attrs)} attributes, "
        f"expected {dims}"
    )


def _outside(record: StreamRecord) -> str:
    return (
        f"record {record.rid} has a value outside the unit workspace "
        f"[0, 1] or a non-numeric one: {record.attrs!r}"
    )


def _positions(slots: Sequence[int]):
    """``slots`` as an index array (cheaper to index with than a list)."""
    np = batch.np
    return np.fromiter(slots, dtype=np.intp, count=len(slots))


class RecordStore:
    """The valid records as slot-indexed columns (see module docs)."""

    __slots__ = (
        "dims",
        "rids",
        "times",
        "attrs",
        "cells",
        "index",
        "_free",
        "_built",
    )

    def __init__(self, dims: int) -> None:
        self.dims = dims
        self.rids: List[int] = []
        self.times: List[float] = []
        np = batch.np
        self.attrs = [] if np is None else np.empty((64, dims))
        self.cells = [] if np is None else np.full(64, -1, dtype=np.int64)
        #: rid -> slot of every record in the store.
        self.index: Dict[int, int] = {}
        self._free: deque = deque()
        #: the StreamRecord built for a slot, or None.
        self._built: List[Optional[StreamRecord]] = []

    def __len__(self) -> int:
        return len(self.index)

    # -- slots in and out ---------------------------------------------

    def _allocate(self, count: int) -> Slots:
        """``count`` slots: released ones first, oldest first, then new
        ones at the end of the columns."""
        free = self._free
        if count < len(free):
            return Slots(free.popleft() for _ in range(count))
        slots = Slots(free)
        free.clear()
        start = len(self.rids)
        grow = count - len(slots)
        slots += range(start, start + grow)
        self.rids += [-1] * grow
        self.times += [0.0] * grow
        self._built += [None] * grow
        np = batch.np
        if np is None:
            self.attrs += [()] * grow
            self.cells += [-1] * grow
        elif start + grow > len(self.attrs):
            size = max(len(self.attrs) * 5 // 4, start + grow)
            attrs = np.empty((size, self.dims))
            attrs[:start] = self.attrs[:start]
            self.attrs = attrs
            cells = np.full(size, -1, dtype=np.int64)
            cells[:start] = self.cells[:start]
            self.cells = cells
        return slots

    def add(
        self,
        rids: Sequence[int],
        times: Sequence[float],
        rows,
        records: Optional[Sequence[StreamRecord]] = None,
    ) -> Slots:
        """Store one batch of columns; return its slots.

        ``rows`` is a ``(n, d)`` block, a list of rows, or a flat
        ``array('d')`` of ``n * d`` values (a wire block). ``records``,
        if given, are cached as the slots' records."""
        count = len(rids)
        if not count:
            return Slots()
        # One int object per id, shared by the column and the index.
        rids = list(rids)
        slots = self._allocate(count)
        np = batch.np
        if isinstance(rows, array):
            rows = (
                list(zip(*[iter(rows)] * self.dims))
                if np is None
                else np.frombuffer(rows, dtype=np.float64).reshape(
                    count, self.dims
                )
            )
        first = slots[0]
        if slots[-1] - first == count - 1 and slots == list(
            range(first, first + count)
        ):
            end = first + count
            self.rids[first:end] = rids
            self.times[first:end] = times
            if np is None:
                self.attrs[first:end] = map(tuple, rows)
            else:
                self.attrs[first:end] = rows
            if records is not None:
                self._built[first:end] = records
        else:
            columns = (self.rids, self.times)
            for column, values in zip(columns, (rids, times)):
                for slot, value in zip(slots, values):
                    column[slot] = value
            if np is None:
                for slot, row in zip(slots, rows):
                    self.attrs[slot] = tuple(row)
            else:
                self.attrs[_positions(slots)] = rows
            if records is not None:
                for slot, record in zip(slots, records):
                    self._built[slot] = record
        self.index.update(zip(rids, slots))
        return slots

    def add_batch(self, records: RecordBatch) -> Slots:
        """Store a :class:`RecordBatch`; return its slots."""
        return self.add(records.rids, records.times, records.rows, records._records)

    def add_records(self, records: Sequence[StreamRecord]) -> Slots:
        """Store a record sequence (each record cached as given)."""
        if type(records) is RecordBatch:
            return self.add_batch(records)
        return self.add_batch(RecordBatch.of_records(records))

    def release(self, slots: Sequence[int]) -> None:
        """Forget the records at ``slots``; their slots become free."""
        index = self.index
        rids = self.rids
        built = self._built
        for slot in slots:
            del index[rids[slot]]
            rids[slot] = -1
            built[slot] = None
        self._free.extend(slots)

    def slots_of(self, rids: Sequence[int]) -> Slots:
        """The slots of ``rids``; ``KeyError`` names an unknown id."""
        return Slots(map(self.index.__getitem__, rids))

    def slots_of_records(self, records: Sequence[StreamRecord]) -> Slots:
        """The slots of ``records``; a record not in the store is a
        :class:`~repro.core.errors.StreamError`."""
        try:
            return self.slots_of([record.rid for record in records])
        except KeyError as exc:
            raise StreamError(
                f"record {exc.args[0]} is not in the window"
            ) from None

    # -- reading -------------------------------------------------------

    def gather(self, slots: Sequence[int]):
        """The attribute rows of ``slots`` as one block (the batch
        backend's form: a float64 array, or a list of tuples)."""
        if batch.np is None:
            attrs = self.attrs
            return [attrs[slot] for slot in slots]
        return self.attrs.take(_positions(slots), axis=0)

    def row(self, slot: int) -> Tuple[float, ...]:
        """The attributes of one slot, as Python floats."""
        row = self.attrs[slot]
        return row if batch.np is None else tuple(row.tolist())

    def record(self, slot: int) -> StreamRecord:
        """The record at ``slot``, built on first read and cached until
        the slot is released."""
        record = self._built[slot]
        if record is None:
            record = StreamRecord(self.rids[slot], self.row(slot), self.times[slot])
            self._built[slot] = record
        return record

    def records(self, slots: Sequence[int]) -> List[StreamRecord]:
        return list(map(self.record, slots))

    def record_of(self, rid: int) -> StreamRecord:
        """The record with id ``rid`` (``KeyError`` if not stored)."""
        return self.record(self.index[rid])

    def columns(self, slots: Sequence[int]):
        """``(rids, times, rows)`` of ``slots`` — a cycle frame's
        arrival columns."""
        rids, times = self.rids, self.times
        return (
            [rids[slot] for slot in slots],
            [times[slot] for slot in slots],
            self.gather(slots),
        )

    # -- the grid's cell column ----------------------------------------

    def put_cells(self, slots: Sequence[int], cells) -> None:
        """Record the flat cell id of each slot."""
        if batch.np is None:
            column = self.cells
            for slot, cell in zip(slots, cells):
                column[slot] = cell
        else:
            self.cells[_positions(slots)] = cells

    def cells_of(self, slots: Sequence[int]) -> List[int]:
        """The flat cell ids recorded for ``slots``."""
        if batch.np is None:
            column = self.cells
            return [column[slot] for slot in slots]
        return self.cells.take(_positions(slots)).tolist()


class SlidingWindow(abc.ABC):
    """Base class: the FIFO of valid slots over a :class:`RecordStore`."""

    def __init__(self) -> None:
        self.store: Optional[RecordStore] = None
        self._slots: deque = deque()
        self._last_time: Optional[float] = None

    def bind(self, store: RecordStore) -> None:
        """Keep the window's records in ``store`` (the monitor's)."""
        if self._slots:
            raise WindowError("cannot rebind a window that holds records")
        self.store = store

    def _store_for(self, dims: int) -> RecordStore:
        if self.store is None:
            self.store = RecordStore(dims)
        return self.store

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[StreamRecord]:
        """Valid records, oldest first."""
        return iter(self.store.records(self._slots)) if self._slots else iter(())

    def _check_order(self, rids: Sequence[int], times: Sequence[float]) -> None:
        if not len(times):
            return
        last = self._last_time
        if (last is None or times[0] >= last) and all(
            map(le, times, islice(times, 1, None))
        ):
            self._last_time = times[-1]
            return
        for rid, time in zip(rids, times):
            if last is not None and time < last:
                raise WindowError(
                    f"out-of-order arrival: record {rid} at time "
                    f"{time} after time {last}"
                )
            last = time

    def insert(self, record: StreamRecord) -> None:
        """Admit an arrival. Arrivals must be in non-decreasing time."""
        self._check_order([record.rid], [record.time])
        self._slots.extend(self._store_for(record.dims).add_records([record]))

    def insert_batch(
        self, records: RecordBatch, now: float
    ) -> Tuple[Slots, int]:
        """Admit a batch at time ``now``: check its order, store the
        records still valid at ``now``, and return ``(slots,
        dead_on_arrival)``. Nothing changes when the order is wrong."""
        times = records.times
        self._check_order(records.rids, times)
        store = self._store_for(batch_width(records.rows))
        live = self._live_positions(times, now)
        if live is not None:
            records = records.take(live)
        slots = store.add_batch(records)
        self._slots.extend(slots)
        return slots, len(times) - len(slots)

    def _live_positions(
        self, times: Sequence[float], now: float
    ) -> Optional[List[int]]:
        """Positions of the batch still valid at ``now`` (None: all)."""
        return None

    @abc.abstractmethod
    def evict(self, now: float) -> Slots:
        """Pop the slots of every record that expires at ``now``. They
        stay in the store until the caller releases them (the engine
        does once the cycle has ended)."""

    def expire(self, now: float) -> List[StreamRecord]:
        """Pop every record that expires at ``now``, release its slot,
        and return the records (the stand-alone form of :meth:`evict`)."""
        slots = self.evict(now)
        if not slots:
            return []
        expired = self.store.records(slots)
        self.store.release(slots)
        return expired

    def peek_oldest(self) -> Optional[StreamRecord]:
        return self.store.record(self._slots[0]) if self._slots else None


def batch_width(rows) -> int:
    """Attribute count of a batch's rows (0 for an empty batch)."""
    if batch.is_matrix(rows):
        return rows.shape[1]
    return len(rows[0]) if len(rows) else 0


class CountBasedWindow(SlidingWindow):
    """The N most recent tuples are valid (paper's default, Section 8)."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise WindowError(f"window capacity must be positive: {capacity}")
        super().__init__()
        self.capacity = capacity

    def evict(self, now: float) -> Slots:
        excess = len(self._slots) - self.capacity
        if excess <= 0:
            return Slots()
        pop = self._slots.popleft
        return Slots(pop() for _ in range(excess))

    def __repr__(self) -> str:
        return f"CountBasedWindow(N={self.capacity})"


class TimeBasedWindow(SlidingWindow):
    """Tuples younger than ``duration`` time units are valid.

    A record with arrival time ``t`` is valid while ``now < t +
    duration`` and expires at ``now >= t + duration`` — so a window of
    duration T observed at integer timestamps holds exactly the tuples
    of the last T timestamps.
    """

    def __init__(self, duration: float) -> None:
        if duration <= 0:
            raise WindowError(f"window duration must be positive: {duration}")
        super().__init__()
        self.duration = duration

    def evict(self, now: float) -> Slots:
        fifo = self._slots
        times = self.store.times if self.store is not None else ()
        expired = Slots()
        while fifo and times[fifo[0]] + self.duration <= now:
            expired.append(fifo.popleft())
        return expired

    def _live_positions(
        self, times: Sequence[float], now: float
    ) -> Optional[List[int]]:
        """A record already older than ``now - duration`` is dead on
        arrival: it would expire in the very cycle that inserts it."""
        duration = self.duration
        if not times or times[0] + duration > now:
            return None  # times are ordered: the oldest decides
        return [i for i, time in enumerate(times) if time + duration > now]

    def __repr__(self) -> str:
        return f"TimeBasedWindow(T={self.duration})"


__all__ = [
    "CountBasedWindow",
    "RecordBatch",
    "RecordStore",
    "SlidingWindow",
    "Slots",
    "TimeBasedWindow",
]
