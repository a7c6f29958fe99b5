"""Sliding-window semantics: count-based and time-based.

The paper (Section 1) defines two window flavours over the append-only
stream: a *count-based* window holds the N most recent tuples, a
*time-based* window holds every tuple that arrived within the last T
time units. Both evict strictly first-in-first-out (Section 4.1), so a
single FIFO list of valid records suffices and eviction is O(1) per
expired tuple.

A window object owns that FIFO list — a ``collections.deque``: nothing
removes from the middle, and a linked list's node cycles would keep a
closed monitor's records alive until the next full garbage collection.
The engine feeds arrivals through
:meth:`SlidingWindow.insert` and collects the expirations a cycle
produces through :meth:`SlidingWindow.evict`; the two sets are handed
to the monitoring algorithm as the paper's ``P_ins`` / ``P_del``.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Iterator, List, Optional

from repro.core.errors import WindowError
from repro.core.tuples import StreamRecord


class SlidingWindow(abc.ABC):
    """Base class: FIFO store of the currently valid records."""

    def __init__(self) -> None:
        self._records: deque = deque()
        self._last_time: Optional[float] = None

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[StreamRecord]:
        """Valid records, oldest first."""
        return iter(self._records)

    def observe(self, record: StreamRecord) -> None:
        """Validate stream order and advance the order clock without
        admitting the record.

        Used for dead-on-arrival drops: a record the engine refuses
        still *arrived*, so a misordered producer must keep failing
        loudly and later arrivals must still be ordered against it.
        """
        if self._last_time is not None and record.time < self._last_time:
            raise WindowError(
                f"out-of-order arrival: record {record.rid} at time "
                f"{record.time} after time {self._last_time}"
            )
        self._last_time = record.time

    def insert(self, record: StreamRecord) -> None:
        """Admit an arrival. Arrivals must be in non-decreasing time."""
        self.observe(record)
        self._records.append(record)

    def admits(self, record: StreamRecord, now: float) -> bool:
        """Whether ``record`` would still be valid at time ``now``.

        ``False`` marks a *dead-on-arrival* record: inserting it and
        immediately evicting at ``now`` would feed it to the algorithm
        as both an arrival and an expiration in the same cycle. The
        engine drops such records up front (see
        :meth:`repro.core.engine.StreamMonitor.process`). Count-based
        windows always admit — validity there depends on subsequent
        arrivals, not on the clock.
        """
        return True

    @abc.abstractmethod
    def evict(self, now: float) -> List[StreamRecord]:
        """Pop and return every record that expires at time ``now``."""

    def peek_oldest(self) -> Optional[StreamRecord]:
        return self._records[0] if self._records else None


class CountBasedWindow(SlidingWindow):
    """The N most recent tuples are valid (paper's default, Section 8)."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise WindowError(f"window capacity must be positive: {capacity}")
        super().__init__()
        self.capacity = capacity

    def evict(self, now: float) -> List[StreamRecord]:
        expired: List[StreamRecord] = []
        while len(self._records) > self.capacity:
            expired.append(self._records.popleft())
        return expired

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

    def evict(self, now: float) -> List[StreamRecord]:
        expired: List[StreamRecord] = []
        while self._records:
            oldest = self._records[0]
            if oldest.time + self.duration <= now:
                expired.append(self._records.popleft())
            else:
                break
        return expired

    def admits(self, record: StreamRecord, now: float) -> bool:
        """A record already older than ``now - duration`` is dead on
        arrival: it would expire in the very cycle that inserts it."""
        return record.time + self.duration > now

    def __repr__(self) -> str:
        return f"TimeBasedWindow(T={self.duration})"
