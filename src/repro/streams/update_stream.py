"""Update-stream model: explicit, non-FIFO deletions (Section 7).

"In case of streams that contain explicit deletions, the data no
longer expire in a first-in-first-out manner." Each arriving record is
assigned a random lifetime; its deletion is issued that many cycles
later, so at any moment the live set is a mix of ages — the expiry
order is unknown in advance, which is precisely why SMA's skyband
cannot be used and TMA (via
``StreamMonitor(dims, stream_model="update")``) handles this model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from repro.core.errors import StreamError
from repro.core.tuples import RecordFactory, StreamRecord
from repro.streams.generators import DataDistribution


@dataclass(slots=True)
class UpdateBatch:
    """One cycle of an update stream: inserts plus explicit deletes."""

    time: float
    insertions: List[StreamRecord] = field(default_factory=list)
    deletions: List[StreamRecord] = field(default_factory=list)


class UpdateStreamDriver:
    """Generate insert/delete batches with random record lifetimes.

    Args:
        distribution: point sampler for inserted records.
        rate: insertions per cycle.
        min_lifetime / max_lifetime: each record is deleted a uniform
            number of cycles after insertion within this range —
            deletions interleave out of arrival order.
    """

    def __init__(
        self,
        distribution: DataDistribution,
        rate: int,
        min_lifetime: int = 1,
        max_lifetime: int = 50,
        seed: int = 0,
    ) -> None:
        if rate < 1:
            raise StreamError(f"rate must be >= 1, got {rate}")
        if not (1 <= min_lifetime <= max_lifetime):
            raise StreamError(
                f"need 1 <= min_lifetime <= max_lifetime, got "
                f"{min_lifetime}..{max_lifetime}"
            )
        self.distribution = distribution
        self.rate = rate
        self.min_lifetime = min_lifetime
        self.max_lifetime = max_lifetime
        self._rng = random.Random(seed)
        self._factory = RecordFactory()
        self._cycle = 0
        #: due-cycle -> records to delete then
        self._pending: Dict[int, List[StreamRecord]] = {}

    def next_batch(self) -> UpdateBatch:
        """Advance one cycle: new insertions plus the deletions now due."""
        self._cycle += 1
        time = float(self._cycle)
        insertions = []
        for row in self.distribution.sample_many(self._rng, self.rate):
            record = self._factory.make(row, time)
            insertions.append(record)
            due = self._cycle + self._rng.randint(
                self.min_lifetime, self.max_lifetime
            )
            self._pending.setdefault(due, []).append(record)
        deletions = self._pending.pop(self._cycle, [])
        return UpdateBatch(time=time, insertions=insertions, deletions=deletions)

    def batches(self, cycles: int) -> Iterator[UpdateBatch]:
        for _ in range(cycles):
            yield self.next_batch()

    def drain(self) -> List[StreamRecord]:
        """All records scheduled for future deletion (test helper)."""
        remaining: List[StreamRecord] = []
        for due in sorted(self._pending):
            remaining.extend(self._pending[due])
        return remaining
