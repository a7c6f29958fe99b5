"""Stream records and the canonical ranking order.

A record is ``<p.id, p.x1 ... p.xd, p.t>`` exactly as in paper
Section 4.1: a unique identifier, d numeric attributes, and the arrival
time. Identifiers are assigned in arrival order, which makes them a
proxy for expiration order in both count-based and time-based windows
(footnote 4: "in both count-based and time-based windows the arrival
order is the same as the expiration order").

**Canonical ranking order.** Scores can tie. All algorithms in this
library (and the brute-force oracle the tests compare against) rank
records by the lexicographic key ``(score, rid)`` descending. This is
not just a tie-break convenience: in the score–time space of Section 5,
a later-arriving record with an equal score *dominates* an earlier one
(same score, expires later), so ``(score, rid)`` descending is exactly
the skyband dominance order, and every algorithm reports identical
top-k sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from repro.core.errors import DimensionalityError

#: Rank key type: ``(score, rid)`` compared descending.
RankKey = Tuple[float, int]

#: Key smaller than that of any real record: the "empty result" gate.
MIN_RANK_KEY: RankKey = (float("-inf"), -1)


@dataclass(frozen=True, slots=True)
class StreamRecord:
    """One stream tuple.

    Attributes:
        rid: unique identifier, assigned in arrival order.
        attrs: the d attribute values, in the paper's unit workspace
            ``[0, 1]``. A record may be built with any values, but
            :class:`~repro.core.engine.StreamMonitor` refuses a batch
            holding one outside it: cell maxscores bound only
            in-workspace rows.
        time: arrival timestamp (drives time-based windows).
    """

    rid: int
    attrs: Tuple[float, ...]
    time: float = 0.0

    @property
    def dims(self) -> int:
        return len(self.attrs)

    def require_dims(self, dims: int) -> None:
        """Raise :class:`DimensionalityError` unless ``dims`` matches."""
        if len(self.attrs) != dims:
            raise DimensionalityError(
                f"record {self.rid} has {len(self.attrs)} attributes, "
                f"expected {dims}"
            )


class RecordFactory:
    """Mints records with consecutive ids.

    Stream drivers share one factory per run so ids are globally unique
    and strictly increasing in arrival order — the property the
    canonical rank key and the skyband reduction rely on.
    """

    def __init__(self, start: int = 0) -> None:
        self._next = start

    @property
    def next_id(self) -> int:
        return self._next

    def take(self, count: int) -> int:
        """Reserve ``count`` consecutive ids; return the first."""
        start = self._next
        self._next += count
        return start

    def make(self, attrs: Sequence[float], time: float = 0.0) -> StreamRecord:
        record = StreamRecord(self._next, tuple(attrs), time)
        self._next += 1
        return record

    def make_batch(
        self, rows: Sequence[Sequence[float]], time: float = 0.0
    ) -> list:
        return [self.make(row, time) for row in rows]


def rank_key(score: float, record: StreamRecord) -> RankKey:
    """Canonical descending-order key of ``record`` with ``score``."""
    return (score, record.rid)


def iter_sorted_by_rank(
    scored: Sequence[Tuple[float, StreamRecord]],
) -> Iterator[Tuple[float, StreamRecord]]:
    """Yield ``(score, record)`` pairs best-first in canonical order."""
    return iter(
        sorted(scored, key=lambda pair: (pair[0], pair[1].rid), reverse=True)
    )
