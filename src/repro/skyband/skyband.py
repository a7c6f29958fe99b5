"""The score–time k-skyband with dominance counters (Section 5).

Per query, SMA maintains the set of valid records (within the query's
influence region) that are dominated by fewer than k others in the
score–time plane. Because arrival order equals expiration order
(footnote 4), record ids serve as expiration timestamps, and a record
``a`` dominates ``b`` exactly when ``key(a) > key(b)`` under the
canonical rank key ``(score, rid)``: ``a`` scores at least as high
*and* expires later.

Each entry carries a *dominance counter* DC — "the number of records
with higher score that arrive after p". New arrivals enter with DC=0
(nothing newer exists), increment the DC of every lower-keyed entry,
and entries whose DC reaches k can never re-enter any top-k result and
are evicted (Figure 10's worked example is test-replayed in
``tests/skyband/test_skyband.py``).

Entries are three parallel columns in ascending key order — the rank
keys, the :class:`~repro.core.results.ResultEntry` objects a delivery
carries, and the DCs as plain ints: the current top-k is a reversed
slice of the second, an insertion is a bisect plus one pass over a
slice of the third (the paper's O(k) per update), and an expiry is a
bisect plus one ``del`` per column. No object is made per entry.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Sequence

from repro.core.results import ResultEntry
from repro.core.stats import OpCounters
from repro.core.tuples import RankKey, StreamRecord


class ScoreTimeSkyband:
    """Dominance-counter k-skyband over (score, expiry-order) pairs."""

    __slots__ = ("k", "_keys", "_results", "_dcs", "_by_rid")

    def __init__(self, k: int) -> None:
        self.k = k
        self._keys: List[RankKey] = []  # ascending
        self._results: List[ResultEntry] = []  # _results[i] has _keys[i]
        self._dcs: List[int] = []
        self._by_rid: Dict[int, RankKey] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, rid: int) -> bool:
        return rid in self._by_rid

    def rids(self):
        """Record ids of the entries (a live set-like view)."""
        return self._by_rid.keys()

    def dcs(self) -> Dict[int, int]:
        """``rid -> dominance counter``, ascending key order (worst first)."""
        return {
            result[1].rid: dc for result, dc in zip(self._results, self._dcs)
        }

    def top(self) -> List[ResultEntry]:
        """The current top-k: best-first list of the k highest keys."""
        return self._results[: -self.k - 1 : -1]

    def kth_key(self) -> RankKey:
        """Key of the kth-best entry (gate), or -inf when under-full."""
        if len(self._keys) < self.k:
            return (float("-inf"), -1)
        return self._keys[-self.k]

    def insert(
        self,
        score: float,
        record: StreamRecord,
        counters: Optional[OpCounters] = None,
    ) -> List[StreamRecord]:
        """Admit a new arrival; return the records evicted by it.

        The new record has the largest rid seen so far, so it arrives
        with DC=0 and dominates (increments) every entry with a lower
        key — Figure 11, lines 8–11.
        """
        key: RankKey = (score, record.rid)
        position = bisect_left(self._keys, key)
        evicted: List[StreamRecord] = []
        if position:
            bumped = [dc + 1 for dc in self._dcs[:position]]
            if counters is not None:
                counters.dominance_updates += position
            if max(bumped) >= self.k:
                results = self._results
                kept = [i for i, dc in enumerate(bumped) if dc < self.k]
                gone = [i for i, dc in enumerate(bumped) if dc >= self.k]
                evicted = [results[i][1] for i in gone]
                for dominated in evicted:
                    del self._by_rid[dominated.rid]
                self._keys[:position] = [self._keys[i] for i in kept]
                results[:position] = [results[i] for i in kept]
                bumped = [bumped[i] for i in kept]
            self._dcs[:position] = bumped
            position = len(bumped)
        self._keys.insert(position, key)
        self._results.insert(position, ResultEntry(score, record))
        self._dcs.insert(position, 0)
        self._by_rid[record.rid] = key
        if counters is not None:
            counters.skyband_insertions += 1
            counters.skyband_evictions += len(evicted)
        return evicted

    def remove_by_rid(self, rid: int) -> bool:
        """Drop the entry of an expired record; no DC changes needed.

        The paper proves (footnote 5) the earliest-arrival skyband
        member is always in the current top-k and dominates nothing,
        so removal never touches other counters.
        """
        key = self._by_rid.pop(rid, None)
        if key is None:
            return False
        # Keys are unique (rid component); position is exact.
        position = bisect_left(self._keys, key)
        del self._keys[position]
        del self._results[position]
        del self._dcs[position]
        return True

    def rebuild(
        self,
        best_first: Sequence[ResultEntry],
        counters: Optional[OpCounters] = None,
    ) -> None:
        """Reset to a freshly computed top-k set and derive its DCs.

        The entries are kept as they are — immutable, they may be
        shared with the caller and with other skybands; the columns
        are this skyband's own. Section 5: scan in descending score
        order keeping an ordered set BT of arrival times; each entry's
        DC is the number of already-scanned entries that arrived later
        — O(k log k) total. The ordered set is a bisect-maintained
        list rather than the balanced tree the paper suggests: k is
        small (≤ a few hundred) and a C-level bisect + memmove beats
        an interpreted tree by an order of magnitude at that size
        (same trade the TMA top lists make);
        ``repro.analysis.cost_model`` keeps the O(log k) terms.
        """
        self._results = list(reversed(best_first))  # ascending key order
        rids = [result[1].rid for result in self._results]
        self._keys = [
            (result[0], rid) for result, rid in zip(self._results, rids)
        ]
        self._by_rid = dict(zip(rids, self._keys))
        seen_rids: List[int] = []
        dcs: List[int] = []
        for rid in reversed(rids):  # descending key order
            dcs.append(len(seen_rids) - bisect_right(seen_rids, rid))
            insort(seen_rids, rid)
        dcs.reverse()
        self._dcs = dcs
        if counters is not None:
            counters.dominance_updates += len(rids)

    def validate(self) -> None:
        """Internal-consistency check used by property tests."""
        assert self._keys == sorted(self._keys), "keys out of order"
        assert (
            len(self._keys)
            == len(self._results)
            == len(self._dcs)
            == len(self._by_rid)
        )
        for key, result, dc in zip(self._keys, self._results, self._dcs):
            assert dc < self.k, f"rid {key[1]} should have been evicted"
            assert key == (result.score, result.record.rid)
            assert self._by_rid[key[1]] == key
