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

Entries are stored in a plain list in ascending key order: the current
top-k is the last k entries, an insertion is a bisect plus one pass
over the dominated prefix (the paper's O(k) per update), and an expiry
is a bisect plus one ``del``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Sequence

from repro.core.results import ResultEntry
from repro.core.stats import OpCounters
from repro.core.tuples import RankKey, StreamRecord


class SkybandEntry:
    """One skyband member: canonical key, record, dominance counter."""

    __slots__ = ("key", "record", "dc")

    def __init__(self, key: RankKey, record: StreamRecord, dc: int = 0) -> None:
        self.key = key
        self.record = record
        self.dc = dc

    def __repr__(self) -> str:
        return f"SkybandEntry(rid={self.record.rid}, score={self.key[0]:g}, dc={self.dc})"


class ScoreTimeSkyband:
    """Dominance-counter k-skyband over (score, expiry-order) pairs."""

    __slots__ = ("k", "_entries", "_keys", "_by_rid", "_top_cache")

    def __init__(self, k: int) -> None:
        self.k = k
        self._entries: List[SkybandEntry] = []  # ascending by key
        self._keys: List[RankKey] = []
        self._by_rid: Dict[int, RankKey] = {}
        #: memoised top() materialisation; None after any mutation.
        #: The change-report machinery reads the result both before
        #: and after each cycle's mutations, so an unchanged skyband
        #: re-serves its entry list without rebuilding k objects.
        self._top_cache: Optional[List[ResultEntry]] = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, rid: int) -> bool:
        return rid in self._by_rid

    def rids(self):
        """Record ids of the entries (a live set-like view)."""
        return self._by_rid.keys()

    def entries(self) -> Sequence[SkybandEntry]:
        """All entries, ascending key order (worst first)."""
        return tuple(self._entries)

    def top(self) -> List[ResultEntry]:
        """The current top-k: best-first list of the k highest keys."""
        if self._top_cache is None:
            best = self._entries[-self.k :] if self.k else []
            self._top_cache = [
                ResultEntry(entry.key[0], entry.record)
                for entry in reversed(best)
            ]
        return list(self._top_cache)

    def kth_key(self) -> RankKey:
        """Key of the kth-best entry (gate), or -inf when under-full."""
        if len(self._entries) < self.k:
            return (float("-inf"), -1)
        return self._entries[-self.k].key

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
        self._top_cache = None
        position = bisect_left(self._keys, key)
        evicted: List[StreamRecord] = []
        if position:
            kept_entries: List[SkybandEntry] = []
            kept_keys: List[RankKey] = []
            for entry in self._entries[:position]:
                entry.dc += 1
                if counters is not None:
                    counters.dominance_updates += 1
                if entry.dc >= self.k:
                    evicted.append(entry.record)
                    del self._by_rid[entry.record.rid]
                else:
                    kept_entries.append(entry)
                    kept_keys.append(entry.key)
            if evicted:
                self._entries[:position] = kept_entries
                self._keys[:position] = kept_keys
                position = len(kept_entries)
        self._entries.insert(position, SkybandEntry(key, record))
        self._keys.insert(position, key)
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
        self._top_cache = None
        position = bisect_left(self._keys, key)
        # Keys are unique (rid component); position is exact.
        del self._entries[position]
        del self._keys[position]
        return True

    def rebuild(
        self,
        best_first: Sequence[ResultEntry],
        counters: Optional[OpCounters] = None,
    ) -> None:
        """Reset to a freshly computed top-k set and derive its DCs.

        Section 5: scan in descending score order keeping an ordered
        set BT of arrival times; each entry's DC is the number of
        already-scanned entries that arrived later — O(k log k) total.
        The ordered set is a bisect-maintained list rather than the
        balanced tree the paper suggests: k is small (≤ a few hundred)
        and a C-level bisect + memmove beats an interpreted tree by an
        order of magnitude at that size (same trade the TMA top lists
        make); ``repro.analysis.cost_model`` keeps the O(log k) terms.
        """
        self._entries.clear()
        self._keys.clear()
        self._by_rid.clear()
        self._top_cache = None
        seen_rids: List[int] = []
        rebuilt: List[SkybandEntry] = []
        for result in best_first:  # descending key order
            dc = len(seen_rids) - bisect_right(seen_rids, result.record.rid)
            insort(seen_rids, result.record.rid)
            if counters is not None:
                counters.dominance_updates += 1
            rebuilt.append(
                SkybandEntry((result.score, result.record.rid), result.record, dc)
            )
        for entry in reversed(rebuilt):  # back to ascending key order
            self._entries.append(entry)
            self._keys.append(entry.key)
            self._by_rid[entry.record.rid] = entry.key

    def validate(self) -> None:
        """Internal-consistency check used by property tests."""
        assert self._keys == sorted(self._keys), "keys out of order"
        assert len(self._keys) == len(self._entries) == len(self._by_rid)
        for entry in self._entries:
            assert entry.dc < self.k, f"{entry!r} should have been evicted"
            assert self._by_rid[entry.record.rid] == entry.key
