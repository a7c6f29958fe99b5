"""TSL — the Threshold Sorted List baseline (paper Section 3.2).

The benchmark competitor assembled from prior work, against which TMA
and SMA are compared throughout Section 8:

- **Initial computation: Fagin's Threshold Algorithm (TA).** One
  sorted list per dimension holds every valid record ordered by that
  attribute. TA performs round-robin *sorted accesses* across the d
  lists (walking each from its preference-best end), a *random access*
  per newly seen record to fetch its remaining attributes and score,
  and stops once the kmax-th best score reaches the threshold τ — the
  score of the vector of last values seen per list, an upper bound for
  every unseen record under any monotone f.
- **Maintenance: the materialized-view technique of Yi et al.** Each
  query keeps a view of k' entries, k ≤ k' ≤ kmax. An arrival beating
  the view's worst entry is inserted (evicting the worst when the view
  is at kmax); an expiring view member shrinks the view; when k'
  drops below k, TA refills the view to kmax entries. Larger kmax
  means rarer (expensive) refills but more per-arrival view traffic —
  the paper fine-tunes kmax per k (reproduced in
  ``benchmarks/test_tsl_kmax_tuning.py``).

Every arrival must be scored against *every* query (there are no
influence lists to narrow the scope) and every arrival/expiry updates
all d sorted lists — the two structural costs that make TSL an order
of magnitude slower than the grid methods in the paper's Figures 15–19.

Refills are batched at the end of a cycle (the paper refills inline);
batching only skips refilling views that same-cycle events would
immediately invalidate again, and end-of-cycle results are identical.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.algorithms.base import MonitorAlgorithm
from repro.core.batch import ArrivalScorer, as_matrix, to_list
from repro.core.errors import QueryError
from repro.core.queries import TopKQuery, check_k
from repro.core.results import ResultEntry
from repro.core.tuples import MIN_RANK_KEY, RankKey, StreamRecord
from repro.core.window import Slots
from repro.core import batch
from repro.structures.sorted_list import AttributeSortedList, SortedKeyList


#: sorted-access depths drained per TA batch round (see
#: :meth:`ThresholdSortedListAlgorithm._threshold_algorithm`).
_TA_CHUNK = 32


def default_kmax(k: int) -> int:
    """The paper's fine-tuned kmax per k (Section 8).

    Measured optima were (4, 10, 20, 30, 70, 120) for
    k = (1, 5, 10, 20, 50, 100); other values interpolate the same
    ~1.2·k + 10 trend.
    """
    tuned = {1: 4, 5: 10, 10: 20, 20: 30, 50: 70, 100: 120}
    if k in tuned:
        return tuned[k]
    return max(k + 3, int(round(1.2 * k + 10)))


class _TslQueryState:
    """Per-query materialized view: ascending (key, record) pairs."""

    __slots__ = (
        "query",
        "kmax",
        "view",
        "member_ids",
        "needs_refill",
        "updates_since_refill",
    )

    def __init__(self, query: TopKQuery, kmax: int) -> None:
        if kmax < query.k:
            raise QueryError(f"kmax={kmax} must be >= k={query.k}")
        self.query = query
        self.kmax = kmax
        self.view: List[Tuple[RankKey, StreamRecord]] = []
        self.member_ids: Set[int] = set()
        self.needs_refill = False
        #: view insertions since the last TA refill — the signal the
        #: adaptive-kmax policy of Yi et al. balances against refills.
        self.updates_since_refill = 0

    def worst_key(self) -> RankKey:
        return self.view[0][0] if self.view else MIN_RANK_KEY

    def set_view(self, entries: List[ResultEntry]) -> None:
        self.view = [
            ((entry.score, entry.record.rid), entry.record)
            for entry in reversed(entries)
        ]
        self.member_ids = {record.rid for _, record in self.view}

    def insert(self, key: RankKey, record: StreamRecord) -> None:
        insort(self.view, (key, record))
        self.member_ids.add(record.rid)
        if len(self.view) > self.kmax:
            _, evicted = self.view.pop(0)
            self.member_ids.discard(evicted.rid)

    def remove(self, record: StreamRecord) -> bool:
        if record.rid not in self.member_ids:
            return False
        self.member_ids.discard(record.rid)
        for index in range(len(self.view) - 1, -1, -1):
            if self.view[index][1].rid == record.rid:
                del self.view[index]
                return True
        raise AssertionError("view/member_ids out of sync")  # pragma: no cover

    def top_entries(self) -> List[ResultEntry]:
        best = self.view[-self.query.k :]
        return [ResultEntry(key[0], record) for key, record in reversed(best)]


class ThresholdSortedListAlgorithm(MonitorAlgorithm):
    """TA over d sorted lists + Yi et al. view maintenance (Figure 3)."""

    name = "tsl"

    def __init__(
        self,
        dims: int,
        kmax_for: Optional[Callable[[int], int]] = None,
        adaptive_kmax: bool = False,
        list_impl: str = "array",
    ) -> None:
        """``adaptive_kmax=True`` enables the dynamic kmax adjustment
        of Yi et al., which grows a view's kmax when TA refills come
        too soon after one another and shrinks it when the view soaks
        many updates between refills. The paper evaluates against
        fine-tuned *static* kmax because "this approach performs worse
        than TSL with fine-tuned kmax" — reproduced in
        ``benchmarks/test_tsl_kmax_tuning.py``.

        ``list_impl`` selects the sorted-list container: ``"array"``
        (bisect + C memmove) or ``"skiplist"`` (pointer-based, the
        structure a C implementation would use; all-O(log n) in
        theory). The trade-off is measured in
        ``benchmarks/test_ablation_sorted_structures.py``."""
        super().__init__(dims)
        self._kmax_for = kmax_for if kmax_for is not None else default_kmax
        self.adaptive_kmax = adaptive_kmax
        if list_impl == "array":
            if batch.np is not None:
                # Columnar keys + vectorized merges (see
                # AttributeSortedList for why dropping the rid
                # tiebreak keeps TA exact).
                self._sorted_lists = [
                    AttributeSortedList(key=self._float_attr_key(dim))
                    for dim in range(dims)
                ]
            else:
                self._sorted_lists = [
                    SortedKeyList(key=self._attr_key(dim))
                    for dim in range(dims)
                ]
        elif list_impl == "skiplist":
            from repro.structures.skiplist import IndexableSkipList

            self._sorted_lists = [
                IndexableSkipList(key=self._attr_key(dim))
                for dim in range(dims)
            ]
        else:
            raise ValueError(
                f"list_impl must be 'array' or 'skiplist', got {list_impl!r}"
            )
        self.list_impl = list_impl
        self._states: Dict[int, _TslQueryState] = {}

    @staticmethod
    def _attr_key(dim: int):
        def key(record: StreamRecord):
            # rid breaks attribute ties so removal is deterministic.
            return (record.attrs[dim], record.rid)

        return key

    @staticmethod
    def _float_attr_key(dim: int):
        def key(record: StreamRecord) -> float:
            # Bare float key for the columnar list; removal scans the
            # equal-key range for the record itself instead.
            return record.attrs[dim]

        return key

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------

    def register(self, query: TopKQuery) -> List[ResultEntry]:
        if not isinstance(query, TopKQuery):
            return self._register_threshold(query)
        state = _TslQueryState(query, self._kmax_for(query.k))
        state.set_view(self._threshold_algorithm(query, state.kmax))
        self._states[query.qid] = state
        return state.top_entries()

    def unregister(self, qid: int) -> None:
        if qid in self._threshold_states:
            self._unregister_threshold(qid)
            return
        if self._states.pop(qid, None) is None:
            raise self._unknown_query(qid)

    def current_result(self, qid: int) -> List[ResultEntry]:
        state = self._states.get(qid)
        if state is None:
            if qid in self._threshold_states:
                return self._threshold_result(qid)
            raise self._unknown_query(qid)
        return state.top_entries()

    def queries(self) -> Iterable[TopKQuery]:
        return [
            state.query for state in self._states.values()
        ] + self._threshold_queries()

    def update_query(
        self,
        qid: int,
        k: Optional[int] = None,
        function=None,
    ) -> List[ResultEntry]:
        """In-flight mutation: mutate the spec, re-derive kmax, and
        refill the view with one TA pass over the *current* sorted
        lists — exactly what registration would compute, without
        touching the per-dimension lists."""
        state = self._states.get(qid)
        if state is None:
            return super().update_query(qid, k=k, function=function)
        query = state.query
        if k is None and function is None:
            return state.top_entries()
        if k is not None:
            check_k(k)
        old_k, old_function, old_kmax = query.k, query.function, state.kmax
        if k is not None:
            query.k = k
        if function is not None:
            query.function = function
        state.kmax = max(query.k, self._kmax_for(query.k))
        self.counters.view_refills += 1
        try:
            view = self._threshold_algorithm(query, state.kmax)
        except BaseException:
            # Old view untouched: restore the spec and keep running.
            query.k, query.function = old_k, old_function
            state.kmax = old_kmax
            raise
        state.set_view(view)
        state.updates_since_refill = 0
        return state.top_entries()

    # ------------------------------------------------------------------
    # The TA module
    # ------------------------------------------------------------------

    def _threshold_algorithm(
        self, query: TopKQuery, limit: int
    ) -> List[ResultEntry]:
        """Compute the top-``limit`` entries via round-robin TA.

        Walks each sorted list from its preference-best end. τ is the
        query's score of the last attribute values seen per list;
        the scan stops when the ``limit``-th best score exceeds τ (or
        every list is exhausted). The stop test is strict, so records
        tying τ are still scanned — keeping results exact under the
        canonical (score, rid) order.

        The walk is *chunked*: ``_TA_CHUNK`` depths of sorted accesses
        are drained per round and the newly seen records are scored
        with one batch-kernel call; τ is re-evaluated at chunk
        boundaries only. TA stays exact at any stop depth at or past
        the classic per-depth stop (candidates only improve with extra
        accesses, and the τ bound still holds), so the result is
        identical — the scan merely overshoots the textbook stopping
        point by at most one chunk of sorted/random accesses.
        """
        lists = self._sorted_lists
        function = query.function
        directions = function.directions
        total = len(lists[0])
        candidates: List[Tuple[RankKey, StreamRecord]] = []  # ascending
        seen: Set[int] = set()
        last_values: List[float] = [
            # Before any access, the bound per dimension is its best
            # possible value in the unit workspace.
            1.0 if directions[dim] > 0 else 0.0
            for dim in range(self.dims)
        ]
        depth = 0
        while depth < total:
            until = min(total, depth + _TA_CHUNK)
            fresh: List[StreamRecord] = []
            for dim in range(self.dims):
                attribute_list = lists[dim]
                if directions[dim] > 0:
                    positions = range(total - 1 - depth, total - 1 - until, -1)
                else:
                    positions = range(depth, until)
                for position in positions:
                    record = attribute_list[position]
                    self.counters.sorted_accesses += 1
                    last_values[dim] = record.attrs[dim]
                    if record.rid in seen:
                        continue
                    seen.add(record.rid)
                    self.counters.random_accesses += 1
                    fresh.append(record)
            if fresh:
                scores = to_list(
                    function.score_batch(
                        as_matrix([record.attrs for record in fresh])
                    )
                )
                for record, score in zip(fresh, scores):
                    key: RankKey = (score, record.rid)
                    if len(candidates) < limit:
                        insort(candidates, (key, record))
                    elif key > candidates[0][0]:
                        candidates.pop(0)
                        insort(candidates, (key, record))
            depth = until
            if len(candidates) >= limit:
                tau = query.score(last_values)
                if candidates[0][0][0] > tau:
                    break
        return [
            ResultEntry(key[0], record) for key, record in reversed(candidates)
        ]

    # ------------------------------------------------------------------
    # Cycle maintenance
    # ------------------------------------------------------------------

    def _apply_cycle(self, arrived: Slots, expired: Slots) -> None:
        # The sorted lists hold records, so TSL builds every one.
        store = self.store
        arrivals = store.records(arrived)
        expirations = store.records(expired)
        refill: List[_TslQueryState] = []

        # Bulk-load path: a batch comparable to the current list size
        # (window warm-up) is cheaper to merge-and-sort than to merge
        # slice-wise; steady-state batches take the one-rebuild merge
        # of add_many instead of one O(n) memmove per record.
        if len(arrivals) > 64 and len(arrivals) >= len(self._sorted_lists[0]):
            for sorted_list in self._sorted_lists:
                sorted_list.bulk_add(arrivals)
                self.counters.sorted_list_updates += len(arrivals)
        elif arrivals:
            for sorted_list in self._sorted_lists:
                sorted_list.add_many(arrivals)
                self.counters.sorted_list_updates += len(arrivals)

        # Every arrival is checked against every query (TSL has no
        # influence lists to narrow the scope), so the whole batch is
        # scored per query in one kernel call; a vector prefilter then
        # drops arrivals that cannot beat the view's worst key. The
        # gate only rises while inserting arrivals, so prefiltering
        # against the *initial* worst key is safe — survivors are
        # re-checked exactly against the live key, ties included.
        if arrivals and self._states:
            scorer = ArrivalScorer(store.gather(arrived))
            batch_size = len(arrivals)
            for state in self._states.values():
                self.counters.influence_checks += batch_size
                function = state.query.function
                if len(state.view) >= state.query.k:
                    survivors, values = scorer.take_survivors(
                        function, state.worst_key()[0]
                    )
                    if not survivors:
                        continue
                else:
                    survivors = range(batch_size)
                    values = scorer.scores(function)
                for index, value in zip(survivors, values):
                    record = arrivals[index]
                    key: RankKey = (value, record.rid)
                    if (
                        key > state.worst_key()
                        or len(state.view) < state.query.k
                    ):
                        self._touch(state.query.qid)
                        state.insert(key, record)
                        state.updates_since_refill += 1
                        self.counters.view_insertions += 1

        if expirations:
            for sorted_list in self._sorted_lists:
                sorted_list.remove_many(expirations)
                self.counters.sorted_list_updates += len(expirations)
            # One set intersection per view replaces the per-record
            # membership probe: views hold at most kmax entries, so the
            # intersection walks the small side in C.
            expiring = {record.rid: record for record in expirations}
            for state in self._states.values():
                hit_rids = state.member_ids & expiring.keys()
                if not hit_rids:
                    continue
                self._touch(state.query.qid)  # before mutating
                for rid in hit_rids:
                    state.remove(expiring[rid])
                if (
                    len(state.view) < state.query.k
                    and not state.needs_refill
                ):
                    state.needs_refill = True
                    refill.append(state)

        for state in refill:
            state.needs_refill = False
            self.counters.view_refills += 1
            if self.adaptive_kmax:
                self._adapt_kmax(state)
            state.set_view(
                self._threshold_algorithm(state.query, state.kmax)
            )
            state.updates_since_refill = 0

    def _adapt_kmax(self, state: _TslQueryState) -> None:
        """Yi et al.'s dynamic adjustment, applied at refill time.

        A refill after few view updates means the slack (kmax − k)
        drained too fast → grow it; a refill after many updates means
        the view paid heavy per-arrival maintenance for slack it
        barely needed → shrink toward k. Bounds keep kmax within
        [k+1, 8k] so a burst cannot run it away.
        """
        k = state.query.k
        used = state.updates_since_refill
        if used < 2 * state.kmax:
            # Refill came quickly: the slack drained before the view
            # absorbed much traffic — buy more slack.
            state.kmax = min(8 * k, int(state.kmax * 1.5) + 1)
        elif used > 10 * state.kmax:
            # The view survived a long time: it paid per-arrival
            # maintenance on slack it barely needed — shed some.
            state.kmax = max(k + 1, (state.kmax + k) // 2)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def result_state_sizes(self) -> Dict[int, int]:
        """View cardinality k' per query (Table 2's TSL column)."""
        sizes = {
            qid: len(state.view) for qid, state in self._states.items()
        }
        sizes.update(self._threshold_state_sizes())
        return sizes

    def _valid_records(self) -> Iterable[StreamRecord]:
        """Walk one sorted list (each holds every valid record once)."""
        attribute_list = self._sorted_lists[0]
        return (
            attribute_list[index] for index in range(len(attribute_list))
        )

    def sorted_list_entries(self) -> int:
        """Total entries across the d sorted lists (space accounting)."""
        return sum(len(sorted_list) for sorted_list in self._sorted_lists)
