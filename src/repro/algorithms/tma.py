"""TMA — the Top-k Monitoring Algorithm (paper Section 4, Figure 9).

Maintenance policy: keep *exactly* the current top-k per query.

- **Arrivals first.** Each arrival lands in its grid cell; for every
  query whose influence region covers that cell and whose gate it
  beats, it enters
  the top list and displaces the kth entry. Processing ``P_ins``
  before ``P_del`` means an arrival can save a query whose result
  member expires in the same cycle (the Figure 8(a) walk-through,
  replayed in tests).
- **Expirations.** An expiring record is dropped from its cell; if it
  was a result member of some query, that query is *marked affected*
  and, once the whole batch is applied, recomputed from scratch via
  the top-k computation module — this is the only from-scratch path,
  and its frequency is the paper's ``Pr_rec``.
- **Lazy influence regions.** When arrivals shrink an influence
  region the query's cell set is *not* updated; the extra cells are
  filtered by the gate comparison and replaced by the next
  from-scratch computation (see
  :mod:`repro.algorithms.topk_computation`).

Top lists are plain ascending-sorted lists of ``(key, record)`` pairs:
k is small (≤ a few hundred), so a bisect + C-level memmove beats any
interpreted balanced tree; the analytical model keeps the paper's
O(log k) accounting.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Set, Tuple

from repro.algorithms.base import gated_arrivals, influence_hits
from repro.algorithms.topk_computation import (
    GridMonitorAlgorithm,
    RegionState,
    RegionTable,
    compute_and_install,
)
from repro.core.errors import DimensionalityError
from repro.core.queries import TopKQuery, check_k
from repro.core.results import ResultEntry
from repro.core.tuples import MIN_RANK_KEY, RankKey, StreamRecord
from repro.core.window import Slots
from repro.grid.traversal import TraversalOutcome


class _TmaQueryState(RegionState):
    """Per-query state: region, exact top-k, and membership index."""

    __slots__ = ("top", "member_ids", "_entries")

    def __init__(self, query: TopKQuery, table: RegionTable) -> None:
        super().__init__(query, table)
        #: ascending (key, record): element 0 is the kth (worst) result.
        self.top: List[Tuple[RankKey, StreamRecord]] = []
        self.member_ids: Set[int] = set()
        #: memoised best-first result; None after any change to ``top``.
        self._entries: Optional[List[ResultEntry]] = None

    def gate_key(self) -> RankKey:
        """Key an arrival must beat to enter the result."""
        if len(self.top) < self.query.k:
            return MIN_RANK_KEY
        return self.top[0][0]

    def set_result(self, outcome: TraversalOutcome) -> None:
        """Replace the result with a freshly computed one."""
        self.top = [
            ((entry.score, entry.record.rid), entry.record)
            for entry in reversed(outcome.entries)
        ]
        self.member_ids = {record.rid for _, record in self.top}
        self._entries = outcome.entries

    def admit(self, key: RankKey, record: StreamRecord) -> None:
        """Insert a better arrival, displacing the kth entry if full."""
        insort(self.top, (key, record))
        self.member_ids.add(record.rid)
        self._entries = None
        if len(self.top) > self.query.k:
            _, evicted = self.top.pop(0)
            self.member_ids.discard(evicted.rid)

    def trim(self, k: int) -> None:
        """Keep only the best ``k`` entries."""
        excess = len(self.top) - k
        if excess > 0:
            for _, record in self.top[:excess]:
                self.member_ids.discard(record.rid)
            self.top = self.top[excess:]
            self._entries = None

    def result_entries(self) -> List[ResultEntry]:
        if self._entries is None:
            self._entries = [
                ResultEntry(key[0], record)
                for key, record in reversed(self.top)
            ]
        return list(self._entries)


class TopKMonitoringAlgorithm(GridMonitorAlgorithm):
    """Grid-based monitoring with exact top-k per query (Figure 9)."""

    name = "tma"

    def __init__(
        self,
        dims: int,
        cells_per_axis: int,
        eager_cleanup: bool = False,
    ) -> None:
        """``eager_cleanup=True`` trims influence regions on every gate
        rise instead of lazily (ablation of the paper's Section 4.3
        design choice; results are identical, maintenance is not —
        see ``benchmarks/test_ablation_design_choices.py``)."""
        super().__init__(dims, cells_per_axis)
        self.eager_cleanup = eager_cleanup
        self._states: Dict[int, _TmaQueryState] = {}

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------

    def register(self, query: TopKQuery) -> List[ResultEntry]:
        if not isinstance(query, TopKQuery):
            return self._register_threshold(query)
        if query.dims != self.dims:
            raise DimensionalityError(
                f"query function has {query.dims} dims, "
                f"algorithm has {self.dims}"
            )
        state = _TmaQueryState(query, self.regions)
        state.set_result(compute_and_install(self.grid, state, self.counters))
        self._states[query.qid] = state
        return state.result_entries()

    def update_query(
        self,
        qid: int,
        k: Optional[int] = None,
        function=None,
    ) -> List[ResultEntry]:
        """In-flight mutation; a pure k *decrease* is O(k) in place.

        TMA keeps the exact top-k, so shrinking k only trims the worst
        entries off the top list — no grid traversal at all. The
        influence region keeps its (now slightly too wide) cells until
        the next computation replaces it; results are identical
        to a from-scratch re-registration. Any other mutation (k
        increase, new preference function) recomputes from the grid
        via the base path.
        """
        state = self._states.get(qid)
        if state is None:
            return super().update_query(qid, k=k, function=function)
        query = state.query
        if k is not None:
            check_k(k)
        if function is None and k is not None and k <= query.k:
            if k != query.k:
                query.k = k
                state.trim(k)
            return state.result_entries()
        return super().update_query(qid, k=k, function=function)

    # ------------------------------------------------------------------
    # Cycle maintenance (Figure 9)
    # ------------------------------------------------------------------

    def _apply_cycle(self, arrivals: Slots, expirations: Slots) -> None:
        states = self._states
        counters = self.counters
        store = self.store
        rids = store.rids
        gate_rose: List[_TmaQueryState] = []

        # One batched grid pass maps all arrivals to their cells; each
        # query then meets the arrivals inside its influence cells as
        # one scored block, and only those reaching its gate come back.
        # A record is built only when it enters a top list.
        cells = self.grid.insert_many(arrivals)
        for state, slot, score in gated_arrivals(
            store, arrivals, cells, states, counters, lambda s: s.gate_key()[0]
        ):
            if state.region is not None and not state.region.contains(
                store.row(slot)
            ):
                continue
            key: RankKey = (score, rids[slot])
            if key > state.gate_key():
                self._touch(state.query.qid)
                counters.top_list_updates += 1
                if (
                    self.eager_cleanup
                    and len(state.top) == state.query.k
                    and (not gate_rose or gate_rose[-1] is not state)
                ):
                    gate_rose.append(state)
                state.admit(key, store.record(slot))

        for state in gate_rose:
            state.trim_region(self.grid, state.gate_key()[0], counters)

        cells = self.grid.delete_many(expirations)
        expired = {rids[slot] for slot in expirations}
        affected = [
            states[qid]
            for qid in influence_hits(cells, states, counters)
            if states[qid].member_ids & expired
        ]

        with self.tracer.span("traversal"):
            for state in affected:
                self._recompute(state)

    def _recompute(self, state: _TmaQueryState) -> None:
        """From-scratch recomputation of one query (Figure 9, line 13).

        The top list still holds the exact result from before this
        cycle's expirations, and losing records cannot raise the kth
        score — an upper bound the sweep starts from.
        """
        self._touch(state.query.qid)
        self.counters.recomputations += 1
        full = len(state.top) >= state.query.k
        state.set_result(
            compute_and_install(
                self.grid,
                state,
                self.counters,
                at_most=state.top[0][0][0] if full else None,
            )
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def result_state_sizes(self) -> Dict[int, int]:
        sizes = {qid: len(state.top) for qid, state in self._states.items()}
        sizes.update(self._threshold_state_sizes())
        return sizes
