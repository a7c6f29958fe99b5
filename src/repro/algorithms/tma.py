"""TMA — the Top-k Monitoring Algorithm (paper Section 4, Figure 9).

Maintenance policy: keep *exactly* the current top-k per query.

- **Arrivals first.** Each arrival lands in its grid cell; for every
  query in that cell's influence list whose gate it beats, it enters
  the top list and displaces the kth entry. Processing ``P_ins``
  before ``P_del`` means an arrival can save a query whose result
  member expires in the same cycle (the Figure 8(a) walk-through,
  replayed in tests).
- **Expirations.** An expiring record is dropped from its cell; if it
  was a result member of some query, that query is *marked affected*
  and, once the whole batch is applied, recomputed from scratch via
  the top-k computation module — this is the only from-scratch path,
  and its frequency is the paper's ``Pr_rec``.
- **Lazy influence lists.** When arrivals shrink an influence region
  the lists are *not* updated; stale entries are filtered by the gate
  comparison and cleaned up only after the next from-scratch
  computation (see :mod:`repro.algorithms.topk_computation`).

Top lists are plain ascending-sorted lists of ``(key, record)`` pairs:
k is small (≤ a few hundred), so a bisect + C-level memmove beats any
interpreted balanced tree; the analytical model keeps the paper's
O(log k) accounting.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.algorithms.base import (
    MonitorAlgorithm,
    gated_arrivals,
    influence_hits,
)
from repro.algorithms.topk_computation import (
    compute_and_install,
    compute_and_install_burst,
    compute_and_install_group,
    eager_trim_influence,
    query_region,
    remove_query_everywhere,
)
from repro.core.queries import QueryGroupRegistry, TopKQuery
from repro.core.results import ResultEntry
from repro.core.tuples import MIN_RANK_KEY, RankKey, StreamRecord
from repro.grid.grid import Grid
from repro.grid.traversal import SweepOrder, TraversalOutcome


class _TmaQueryState:
    """Per-query state: spec, exact top-k, and membership index."""

    __slots__ = (
        "query",
        "region",
        "top",
        "member_ids",
        "order",
        "_entries",
    )

    def __init__(self, query: TopKQuery) -> None:
        self.query = query
        self.region = query_region(query)
        #: ascending (key, record): element 0 is the kth (worst) result.
        self.top: List[Tuple[RankKey, StreamRecord]] = []
        self.member_ids: Set[int] = set()
        #: the query's sweep order, once a solo computation walked one.
        self.order: Optional[SweepOrder] = None
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
        if outcome.order is not None:
            self.order = outcome.order

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


class TopKMonitoringAlgorithm(MonitorAlgorithm):
    """Grid-based monitoring with exact top-k per query (Figure 9)."""

    name = "tma"

    def __init__(
        self,
        dims: int,
        cells_per_axis: int,
        eager_cleanup: bool = False,
        grouped: bool = False,
    ) -> None:
        """``eager_cleanup=True`` trims influence lists on every gate
        rise instead of lazily (ablation of the paper's Section 4.3
        design choice; results are identical, maintenance is not —
        see ``benchmarks/test_ablation_design_choices.py``).

        ``grouped=True`` batches each cycle's from-scratch
        recomputations by preference-vector similarity
        (:class:`~repro.core.queries.QueryGroupRegistry`): queries in
        one group share a single grid sweep that packs and scores each
        cell block once for the whole group. Results are bitwise
        identical to the per-query path; only maintenance cost
        changes."""
        super().__init__(dims)
        self.grid = Grid(dims, cells_per_axis)
        self.eager_cleanup = eager_cleanup
        self.groups = QueryGroupRegistry() if grouped else None
        self._states: Dict[int, _TmaQueryState] = {}

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------

    def register(self, query: TopKQuery) -> List[ResultEntry]:
        if not isinstance(query, TopKQuery):
            return self._register_threshold(query)
        if query.dims != self.dims:
            raise self._unknown_dimensionality(query)
        state = _TmaQueryState(query)
        state.set_result(
            compute_and_install(self.grid, query, self.counters)
        )
        self._states[query.qid] = state
        if self.groups is not None:
            self.groups.add(query)
        return state.result_entries()

    def register_many(
        self, queries: List[TopKQuery]
    ) -> Dict[int, List[ResultEntry]]:
        """Install a registration burst, sharing grid sweeps per group.

        With ``grouped=True``, similar members of the burst get their
        *initial* top-k through shared sweeps
        (:func:`~repro.algorithms.topk_computation.compute_and_install_burst`)
        instead of one solo traversal each — results and influence
        lists are identical either way.
        """
        topk = [query for query in queries if isinstance(query, TopKQuery)]
        if self.groups is None or len(topk) < 2:
            return super().register_many(queries)
        for query in topk:
            if query.dims != self.dims:
                raise self._unknown_dimensionality(query)
        results: Dict[int, List[ResultEntry]] = {}
        for query in queries:
            if not isinstance(query, TopKQuery):
                results[query.qid] = self._register_threshold(query)
        for query, outcome in compute_and_install_burst(
            self.grid, self.groups, topk, self.counters
        ):
            state = _TmaQueryState(query)
            state.set_result(outcome)
            self._states[query.qid] = state
            results[query.qid] = state.result_entries()
        return results

    def unregister(self, qid: int) -> None:
        if qid in self._threshold_states:
            self._unregister_threshold(qid)
            return
        state = self._states.pop(qid, None)
        if state is None:
            raise self._unknown_query(qid)
        if self.groups is not None:
            self.groups.discard(qid)
        remove_query_everywhere(
            self.grid, state.query, self.counters, state.order
        )

    def current_result(self, qid: int) -> List[ResultEntry]:
        state = self._states.get(qid)
        if state is None:
            if qid in self._threshold_states:
                return self._threshold_result(qid)
            raise self._unknown_query(qid)
        return state.result_entries()

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
        """In-flight mutation; a pure k *decrease* is O(k) in place.

        TMA keeps the exact top-k, so shrinking k only trims the worst
        entries off the top list — no grid traversal at all. The
        influence lists keep their (now slightly too wide) entries and
        are cleaned by the usual lazy discipline; results are identical
        to a from-scratch re-registration. Any other mutation (k
        increase, new preference function) recomputes from the grid
        via the base path.
        """
        state = self._states.get(qid)
        if state is None:
            return super().update_query(qid, k=k, function=function)
        query = state.query
        if function is None and k is not None and 1 <= k <= query.k:
            if k != query.k:
                query.k = k
                state.trim(k)
            return state.result_entries()
        return super().update_query(qid, k=k, function=function)

    # ------------------------------------------------------------------
    # Cycle maintenance (Figure 9)
    # ------------------------------------------------------------------

    def _apply_cycle(
        self,
        arrivals: List[StreamRecord],
        expirations: List[StreamRecord],
    ) -> None:
        states = self._states
        counters = self.counters
        gate_rose: List[_TmaQueryState] = []

        # One batched grid pass maps all arrivals to their cells; each
        # query then meets the arrivals inside its influence cells as
        # one scored block, and only those reaching its gate come back.
        cells = self.grid.insert_many(arrivals)
        for state, record, score in gated_arrivals(
            arrivals, cells, states, counters, lambda s: s.gate_key()[0]
        ):
            if state.region is not None and not state.region.contains(
                record.attrs
            ):
                continue
            key: RankKey = (score, record.rid)
            if key > state.gate_key():
                self._touch(state.query.qid)
                counters.top_list_updates += 1
                if (
                    self.eager_cleanup
                    and len(state.top) == state.query.k
                    and (not gate_rose or gate_rose[-1] is not state)
                ):
                    gate_rose.append(state)
                state.admit(key, record)

        for state in gate_rose:
            eager_trim_influence(
                self.grid,
                state.query,
                state.gate_key()[0],
                counters,
            )

        cells = self.grid.delete_many(expirations)
        expired = {record.rid for record in expirations}
        affected = [
            states[qid]
            for qid in influence_hits(cells, states, counters)
            if states[qid].member_ids & expired
        ]

        with self.tracer.span("traversal"):
            if self.groups is not None and len(affected) > 1:
                self._recompute_grouped(affected)
            else:
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
                state.query,
                self.counters,
                order=state.order,
                at_most=state.top[0][0][0] if full else None,
            )
        )

    def _recompute_grouped(self, affected: List[_TmaQueryState]) -> None:
        """From-scratch recomputation batched by similarity group.

        Groups of two or more share one grid sweep
        (:func:`~repro.algorithms.topk_computation.compute_and_install_group`);
        ungroupable queries and singleton buckets take the solo path
        unchanged. Either way each query's result and influence-list
        state end up identical to a qid-by-qid recomputation loop."""
        states = {state.query.qid: state for state in affected}
        for group in self.groups.partition(
            [state.query for state in affected]
        ):
            if len(group) == 1:
                self._recompute(states[group[0].qid])
                continue
            for query in group:
                self._touch(query.qid)
                self.counters.recomputations += 1
            # As in _recompute: the pre-expiry kth scores are bounds.
            gates = [states[query.qid].gate_key() for query in group]
            outcomes = compute_and_install_group(
                self.grid,
                group,
                self.counters,
                at_most=None if MIN_RANK_KEY in gates else min(gates)[0],
            )
            for query, outcome in zip(group, outcomes):
                states[query.qid].set_result(outcome)

    def _unknown_dimensionality(self, query: TopKQuery):
        from repro.core.errors import DimensionalityError

        return DimensionalityError(
            f"query function has {query.dims} dims, algorithm has {self.dims}"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def result_state_sizes(self) -> Dict[int, int]:
        sizes = {qid: len(state.top) for qid, state in self._states.items()}
        sizes.update(self._threshold_state_sizes())
        return sizes

    def influence_list_entries(self) -> int:
        """Total IL entries across cells (space accounting, Section 6)."""
        return sum(len(cell.influence) for cell in self.grid.cells())
