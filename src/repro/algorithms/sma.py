"""SMA — the Skyband Monitoring Algorithm (paper Section 5, Figure 11).

SMA exploits the reduction of Section 3.1: the records that can appear
in any *future* top-k result are exactly the k-skyband of the valid
records in the score–time plane. Per query it therefore maintains a
:class:`~repro.skyband.skyband.ScoreTimeSkyband` — a superset of the
current answer — instead of the exact top-k, trading a little space
for far fewer from-scratch recomputations:

- an arrival beating the query's *gate* (the kth score frozen at the
  last from-scratch computation, Figure 11 line 7's comment) enters
  the skyband with dominance counter 0, bumps the counter of every
  worse entry, and evicts entries reaching DC = k;
- an expiring record is simply dropped from the skyband (it can be
  shown to be a current result member that dominates nothing);
- only when the skyband underflows k entries — all pre-computed
  replacements were consumed — does SMA fall back to the top-k
  computation module and rebuild the skyband (lines 20–22), with the
  same lazy influence regions as TMA.

Under uniform data, arrivals and expirations inside the influence
region balance and the skyband hovers at ~k entries; the paper's
Table 2 (reproduced in ``benchmarks/test_table2_view_sizes.py``) shows
SMA storing far fewer extras than TSL's kmax-sized views.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.algorithms.base import gated_arrivals, influence_hits
from repro.algorithms.topk_computation import (
    GridMonitorAlgorithm,
    RegionState,
    RegionTable,
    compute_and_install,
    compute_and_install_burst,
    compute_and_install_group,
)
from repro.core.queries import QueryGroupRegistry, TopKQuery, check_k
from repro.core.results import ResultEntry
from repro.core.tuples import MIN_RANK_KEY, RankKey
from repro.core.window import Slots
from repro.grid.traversal import TraversalOutcome
from repro.skyband.skyband import ScoreTimeSkyband


class _SmaQueryState(RegionState):
    """Per-query state: region, skyband, and the frozen admission gate."""

    __slots__ = ("skyband", "gate")

    def __init__(self, query: TopKQuery, table: RegionTable) -> None:
        super().__init__(query, table)
        self.skyband = ScoreTimeSkyband(query.k)
        #: kth key at the last from-scratch computation — NOT updated
        #: incrementally (Figure 11, line 7 comment).
        self.gate: RankKey = MIN_RANK_KEY

    def rebuild_from(self, outcome: TraversalOutcome, counters) -> None:
        entries = outcome.entries
        self.skyband.rebuild(entries, counters)
        if len(entries) >= self.query.k:
            worst = entries[-1]
            self.gate = (worst.score, worst.record.rid)
        else:
            self.gate = MIN_RANK_KEY

    def result_entries(self) -> List[ResultEntry]:
        return self.skyband.top()


class SkybandMonitoringAlgorithm(GridMonitorAlgorithm):
    """Grid-based monitoring via score–time skybands (Figure 11)."""

    name = "sma"

    def __init__(
        self, dims: int, cells_per_axis: int, grouped: bool = False
    ) -> None:
        """``grouped=True`` batches each cycle's skyband refills by
        preference-vector similarity, sharing one grid sweep per group
        (:class:`~repro.core.queries.QueryGroupRegistry`): queries in
        one group share a single grid sweep that packs and scores each
        cell block once for the whole group. Registration bursts are
        grouped the same way. Results are bitwise identical to the
        per-query path; only maintenance cost changes."""
        super().__init__(dims, cells_per_axis)
        self.groups = QueryGroupRegistry() if grouped else None
        self._states: Dict[int, _SmaQueryState] = {}

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------

    def register(self, query: TopKQuery) -> List[ResultEntry]:
        if not isinstance(query, TopKQuery):
            return self._register_threshold(query)
        state = _SmaQueryState(query, self.regions)
        state.rebuild_from(
            compute_and_install(self.grid, state, self.counters),
            self.counters,
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
        regions are identical either way, and each member's skyband is
        seeded from its exact solo outcome.
        """
        topk = [query for query in queries if isinstance(query, TopKQuery)]
        if self.groups is None or len(topk) < 2:
            return super().register_many(queries)
        results: Dict[int, List[ResultEntry]] = {}
        for query in queries:
            if not isinstance(query, TopKQuery):
                results[query.qid] = self._register_threshold(query)
        for state, outcome in compute_and_install_burst(
            self.grid,
            self.groups,
            [_SmaQueryState(query, self.regions) for query in topk],
            self.counters,
        ):
            state.rebuild_from(outcome, self.counters)
            self._states[state.query.qid] = state
            results[state.query.qid] = state.result_entries()
        return results

    def unregister(self, qid: int) -> None:
        super().unregister(qid)
        if self.groups is not None:
            self.groups.discard(qid)

    def update_query(
        self,
        qid: int,
        k: Optional[int] = None,
        function=None,
    ) -> List[ResultEntry]:
        """In-flight mutation: a pure k change rebuilds the skyband
        from the current grid (one traversal — the same work a cycle's
        skyband refill performs) without touching the query's
        registration; a preference change takes the base
        unregister/register path. Either way the result is identical
        to cancelling and re-registering the modified query."""
        state = self._states.get(qid)
        if state is None or function is not None:
            return super().update_query(qid, k=k, function=function)
        query = state.query
        if k is None or k == query.k:
            return state.result_entries()
        check_k(k)
        old_k = query.k
        query.k = k
        self.counters.recomputations += 1
        try:
            outcome = compute_and_install(self.grid, state, self.counters)
        except BaseException:
            query.k = old_k  # old skyband untouched: query still runs
            raise
        state.skyband = ScoreTimeSkyband(k)
        state.rebuild_from(outcome, self.counters)
        return state.result_entries()

    # ------------------------------------------------------------------
    # Cycle maintenance (Figure 11)
    # ------------------------------------------------------------------

    def _apply_cycle(self, arrivals: Slots, expirations: Slots) -> None:
        states = self._states
        counters = self.counters
        store = self.store
        rids = store.rids
        # The grid takes the whole batch first — only a refill reads
        # its points — so one span holds all the skyband upkeep.
        arrived = self.grid.insert_many(arrivals)
        departed = self.grid.delete_many(expirations)
        with self.tracer.span("skyband"):
            # Per query one scored block of the arrivals inside its
            # influence cells, as in TMA (see there); the gate is
            # frozen, so the block test is the test. A record is built
            # only when it enters a skyband.
            for state, slot, score in gated_arrivals(
                store, arrivals, arrived, states, counters, lambda s: s.gate[0]
            ):
                if state.region is not None and not state.region.contains(
                    store.row(slot)
                ):
                    continue
                if (score, rids[slot]) > state.gate:
                    self._touch(state.query.qid)
                    state.skyband.insert(score, store.record(slot), counters)

            expired = {rids[slot] for slot in expirations}
            refills: List[_SmaQueryState] = []
            for qid in influence_hits(departed, states, counters):
                state = states[qid]
                gone = state.skyband.rids() & expired
                if gone:
                    self._touch(qid)  # before mutating, for the diff
                    for rid in gone:
                        state.skyband.remove_by_rid(rid)
                    if len(state.skyband) < state.query.k:
                        refills.append(state)

            if self.groups is not None and len(refills) > 1:
                self._refill_grouped(refills)
            else:
                for state in refills:
                    self._refill(state)

    def _refill(self, state: _SmaQueryState) -> None:
        """Rebuild one underflowed skyband from the grid (lines 20–22).

        Fewer than k valid records beat the frozen gate — a skyband
        holding any evicted-but-valid record holds its k dominators
        too — so the gate's score bounds the kth score from above.
        """
        self.counters.recomputations += 1
        gate = state.gate
        outcome = compute_and_install(
            self.grid,
            state,
            self.counters,
            at_most=gate[0] if gate != MIN_RANK_KEY else None,
        )
        state.rebuild_from(outcome, self.counters)

    def _refill_grouped(self, refills: List[_SmaQueryState]) -> None:
        """Skyband refills batched by similarity group.

        Groups of two or more share one grid sweep
        (:func:`~repro.algorithms.topk_computation.compute_and_install_group`);
        ungroupable queries and singleton buckets take the solo path.
        Either way each query's skyband and influence region end up
        identical to a query-by-query refill loop."""
        states = {state.query.qid: state for state in refills}
        for group in self.groups.partition(
            [state.query for state in refills]
        ):
            if len(group) == 1:
                self._refill(states[group[0].qid])
                continue
            self.counters.recomputations += len(group)
            # As in _refill: each frozen gate bounds its member's kth.
            gates = [states[query.qid].gate for query in group]
            outcomes = compute_and_install_group(
                self.grid,
                [states[query.qid] for query in group],
                self.counters,
                at_most=None if MIN_RANK_KEY in gates else min(gates)[0],
            )
            for query, outcome in zip(group, outcomes):
                states[query.qid].rebuild_from(outcome, self.counters)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def result_state_sizes(self) -> Dict[int, int]:
        """Skyband cardinality per query (Table 2's SMA column)."""
        sizes = {
            qid: len(state.skyband) for qid, state in self._states.items()
        }
        sizes.update(self._threshold_state_sizes())
        return sizes
