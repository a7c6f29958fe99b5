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
  same lazy influence-list discipline as TMA.

Under uniform data, arrivals and expirations inside the influence
region balance and the skyband hovers at ~k entries; the paper's
Table 2 (reproduced in ``benchmarks/test_table2_view_sizes.py``) shows
SMA storing far fewer extras than TSL's kmax-sized views.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.algorithms.base import (
    MonitorAlgorithm,
    gated_arrivals,
    influence_hits,
)
from repro.core.errors import QueryError
from repro.algorithms.topk_computation import (
    compute_and_install,
    compute_and_install_burst,
    compute_and_install_group,
    query_region,
    remove_query_everywhere,
)
from repro.core.queries import QueryGroupRegistry, TopKQuery
from repro.core.results import ResultEntry
from repro.core.tuples import MIN_RANK_KEY, RankKey, StreamRecord
from repro.grid.grid import Grid
from repro.grid.traversal import SweepOrder, TraversalOutcome
from repro.skyband.skyband import ScoreTimeSkyband


class _SmaQueryState:
    """Per-query state: spec, skyband, and the frozen admission gate."""

    __slots__ = ("query", "region", "skyband", "gate", "order")

    def __init__(self, query: TopKQuery) -> None:
        self.query = query
        self.region = query_region(query)
        self.skyband = ScoreTimeSkyband(query.k)
        #: kth key at the last from-scratch computation — NOT updated
        #: incrementally (Figure 11, line 7 comment).
        self.gate: RankKey = MIN_RANK_KEY
        #: the query's sweep order, once a solo computation walked one.
        self.order: Optional[SweepOrder] = None

    def rebuild_from(self, outcome: TraversalOutcome, counters) -> None:
        entries = outcome.entries
        self.skyband.rebuild(entries, counters)
        if len(entries) >= self.query.k:
            worst = entries[-1]
            self.gate = (worst.score, worst.record.rid)
        else:
            self.gate = MIN_RANK_KEY
        if outcome.order is not None:
            self.order = outcome.order

    def result_entries(self) -> List[ResultEntry]:
        return self.skyband.top()


class SkybandMonitoringAlgorithm(MonitorAlgorithm):
    """Grid-based monitoring via score–time skybands (Figure 11)."""

    name = "sma"

    def __init__(
        self, dims: int, cells_per_axis: int, grouped: bool = False
    ) -> None:
        """``grouped=True`` batches each cycle's skyband refills by
        preference-vector similarity, sharing one grid sweep per group
        (see :class:`~repro.algorithms.tma.TopKMonitoringAlgorithm`);
        results are bitwise identical to the per-query path."""
        super().__init__(dims)
        self.grid = Grid(dims, cells_per_axis)
        self.groups = QueryGroupRegistry() if grouped else None
        self._states: Dict[int, _SmaQueryState] = {}

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------

    def register(self, query: TopKQuery) -> List[ResultEntry]:
        if not isinstance(query, TopKQuery):
            return self._register_threshold(query)
        state = _SmaQueryState(query)
        state.rebuild_from(
            compute_and_install(self.grid, query, self.counters),
            self.counters,
        )
        self._states[query.qid] = state
        if self.groups is not None:
            self.groups.add(query)
        return state.result_entries()

    def register_many(
        self, queries: List[TopKQuery]
    ) -> Dict[int, List[ResultEntry]]:
        """Install a registration burst, sharing grid sweeps per group
        (see :meth:`~repro.algorithms.tma.TopKMonitoringAlgorithm.register_many`);
        each member's skyband is seeded from its exact solo outcome."""
        topk = [query for query in queries if isinstance(query, TopKQuery)]
        if self.groups is None or len(topk) < 2:
            return super().register_many(queries)
        results: Dict[int, List[ResultEntry]] = {}
        for query in queries:
            if not isinstance(query, TopKQuery):
                results[query.qid] = self._register_threshold(query)
        for query, outcome in compute_and_install_burst(
            self.grid, self.groups, topk, self.counters
        ):
            state = _SmaQueryState(query)
            state.rebuild_from(outcome, self.counters)
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
        """In-flight mutation: a pure k change rebuilds the skyband
        from the current grid (one traversal — the same work a cycle's
        skyband refill performs) without touching the query's
        registration; a preference change takes the base
        unregister/register path so the influence region moves
        wholesale. Either way the result is identical to cancelling
        and re-registering the modified query."""
        state = self._states.get(qid)
        if state is None or function is not None:
            return super().update_query(qid, k=k, function=function)
        query = state.query
        if k is None or k == query.k:
            return state.result_entries()
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        old_k = query.k
        query.k = k
        self.counters.recomputations += 1
        try:
            outcome = compute_and_install(
                self.grid, query, self.counters, order=state.order
            )
        except BaseException:
            query.k = old_k  # old skyband untouched: query still runs
            raise
        state.skyband = ScoreTimeSkyband(k)
        state.rebuild_from(outcome, self.counters)
        return state.result_entries()

    # ------------------------------------------------------------------
    # Cycle maintenance (Figure 11)
    # ------------------------------------------------------------------

    def _apply_cycle(
        self,
        arrivals: List[StreamRecord],
        expirations: List[StreamRecord],
    ) -> None:
        states = self._states
        counters = self.counters
        # The grid takes the whole batch first — only a refill reads
        # its points — so one span holds all the skyband upkeep.
        arrived = self.grid.insert_many(arrivals)
        departed = self.grid.delete_many(expirations)
        with self.tracer.span("skyband"):
            # Per query one scored block of the arrivals inside its
            # influence cells, as in TMA (see there); the gate is
            # frozen, so the block test is the test.
            for state, record, score in gated_arrivals(
                arrivals, arrived, states, counters, lambda s: s.gate[0]
            ):
                if state.region is not None and not state.region.contains(
                    record.attrs
                ):
                    continue
                if (score, record.rid) > state.gate:
                    self._touch(state.query.qid)
                    state.skyband.insert(score, record, counters)

            expired = {record.rid for record in expirations}
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
            state.query,
            self.counters,
            order=state.order,
            at_most=gate[0] if gate != MIN_RANK_KEY else None,
        )
        state.rebuild_from(outcome, self.counters)

    def _refill_grouped(self, refills: List[_SmaQueryState]) -> None:
        """Skyband refills batched by similarity group (see TMA)."""
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
                group,
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

    def influence_list_entries(self) -> int:
        """Total IL entries across cells (space accounting, Section 6)."""
        return sum(len(cell.influence) for cell in self.grid.cells())
