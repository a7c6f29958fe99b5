"""Common interface and change-report plumbing for monitoring algorithms.

An algorithm owns *all* of its data structures (grid or sorted lists,
per-query state). The engine owns the window and hands each cycle's
``P_ins`` / ``P_del`` batches to :meth:`MonitorAlgorithm.process_cycle`,
which returns one :class:`~repro.core.results.ResultChange` per query
whose state was touched — the paper's "report changes to the client".

Change detection works by lazy snapshots: the first time a cycle
mutates a query's result state, the previous result is stashed; at the
end of the cycle each touched query is diffed against its snapshot.
This keeps untouched queries free (no O(Q·k) per-cycle copying).

Beyond top-k queries, every algorithm also serves **threshold
queries** (paper Section 7: monitor all points with score above a
user-set threshold) through the same registration / cycle / change
machinery — the support lives here so the unified
:class:`~repro.core.engine.StreamMonitor` facade can mix query kinds
freely. Grid-based algorithms give a threshold query the influence
region of exactly the cells whose maxscore exceeds the threshold (the
paper's method); maintenance batch-scores each cycle's arrivals per
threshold query with the vector kernel, which is exact for any
algorithm (a record scoring above the threshold necessarily lies
inside the query's static influence region).

**Influence regions belong to the queries**: a grid query's state
holds ``cells``, the frozenset of cells its region covers, where the
paper lists the queries in each cell (see
:mod:`repro.algorithms.topk_computation`). :func:`influence_hits`
meets the regions with a batch's cells query-major.

**In-flight mutation**: :meth:`MonitorAlgorithm.update_query` changes
a running query's ``k`` and/or preference function while *reusing* the
algorithm's window-derived state (grid, sorted lists) — the result is
identical to unregister + re-register with the same qid, never a
stream replay. Subclasses override it with cheaper in-place paths
(e.g. TMA trims its exact top list on a k decrease without touching
the grid).
"""

from __future__ import annotations

import abc
from itertools import chain, compress
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core import batch
from repro.core.batch import ArrivalScorer
from repro.core.errors import QueryError
from repro.core.queries import ThresholdQuery, TopKQuery, check_k
from repro.core.results import ResultChange, ResultEntry, diff_results
from repro.core.scoring import LinearFunction, linear_scores
from repro.core.stats import OpCounters
from repro.core.tuples import StreamRecord
from repro.core.window import RecordStore, Slots
from repro.obs.trace import NULL_TRACER

_CELLS = attrgetter("cells")
_COORDS = attrgetter("coords")


def influence_hits(
    cells: Sequence, states: Dict, counters: OpCounters
) -> Dict[int, List[int]]:
    """Which records of a batch each query must look at, query-major.

    ``cells[i]`` is the grid cell record ``i`` of the batch lies in
    (None where the grid never materialised it). Each distinct query
    region (``states[qid].cells``) meets the batch's cells in one
    C-level set intersection, and the batch positions inside the cells
    it covers are gathered once per distinct region. Returns
    ``qid -> positions`` for the queries of ``states`` whose region
    covers a batch record, in the order of ``states``; queries with
    equal regions share one list, which callers must not mutate.
    Counts ``influence_checks`` as the record-by-record scan of
    per-cell lists would: records in the cell × the queries covering
    it. An empty query table costs nothing.
    """
    if not states:
        return {}
    distinct = set(cells)
    distinct.discard(None)
    present = dict(zip(map(_COORDS, distinct), distinct))
    batch_cells = frozenset(present)
    # Equal regions are mostly one shared object (RegionTable), so the
    # intersections and the gathering are paid per distinct region.
    regions = list(map(_CELLS, states.values()))
    covers = {
        region: batch_cells.intersection(region) for region in set(regions)
    }
    # Batch positions, for the cells some region covers only.
    by_cell: Dict = {
        present[coords]: [] for coords in frozenset().union(*covers.values())
    }
    for position, cell in enumerate(cells):
        run = by_cell.get(cell)
        if run is not None:
            run.append(position)
    runs = {cell.coords: run for cell, run in by_cell.items()}
    gathered = {
        region: list(chain.from_iterable(map(runs.__getitem__, cover)))
        for region, cover in covers.items()
    }
    positions = list(map(gathered.__getitem__, regions))
    counters.influence_checks += sum(map(len, positions))
    return dict(compress(zip(states, positions), positions))


def gated_arrivals(
    store: RecordStore,
    arrivals: Sequence[int],
    cells: Sequence,
    states: Dict,
    counters: OpCounters,
    gate_score: Callable,
) -> Iterator[Tuple[object, int, float]]:
    """The arrivals that can enter a query's result, query by query.

    Only the (arrival, query) pairs :func:`influence_hits` names are
    scored, each against ``gate_score(state)`` read once, before any
    triple of that query is yielded; yields ``(state, slot, score)``
    for the pairs scoring at least that, query by query in the order
    of the hits and in arrival order within a query. ``arrivals`` are
    slots of ``store``; a yielded triple names the slot, so a record is
    built only for what the caller admits. A gate only rises
    while arrivals are applied, so the caller's exact check on each
    yielded triple decides what the record-by-record scan decided.

    Under the NumPy backend every pair of a plain ``LinearFunction``
    query is scored by **one** :func:`~repro.core.scoring.linear_scores`
    call over two index columns (arrival position, query column) —
    bitwise the per-query ``score_batch`` values, without a kernel
    round trip per query. Other families score one block per query;
    the pure-Python backend scores one scalar per pair either way.
    """
    hits = influence_hits(cells, states, counters)
    if not hits:
        return
    matrix = store.gather(arrivals)
    passed: Dict[int, List[Tuple[int, float]]] = {}
    if batch.is_matrix(matrix):
        passed = {
            qid: []
            for qid in hits
            if type(states[qid].query.function) is LinearFunction
        }
    if passed:
        np = batch.np
        stacked = list(passed)
        positions: List[int] = []
        sizes = []
        for qid in stacked:
            positions += hits[qid]
            sizes.append(len(hits[qid]))
        rows = np.array(positions)
        columns = np.repeat(np.arange(len(stacked)), sizes)
        weights = np.array(
            [states[qid].query.function.weights for qid in stacked],
            dtype=np.float64,
        )
        gates = np.array(
            [gate_score(states[qid]) for qid in stacked], dtype=np.float64
        )
        scores = linear_scores(matrix[rows], weights.T[:, columns])
        kept = np.nonzero(scores >= gates[columns])[0]
        kept = kept[np.lexsort((rows[kept], columns[kept]))]
        for column, position, score in zip(
            columns[kept].tolist(), rows[kept].tolist(), scores[kept].tolist()
        ):
            passed[stacked[column]].append((position, score))
    for qid, indices in hits.items():
        state = states[qid]
        survivors = passed.get(qid)
        if survivors is None:
            picked, values = batch.take_at_least(
                state.query.function.score_batch(
                    batch.take_rows(matrix, indices)
                ),
                gate_score(state),
            )
            survivors = sorted(
                zip([indices[index] for index in picked], values)
            )
        for position, score in survivors:
            yield state, arrivals[position], score


class _ThresholdState:
    """Per-threshold-query state: spec, members, and (grid) region."""

    __slots__ = ("query", "members", "cells")

    def __init__(self, query: ThresholdQuery) -> None:
        self.query = query
        #: rid -> ResultEntry of every valid point above the threshold.
        self.members: Dict[int, ResultEntry] = {}
        #: influence-region cell coords (grid-based algorithms only).
        self.cells: FrozenSet = frozenset()

    def result_entries(self) -> List[ResultEntry]:
        return sorted(
            self.members.values(),
            key=lambda entry: entry.key,
            reverse=True,
        )


class MonitorAlgorithm(abc.ABC):
    """Base class for continuous top-k monitoring algorithms."""

    #: short identifier used by factories and reports ("tma", ...)
    name: str = "abstract"

    def __init__(self, dims: int) -> None:
        self.dims = dims
        self.counters = OpCounters()
        #: observability hooks — NULL_TRACER / None until the engine
        #: (or a shard worker) calls :meth:`bind_observability`; phase
        #: spans stay unconditional no-ops when tracing is off.
        self.tracer = NULL_TRACER
        self.metrics = None
        self._snapshots: Dict[int, List[ResultEntry]] = {}
        self._threshold_states: Dict[int, _ThresholdState] = {}
        #: the valid records, indexed by slot (the engine shares its
        #: own through :meth:`bind_store`).
        self.store = RecordStore(dims)

    def bind_store(self, store: RecordStore) -> None:
        """Read the valid records from ``store`` — the monitor's one
        copy — instead of a private store. Called by the engine before
        any record arrives."""
        if len(self.store):
            raise ValueError("cannot rebind an algorithm that holds records")
        self.store = store

    def bind_observability(self, registry, tracer) -> None:
        """Attach a metrics registry and cycle tracer.

        Called once after construction by whoever owns the cycle loop
        (engine, shard worker). ``registry`` may be ``None`` (no
        metrics) and ``tracer`` :data:`~repro.obs.trace.NULL_TRACER`
        (tracing off); algorithm code reads both through the
        ``metrics`` / ``tracer`` attributes and never branches on the
        engine's configuration directly.
        """
        self.metrics = registry
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def register(self, query: TopKQuery) -> List[ResultEntry]:
        """Install a query (qid already assigned); return its initial result."""

    def register_many(
        self, queries: List[TopKQuery]
    ) -> Dict[int, List[ResultEntry]]:
        """Install a burst of queries; return initial results by qid.

        The default simply registers one by one. Grouped algorithms
        override this to serve similar members of the burst through a
        shared grid sweep (same results, less work) — the registration
        analogue of their grouped cycle recomputations.
        """
        return {query.qid: self.register(query) for query in queries}

    @abc.abstractmethod
    def unregister(self, qid: int) -> None:
        """Remove a query and every trace of it."""

    @abc.abstractmethod
    def current_result(self, qid: int) -> List[ResultEntry]:
        """Current top-k of a query, best-first in canonical order."""

    @abc.abstractmethod
    def queries(self) -> Iterable[TopKQuery]:
        """The registered queries."""

    def update_query(
        self,
        qid: int,
        k: Optional[int] = None,
        function=None,
    ) -> List[ResultEntry]:
        """Mutate a running top-k query in place; return the new result.

        The default re-derives the result from the algorithm's current
        window state — exactly what unregister + register with the
        same qid would produce, minus a monitor-level round trip and
        without ever replaying the stream. Subclasses override with
        cheaper in-place paths where the maths allows (see TMA).
        """
        if qid in self._threshold_states:
            raise QueryError(
                f"threshold query {qid} cannot be updated in flight; "
                "cancel and re-register it instead"
            )
        query = self._find_query(qid)
        if k is None and function is None:
            return self.current_result(qid)
        if k is not None:
            check_k(k)
        old_k, old_function = query.k, query.function
        self.unregister(qid)
        if k is not None:
            query.k = k
        if function is not None:
            query.function = function
        try:
            return self.register(query)
        except BaseException:
            # A failed mutation (e.g. a preference function that blows
            # up mid initial-computation) must not destroy the running
            # query: restore the previous spec and re-install it — the
            # old spec registered successfully before, so this
            # recovers the pre-update state.
            query.k, query.function = old_k, old_function
            self.register(query)
            raise

    def _find_query(self, qid: int):
        for query in self.queries():
            if query.qid == qid:
                return query
        raise self._unknown_query(qid)

    # ------------------------------------------------------------------
    # Stream maintenance
    # ------------------------------------------------------------------

    def process_cycle(
        self,
        arrivals: Sequence,
        expirations: Sequence,
    ) -> Dict[int, ResultChange]:
        """Apply one processing cycle and report per-query changes.

        The engine hands both batches over as :class:`Slots` of
        :attr:`store`, which already holds the arrivals and still holds
        the expirations (it releases them after the cycle). Record
        sequences are accepted too: the arrivals enter the store here,
        and the expired records leave it when the cycle ends.

        Arrivals are processed before expirations — the paper's TMA
        ordering (Section 4.3: handling ``P_ins`` first avoids useless
        recomputations when arrivals replace expiring results), applied
        uniformly so all algorithms see identical cycles.
        """
        if type(arrivals) is not Slots:
            return self._process_records(arrivals, expirations)
        self.counters.arrivals += len(arrivals)
        self.counters.expirations += len(expirations)
        self._snapshots.clear()
        self._apply_cycle(arrivals, expirations)
        if self._threshold_states:
            self._maintain_thresholds(arrivals, expirations)
        changes: Dict[int, ResultChange] = {}
        for qid, before in self._snapshots.items():
            change = diff_results(qid, before, self.current_result(qid))
            if change.changed:
                changes[qid] = change
        self._snapshots.clear()
        return changes

    def _process_records(
        self,
        arrivals: Sequence[StreamRecord],
        expirations: Sequence[StreamRecord],
    ) -> Dict[int, ResultChange]:
        """:meth:`process_cycle` over record sequences."""
        store = self.store
        arrived = store.add_records(arrivals)
        try:
            expired = store.slots_of_records(expirations)
        except BaseException:
            store.release(arrived)
            raise
        try:
            return self.process_cycle(arrived, expired)
        finally:
            store.release(expired)

    @abc.abstractmethod
    def _apply_cycle(self, arrivals: Slots, expirations: Slots) -> None:
        """Algorithm-specific cycle maintenance over slot batches."""

    # ------------------------------------------------------------------
    # Threshold queries (Section 7) — shared by every algorithm
    # ------------------------------------------------------------------

    def _register_threshold(self, query: ThresholdQuery) -> List[ResultEntry]:
        """Install a threshold query; return its initial matches.

        Grid-based algorithms (anything exposing ``self.grid``) give
        the query the region of exactly the cells whose maxscore
        exceeds the threshold and seed the result from those cells'
        points; others scan the valid set once. The influence region
        of a threshold query is static.
        """
        if query.dims != self.dims:
            raise QueryError(
                f"query has {query.dims} dims, monitor has {self.dims}"
            )
        state = _ThresholdState(query)
        grid = getattr(self, "grid", None)
        if grid is None:
            records = list(self._valid_records())
            rows = [record.attrs for record in records]
            build = records.__getitem__
        else:
            from repro.grid.traversal import collect_cells_above_threshold

            state.cells = frozenset(
                collect_cells_above_threshold(
                    grid, query.function, query.threshold, self.counters
                )
            )
            self.counters.influence_list_updates += len(state.cells)
            cells = filter(None, map(grid.peek_cell, state.cells))
            store = self.store
            slots = [slot for cell in cells for slot in cell.slots]
            rows = map(store.row, slots)
            build = lambda position: store.record(slots[position])  # noqa: E731
        for position, attrs in enumerate(rows):
            score = query.score(attrs)
            self.counters.points_scored += 1
            if score > query.threshold:
                record = build(position)
                state.members[record.rid] = ResultEntry(score, record)
        self._threshold_states[query.qid] = state
        return state.result_entries()

    def _unregister_threshold(self, qid: int) -> None:
        """Remove a threshold query."""
        if self._threshold_states.pop(qid, None) is None:
            raise self._unknown_query(qid)

    def _maintain_thresholds(self, arrivals: Slots, expirations: Slots) -> None:
        """Apply one cycle to every threshold query's member set.

        Grid-based algorithms narrow arrivals through the influence
        regions (a threshold query covers exactly the cells whose
        maxscore exceeds its threshold, so only arrivals landing in
        those cells are even scored — the paper's Section-7 win over
        the naive check-every-query strategy). Non-grid algorithms
        batch-score every arrival per query with the vector kernel;
        both paths are exact because a record scoring above the
        threshold necessarily lies inside the (static) influence
        region. Records are built for new members only.
        """
        states = self._threshold_states
        store = self.store
        grid = getattr(self, "grid", None)
        if arrivals and grid is not None:
            for state, slot, score in gated_arrivals(
                store,
                arrivals,
                grid.cells_of_slots(arrivals),
                states,
                self.counters,
                lambda state: state.query.threshold,
            ):
                if score > state.query.threshold:
                    self._touch(state.query.qid)
                    record = store.record(slot)
                    state.members[record.rid] = ResultEntry(score, record)
        elif arrivals:
            scorer = ArrivalScorer(store.gather(arrivals))
            for state in states.values():
                query = state.query
                scores = scorer.scores(query.function)
                self.counters.influence_checks += len(arrivals)
                threshold = query.threshold
                members = state.members
                for slot, score in zip(arrivals, scores):
                    if score > threshold:
                        self._touch(query.qid)
                        record = store.record(slot)
                        members[record.rid] = ResultEntry(score, record)
        if expirations:
            rids = store.rids
            expired = {rids[slot] for slot in expirations}
            for state in states.values():
                hit = state.members.keys() & expired
                if not hit:
                    continue
                self._touch(state.query.qid)
                for rid in hit:
                    del state.members[rid]

    def _valid_records(self) -> Iterable[StreamRecord]:
        """The currently valid records (non-grid algorithms override;
        used to seed threshold-query registration)."""
        raise NotImplementedError(
            f"{type(self).__name__} cannot enumerate valid records; "
            "threshold queries are unsupported here"
        )

    def _threshold_result(self, qid: int) -> List[ResultEntry]:
        return self._threshold_states[qid].result_entries()

    def _threshold_queries(self) -> List[ThresholdQuery]:
        return [state.query for state in self._threshold_states.values()]

    def _threshold_state_sizes(self) -> Dict[int, int]:
        return {
            qid: len(state.members)
            for qid, state in self._threshold_states.items()
        }

    # ------------------------------------------------------------------
    # Snapshot helpers for subclasses
    # ------------------------------------------------------------------

    def _touch(self, qid: int) -> None:
        """Stash the pre-cycle result of ``qid`` before its first mutation."""
        if qid not in self._snapshots:
            self._snapshots[qid] = self.current_result(qid)

    @staticmethod
    def _unknown_query(qid: int) -> QueryError:
        return QueryError(f"query {qid} is not registered with this algorithm")

    # ------------------------------------------------------------------
    # Introspection used by analysis / benchmarks
    # ------------------------------------------------------------------

    def result_state_sizes(self) -> Dict[int, int]:
        """Entries of per-query result state (view/skyband/top list).

        Used by the Table 2 benchmark; the default reports k per top-k
        query and the member count per threshold query.
        """
        sizes = {
            query.qid: query.k
            for query in self.queries()
            if isinstance(query, TopKQuery)
        }
        sizes.update(self._threshold_state_sizes())
        return sizes
