"""Shared from-scratch computation and the query-owned influence region.

TMA and SMA both delegate from-scratch result computation to the
traversal of Figure 6 (:func:`repro.grid.traversal.compute_top_k`, or
:func:`~repro.grid.traversal.compute_top_k_group` for a similarity
group). The cells a computation processes are the query's *influence
region*: ``{c : maxscore(c) >= s}`` for the kth score ``s`` it found
(every cell, when fewer than k records are eligible) — the only cells
a record able to enter the result can land in.

The paper stores that region in the cells: each cell keeps a hash set
of the queries whose region covers it (Section 4.1), a computation
adds the query to every processed cell, and stale entries are removed
lazily by a flood from the traversal's leftover heap (Figure 9, lines
14–21). Here the region belongs to the query instead.
:attr:`RegionState.cells` is the frozenset of the cells the query's
last from-scratch computation processed, and the next computation
*replaces* it, so no entry can go stale and unregistering drops
nothing but the state. A cycle asks the question the other way round
— which of this batch's cells does each region cover — with one set
intersection per distinct region
(:func:`repro.algorithms.base.influence_hits`); a :class:`RegionTable`
makes equal regions one object, so similar queries share it.

Counters keep the paper's list accounting: an install adds
``len(old ^ new)`` to ``influence_list_updates`` (the entries the
lists would gain plus the stale entries the flood would remove), and
an unregister adds ``len(cells)``.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.algorithms.base import MonitorAlgorithm
from repro.core.queries import ConstrainedTopKQuery, TopKQuery
from repro.core.regions import Rectangle
from repro.core.results import ResultEntry
from repro.core.stats import OpCounters
from repro.grid.grid import Coords, Grid
from repro.grid.traversal import (
    SweepOrder,
    TraversalOutcome,
    compute_top_k,
    compute_top_k_group,
    maxscore_fn,
)


def query_region(query: TopKQuery) -> Optional[Rectangle]:
    """Constraint rectangle of a query, or None for ordinary top-k."""
    if isinstance(query, ConstrainedTopKQuery):
        return query.constraint
    return None


class RegionTable:
    """One shared frozenset per distinct influence region, refcounted.

    Similar queries often have identical regions — a subscription
    workload of 400 similar queries holds 5 distinct ones. Handing
    every such query the same object lets a cycle intersect each
    distinct region with the batch once, finding it by identity
    (:func:`repro.algorithms.base.influence_hits`).
    """

    __slots__ = ("_shared", "_holders")

    def __init__(self) -> None:
        #: region -> the shared object equal to it
        self._shared: Dict[FrozenSet[Coords], FrozenSet[Coords]] = {}
        #: shared object -> number of states holding it
        self._holders: Dict[FrozenSet[Coords], int] = {}

    def acquire(self, cells: FrozenSet[Coords]) -> FrozenSet[Coords]:
        """The shared object equal to ``cells``, with one more holder."""
        shared = self._shared.setdefault(cells, cells)
        self._holders[shared] = self._holders.get(shared, 0) + 1
        return shared

    def release(self, cells: FrozenSet[Coords]) -> None:
        """One holder fewer; forget the region when none is left."""
        left = self._holders.pop(cells) - 1
        if left:
            self._holders[cells] = left
        else:
            del self._shared[cells]

    def __len__(self) -> int:
        return len(self._shared)


class RegionState:
    """Spec, sweep order and influence region of one grid top-k query.

    TMA's and SMA's per-query states extend it with their result
    structures. The region is held through ``table`` (a fresh one when
    none is given), so equal regions are one object.
    """

    __slots__ = ("query", "region", "order", "cells", "table")

    def __init__(
        self, query: TopKQuery, table: Optional[RegionTable] = None
    ) -> None:
        self.query = query
        self.region = query_region(query)
        #: the query's sweep order, once a solo computation walked one.
        self.order: Optional[SweepOrder] = None
        self.table = RegionTable() if table is None else table
        #: the influence region: cells the last computation processed.
        self.cells: FrozenSet[Coords] = self.table.acquire(frozenset())

    def _replace(
        self, cells: FrozenSet[Coords], counters: OpCounters
    ) -> None:
        """Hold ``cells`` instead; count the entries gained and lost."""
        old, self.cells = self.cells, self.table.acquire(cells)
        self.table.release(old)
        if self.cells is not old:
            counters.influence_list_updates += len(old ^ self.cells)

    def install(self, outcome: TraversalOutcome, counters: OpCounters) -> None:
        """Make the influence region what ``outcome`` processed."""
        self._replace(frozenset(outcome.processed), counters)
        if outcome.order is not None:
            self.order = outcome.order

    def release(self) -> None:
        """Give the region up (the query is unregistered)."""
        self.table.release(self.cells)

    def trim_region(
        self, grid: Grid, threshold: float, counters: OpCounters
    ) -> None:
        """Eagerly shrink the region to the cells reaching ``threshold``.

        The paper deliberately does *not* do this ("this 'lazy' approach
        does not affect the correctness"): a region wider than needed
        only costs gate comparisons until the next computation replaces
        it. This eager variant exists for the design-choice ablation;
        it examines every cell of the region on each gate rise
        (``influence_trim_visits``), keyed exactly as the traversal
        keys them. Cells whose maxscore *equals* the threshold stay:
        they may hold records that outrank the kth on rid.
        """
        maxscore_of = maxscore_fn(grid, self.query.function, self.region)
        kept = frozenset(
            coords for coords in self.cells if maxscore_of(coords) >= threshold
        )
        counters.influence_trim_visits += len(self.cells)
        self._replace(kept, counters)


def compute_and_install(
    grid: Grid,
    state: RegionState,
    counters: OpCounters,
    at_most: Optional[float] = None,
) -> TraversalOutcome:
    """Run the top-k computation module and install its region.

    The sweep replays the state's kept order; ``at_most`` is an upper
    bound on the kth score about to be found, if the caller holds one.
    Both only make :func:`~repro.grid.traversal.compute_top_k` cheaper.
    """
    query = state.query
    outcome = compute_top_k(
        grid,
        query.function,
        query.k,
        counters=counters,
        region=state.region,
        order=state.order,
        at_most=at_most,
    )
    state.install(outcome, counters)
    return outcome


def compute_and_install_group(
    grid: Grid,
    states: Sequence[RegionState],
    counters: OpCounters,
    at_most: Optional[float] = None,
) -> List[TraversalOutcome]:
    """Grouped :func:`compute_and_install`: one sweep, many queries.

    Each grouped outcome's ``processed`` is the cell set a solo
    traversal would process, so the regions installed are the solo
    path's. ``at_most`` is the least of the members' upper bounds on
    the kth score about to be found, if each has one.

    Callers must pass plain unconstrained linear queries (what
    :meth:`repro.core.queries.QueryGroupRegistry.partition` groups).
    Returns one outcome per state, in input order.
    """
    outcomes = compute_top_k_group(
        grid,
        [state.query.function for state in states],
        [state.query.k for state in states],
        counters=counters,
        at_most=at_most,
    )
    for state, outcome in zip(states, outcomes):
        state.install(outcome, counters)
    return outcomes


def compute_and_install_burst(
    grid: Grid,
    registry,
    states: Sequence[RegionState],
    counters: OpCounters,
) -> Iterator[Tuple[RegionState, TraversalOutcome]]:
    """Initial computations for a registration burst, grouped.

    Adds every query to ``registry`` (a
    :class:`~repro.core.queries.QueryGroupRegistry`), partitions the
    burst into similarity groups, and serves each group of two or more
    through one shared sweep — ungroupable queries and singleton
    buckets take the solo path. ``counters.grouped_registrations``
    counts the queries served through a shared sweep. Yields
    ``(state, outcome)`` pairs; outcomes are identical to solo
    :func:`compute_and_install` calls in any order.
    """
    by_qid: Dict[int, RegionState] = {}
    for state in states:
        registry.add(state.query)
        by_qid[state.query.qid] = state
    for group in registry.partition([state.query for state in states]):
        members = [by_qid[query.qid] for query in group]
        if len(members) == 1:
            outcomes = [compute_and_install(grid, members[0], counters)]
        else:
            outcomes = compute_and_install_group(grid, members, counters)
            counters.grouped_registrations += len(members)
        yield from zip(members, outcomes)


class GridMonitorAlgorithm(MonitorAlgorithm):
    """What TMA and SMA share: a grid over the valid records and one
    :class:`RegionState` (extended with the algorithm's result
    structure) per registered top-k query."""

    def __init__(self, dims: int, cells_per_axis: int) -> None:
        super().__init__(dims)
        self.grid = Grid(dims, cells_per_axis, self.store)
        #: the distinct regions of the top-k queries' states.
        self.regions = RegionTable()
        self._states: Dict = {}

    def bind_store(self, store) -> None:
        super().bind_store(store)
        self.grid.store = store

    def unregister(self, qid: int) -> None:
        if qid in self._threshold_states:
            self._unregister_threshold(qid)
            return
        state = self._states.pop(qid, None)
        if state is None:
            raise self._unknown_query(qid)
        self.counters.influence_list_updates += len(state.cells)
        state.release()

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

    def influence_region(self, qid: int) -> FrozenSet[Coords]:
        """The cells of query ``qid``'s influence region (top-k or
        threshold query)."""
        state = self._states.get(qid) or self._threshold_states.get(qid)
        if state is None:
            raise self._unknown_query(qid)
        return state.cells

    def influence_list_entries(self) -> int:
        """Entries the paper's per-cell influence lists would hold
        (space accounting, Section 6)."""
        states = [*self._states.values(), *self._threshold_states.values()]
        return sum(len(state.cells) for state in states)
