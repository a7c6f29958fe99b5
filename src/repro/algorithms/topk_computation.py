"""Shared from-scratch computation + influence-list bookkeeping.

TMA and SMA both delegate from-scratch result computation to the
traversal of Figure 6 (:func:`repro.grid.traversal.compute_top_k`, or
:func:`~repro.grid.traversal.compute_top_k_group` for a similarity
group) and then perform the same two pieces of influence-list (IL)
bookkeeping:

1. every *processed* cell receives an entry for the query (Figure 6,
   line 13);
2. cells that referenced the query under an older, larger influence
   region lose it (Figure 9, lines 14–21) — lazily, only now.

The set of cells holding the query in their IL is always a *threshold
set* ``{c : maxscore(c) >= s}`` for the threshold ``s`` in effect at
the last from-scratch computation, whichever path installed it. A
:class:`~repro.grid.traversal.SweepOrder` lists cells in descending
maxscore, so a threshold set is a *prefix* of the query's order, and
for a solo computation that is all of step 2
(:func:`drop_stale_influence`): the stale cells are those that follow
the processed prefix for as long as they still list the query.
:func:`remove_query_everywhere` is the same walk from position 0.

A group sweep follows the *group key's* order, not any member's, and
its members carry no order of their own; step 2 there is the paper's
flood (:func:`cleanup_influence`) from the cells left in the traversal
heap — looked at once for the whole group, since most list no member —
and from the member's own swept-but-below cells. Why that flood is
complete and safe — the argument the paper leaves implicit, spelled
out because the tests assert it:

- Threshold sets are closed "upward" along the preference order.
- At termination the heap contains exactly the one-step-worse
  neighbours of processed cells that were not processed — every
  boundary cell of the new region, each with ``maxscore`` below the
  new threshold.
- Stepping from a boundary cell strictly down the preference order
  never re-enters the new region (maxscore is monotone along steps),
  so the flood cannot delete fresh IL entries.
- Any stale cell (old region minus new region) is reachable from some
  boundary cell through a monotone descending path that stays inside
  the old region, and every cell on that path still holds the query —
  so conditioning propagation on "query found here" (as the paper
  does) loses nothing and stops the flood at the old region's edge.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.core.queries import ConstrainedTopKQuery, TopKQuery
from repro.core.regions import Rectangle
from repro.core.scoring import PreferenceFunction
from repro.core.stats import OpCounters
from repro.grid.grid import Coords, Grid
from repro.grid.traversal import (
    SweepOrder,
    TraversalOutcome,
    compute_top_k,
    compute_top_k_group,
    start_coords,
)


def query_region(query: TopKQuery) -> Optional[Rectangle]:
    """Constraint rectangle of a query, or None for ordinary top-k."""
    if isinstance(query, ConstrainedTopKQuery):
        return query.constraint
    return None


def _install(
    grid: Grid,
    query: TopKQuery,
    outcome: TraversalOutcome,
    counters: Optional[OpCounters],
) -> None:
    """Make the influence lists say what ``outcome`` found for ``query``.

    Adds the query to the IL of every processed cell (materialising
    cells as needed so later arrivals into currently-empty cells still
    find the query), then removes its stale entries: past the
    processed prefix of the outcome's order or, after a group sweep,
    by the flood from its swept cells below the kth score (the shared
    frontier is :func:`compute_and_install_group`'s).
    """
    qid = query.qid
    added = 0
    for coords in outcome.processed:
        influence = grid.get_cell(coords).influence
        if qid not in influence:
            influence.add(qid)
            added += 1
    if counters is not None:
        counters.influence_list_updates += added
    if outcome.order is not None:
        drop_stale_influence(
            grid, qid, outcome.order, len(outcome.processed), counters
        )
    else:
        cleanup_influence(
            grid, qid, query.function, outcome.remaining, counters
        )


def compute_and_install(
    grid: Grid,
    query: TopKQuery,
    counters: Optional[OpCounters] = None,
    order: Optional[SweepOrder] = None,
    at_most: Optional[float] = None,
) -> TraversalOutcome:
    """Run the top-k computation module and register influence entries.

    ``order`` is the query's sweep order from an earlier call (the
    outcome's ``order`` is the one to keep for the next) and
    ``at_most`` an upper bound on the kth score about to be found;
    both only make :func:`~repro.grid.traversal.compute_top_k` cheaper.
    """
    outcome = compute_top_k(
        grid,
        query.function,
        query.k,
        counters=counters,
        region=query_region(query),
        order=order,
        at_most=at_most,
    )
    _install(grid, query, outcome, counters)
    return outcome


def compute_and_install_group(
    grid: Grid,
    queries: Sequence[TopKQuery],
    counters: Optional[OpCounters] = None,
    at_most: Optional[float] = None,
) -> List[TraversalOutcome]:
    """Grouped :func:`compute_and_install`: one sweep, many queries.

    Runs :func:`repro.grid.traversal.compute_top_k_group` over the
    whole group, then performs per query the influence-list
    bookkeeping of the solo path — the grouped outcome's ``processed``
    is the same cell set a solo traversal would install, and its
    ``remaining`` seeds the cleanup flood. The sweep's ``frontier``
    lies outside every member's region, so each of its cells is
    tested against the whole group once and seeds a flood for the
    members it still lists. ``at_most`` is the least of the members'
    upper bounds on the kth score about to be found, if each has one.

    Callers must pass plain unconstrained linear queries (what
    :meth:`repro.core.queries.QueryGroupRegistry.partition` groups).
    Returns one outcome per query, in input order.
    """
    outcomes = compute_top_k_group(
        grid,
        [query.function for query in queries],
        [query.k for query in queries],
        counters=counters,
        at_most=at_most,
    )
    for query, outcome in zip(queries, outcomes):
        _install(grid, query, outcome, counters)
    members = {query.qid: query.function for query in queries}
    qids = set(members)
    # One list for the whole group (empty when it was swept solo).
    for coords in outcomes[0].frontier if outcomes else ():
        cell = grid.peek_cell(coords)
        if cell is not None:
            for qid in cell.influence & qids:
                cleanup_influence(grid, qid, members[qid], [coords], counters)
    return outcomes


def compute_and_install_burst(
    grid: Grid,
    registry,
    queries: Sequence[TopKQuery],
    counters: Optional[OpCounters] = None,
):
    """Initial computations for a registration burst, grouped.

    Adds every query to ``registry`` (a
    :class:`~repro.core.queries.QueryGroupRegistry`), partitions the
    burst into similarity groups, and serves each group of two or more
    through one shared sweep — ungroupable queries and singleton
    buckets take the solo path. ``counters.grouped_registrations``
    counts the queries served through a shared sweep. Yields
    ``(query, outcome)`` pairs; outcomes are identical to solo
    :func:`compute_and_install` calls in any order (the traversal
    never reads influence state, so burst order cannot matter).
    """
    for query in queries:
        registry.add(query)
    for group in registry.partition(list(queries)):
        if len(group) == 1:
            outcomes = [compute_and_install(grid, group[0], counters)]
        else:
            outcomes = compute_and_install_group(grid, group, counters)
            if counters is not None:
                counters.grouped_registrations += len(group)
        yield from zip(group, outcomes)


def drop_stale_influence(
    grid: Grid,
    qid: int,
    order: SweepOrder,
    start: int,
    counters: Optional[OpCounters] = None,
) -> int:
    """Remove ``qid`` from the cells of ``order`` from ``start`` on.

    The cells listing a query are a prefix of its order (module
    docstring), so the walk ends at the first cell that does not list
    it. Returns the number of entries removed.
    """
    position = start
    while order.reaches(position):
        cell = grid.peek_cell(order.coords[position])
        if cell is None or qid not in cell.influence:
            break
        cell.influence.discard(qid)
        position += 1
    if counters is not None:
        counters.influence_list_updates += position - start
    return position - start


def cleanup_influence(
    grid: Grid,
    qid: int,
    function: PreferenceFunction,
    seeds: Iterable[Coords],
    counters: Optional[OpCounters] = None,
) -> int:
    """Flood-remove stale IL entries for ``qid`` (Figure 9, lines 14–21).

    Starts from ``seeds`` and steps down the preference order, deleting
    the query's entry wherever found and propagating only through
    cells that held it. Returns the number of entries removed.
    """
    removed = 0
    frontier: List[Coords] = list(seeds)
    seen = set(frontier)
    while frontier:
        coords = frontier.pop()
        cell = grid.peek_cell(coords)
        if cell is None or qid not in cell.influence:
            continue
        cell.influence.discard(qid)
        removed += 1
        if counters is not None:
            counters.influence_list_updates += 1
        for neighbour in grid.steps_toward_worse(coords, function):
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return removed


def eager_trim_influence(
    grid: Grid,
    query: TopKQuery,
    threshold_score: float,
    counters: Optional[OpCounters] = None,
) -> int:
    """Eagerly shrink a query's influence lists to the current gate.

    The paper deliberately does *not* do this ("this 'lazy' approach
    does not affect the correctness") — stale entries are filtered by
    the gate comparison and cleaned only after the next from-scratch
    computation. This eager variant exists for the design-choice
    ablation: it walks the query's whole influence staircase from the
    preference-optimal corner and deletes entries on cells whose
    maxscore fell strictly below the new kth score, paying
    O(|influence region|) on every gate rise.

    Returns the number of entries removed.
    """
    function = query.function
    region = query_region(query)
    removed = 0
    frontier: List[Coords] = [start_coords(grid, function, region)]
    seen = set(frontier)
    while frontier:
        coords = frontier.pop()
        cell = grid.peek_cell(coords)
        if counters is not None:
            counters.influence_trim_visits += 1
        if cell is None or query.qid not in cell.influence:
            continue
        if region is None:
            bound = grid.maxscore(coords, function)
        else:
            clipped = grid.maxscore_in_region(coords, function, region)
            bound = clipped if clipped is not None else float("-inf")
        # Strict comparison: equal-maxscore cells may hold records that
        # outrank the kth under the canonical (score, rid) order.
        if bound < threshold_score:
            cell.influence.discard(query.qid)
            removed += 1
            if counters is not None:
                counters.influence_list_updates += 1
        for neighbour in grid.steps_toward_worse(coords, function):
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return removed


def remove_query_everywhere(
    grid: Grid,
    query: TopKQuery,
    counters: Optional[OpCounters] = None,
    order: Optional[SweepOrder] = None,
) -> int:
    """Drop a terminated query from all influence lists.

    Its cells lead its ``order``. A query only ever installed by group
    sweeps has none, and the paper's flood does it: the cleanup list
    starts as "the corner cell with the maximum maxscore" (of the
    constraint region, for a constrained query) and covers the whole
    staircase the query influenced.
    """
    if order is not None:
        return drop_stale_influence(grid, query.qid, order, 0, counters)
    return cleanup_influence(
        grid,
        query.qid,
        query.function,
        [start_coords(grid, query.function, query_region(query))],
        counters=counters,
    )
