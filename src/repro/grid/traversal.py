"""The top-k computation module (paper Figure 6).

Visits grid cells in descending ``maxscore`` order using a max-heap
seeded with the cell at the preference-optimal corner of the workspace.
After processing a cell, the heap receives one neighbour per dimension,
one step down the preference order (Figure 5(b)) — monotonicity
guarantees the cell with the next-highest maxscore is always already in
the heap. The search stops when the best remaining heap key can no
longer beat the current kth result, so only cells intersecting the
query's influence region are processed (the paper's minimality
property).

That visiting order is a function of the grid and the preference
function alone — no record takes part in it — so the heap lives in a
:class:`SweepOrder` that a caller may keep and hand back:
:func:`compute_top_k` walks the order's list of cells and extends it
only where no earlier call has been. :func:`compute_top_k_group` walks
an order of its own, priced by a key shared by the whole group.

Two deliberate deviations from the paper's pseudo-code, both documented
here because tests rely on them:

1. **Tie-aware termination.** The paper stops when ``maxscore <=
   q.top_score``. We stop only when ``maxscore < top_score`` (strict),
   i.e. cells whose maxscore *equals* the kth score are still
   processed. Under the library's canonical rank order ``(score, rid)``
   a record tying the kth score with a later arrival outranks it, and
   such a record may sit in an equal-maxscore cell; processing those
   cells makes every algorithm agree with the brute-force oracle even
   on tied scores. With continuous-valued data (all benchmarks) the
   extra processed cells are measure-zero.
2. **Neighbours are en-heaped unconditionally** (as the paper's code
   also does — see its lines 9–12 and the remark below Figure 6), so
   ``cells_enheaped`` counts what the paper's sweep would push. Nothing
   reads the cells left in the heap: the paper seeds its stale-entry
   cleanup from them (Figure 9 line 14), but here the influence region
   belongs to the query and is replaced wholesale by ``processed``
   (see :mod:`repro.algorithms.topk_computation`).

The optional ``region`` argument implements constrained top-k
computation (Section 7, Figure 12): the traversal is restricted to
cells intersecting the constraint rectangle, keys become the maxscore
of the *clipped* cell, and points outside the region are skipped.

Performance: the unconstrained scan gathers the rows of the cells it
is certain to need from the grid's record store in one call
(:meth:`~repro.core.window.RecordStore.gather`) and scores them in one
``score_batch`` kernel call, any further cell likewise; candidates
carry store slots, and records are built for the final top-k only;
heap keys for linear functions come from precomputed per-dimension corner
tables (:func:`_linear_maxscore_fn`), and counters go through a null
object when the caller passes none — the inner loop carries no
``if counters`` branches. All three are exact: batched scores and
table lookups are bitwise identical to their scalar counterparts.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core import batch
from repro.core.errors import NonMonotoneFunctionError
from repro.core.regions import Rectangle
from repro.core.results import ResultEntry
from repro.core.scoring import (
    LinearFunction,
    PreferenceFunction,
    linear_scores,
)
from repro.core.stats import NULL_COUNTERS, OpCounters
from repro.grid.grid import Coords, Grid


@dataclass(slots=True)
class TraversalOutcome:
    """What one run of the top-k computation module produced.

    Attributes:
        entries: up to k results, best-first in canonical order.
        processed: coords of de-heaped (scanned) cells — exactly the
            cells ``{c : maxscore(c) >= kth score}``, the query's
            influence region.
        order: solo sweeps only — the :class:`SweepOrder` walked;
            ``processed`` is its prefix.
    """

    entries: List[ResultEntry] = field(default_factory=list)
    processed: List[Coords] = field(default_factory=list)
    order: Optional["SweepOrder"] = None

    @property
    def kth_key(self) -> Tuple[float, int]:
        """Canonical key of the worst reported entry (gate for admission)."""
        if not self.entries:
            return (float("-inf"), -1)
        worst = self.entries[-1]
        return (worst.score, worst.record.rid)


def start_coords(
    grid: Grid,
    function: PreferenceFunction,
    region: Optional[Rectangle] = None,
) -> Coords:
    """First cell of the traversal: the preference-optimal corner cell.

    With a constraint ``region`` this is the cell holding the region's
    optimal corner (Figure 12 starts at c5,5); without one, the cell at
    the workspace corner maximising the function (Figure 5(b), c6,6).
    """
    if region is None:
        return grid.best_corner_coords(function)
    return _region_start_coords(grid, function, region)


def _region_start_coords(
    grid: Grid, function: PreferenceFunction, region: Rectangle
) -> Coords:
    """Cell holding the preference-optimal corner of ``region``.

    The region is upper-open, so on an increasing dimension its best
    point is the largest float below the upper bound, mapped to a cell
    exactly as :meth:`~repro.grid.grid.Grid.coords_of` maps a record.
    On a boundary (e.g. upper bound 0.5 on a 0.1-grid) that is the
    *previous* cell; one ulp below a boundary that the product with
    ``g`` rounds onto, it is the next one — where such a record lands.
    """
    g = grid.cells_per_axis
    coords: List[int] = []
    for dim, direction in enumerate(function.directions):
        if direction > 0:
            index = int(math.nextafter(region.upper[dim], -math.inf) * g)
        else:
            index = int(region.lower[dim] * g)
        coords.append(min(g - 1, max(0, index)))
    return tuple(coords)


def _linear_corner_tables(
    grid: Grid, function: LinearFunction
) -> List[List[float]]:
    """Per-dimension best-corner score contributions of a linear query.

    ``tables[dim][index]`` is the contribution of dimension ``dim`` to
    the maxscore of any cell whose coordinate along that axis is
    ``index``; a cell's maxscore is the sum over dimensions. Built with
    the exact operations ``bounds_of`` + ``score`` would perform, so
    lookup sums are bitwise identical to ``grid.maxscore``.
    """
    delta = grid.delta
    per_axis = grid.cells_per_axis
    tables: List[List[float]] = []
    for dim, direction in enumerate(function.directions):
        weight = function.weights[dim]
        offset = 1 if direction > 0 else 0
        tables.append(
            [weight * ((index + offset) * delta) for index in range(per_axis)]
        )
    return tables


def _linear_maxscore_fn(
    grid: Grid, function: LinearFunction
) -> Callable[[Coords], float]:
    """Precomputed cell-maxscore evaluator for linear functions.

    A linear function loses a *constant* ``|a_i| * delta`` of maxscore
    per one-cell step down the preference order along dimension ``i``,
    so cell maxscores need no per-push ``bounds_of`` + ``score``
    round trip. Rather than subtracting the decrement incrementally —
    which would drift from ``grid.maxscore`` by accumulated rounding —
    each dimension gets a table of best-corner contributions
    (:func:`_linear_corner_tables`), so the traversal's tie-aware
    termination sees the same keys as the generic path either way.
    """
    tables = _linear_corner_tables(grid, function)

    def maxscore_of(coords: Coords) -> float:
        total = 0.0
        for dim, table in enumerate(tables):
            total += table[coords[dim]]
        return total

    return maxscore_of


def maxscore_fn(
    grid: Grid,
    function: PreferenceFunction,
    region: Optional[Rectangle] = None,
) -> Callable[[Coords], Optional[float]]:
    """Cell-maxscore evaluator — the traversal's heap key.

    The corner tables for a plain linear function, ``grid.maxscore``
    otherwise (a subclass overriding ``score`` included, to keep keys
    bitwise exact). With a constraint ``region`` the key is the
    maxscore of the clipped cell, None for cells disjoint from it.
    """
    if region is not None:
        return lambda coords: grid.maxscore_in_region(  # noqa: E731
            coords, function, region
        )
    if type(function) is LinearFunction:
        return _linear_maxscore_fn(grid, function)
    return lambda coords: grid.maxscore(coords, function)


class SweepOrder:
    """The Figure-6 visiting order of one (grid, function, region).

    The traversal's heap, ``enheaped`` set and sequence counter, kept
    between calls. Position ``i`` of three parallel lists describes
    the ``i``-th cell a sweep visits: ``keys[i]`` its maxscore (clipped
    to ``region`` if given; ``price(coords)`` for a group sweep, which
    takes only the step relation from ``function``), ``coords[i]`` its
    coordinates, and
    ``pushed[i]`` the cells en-heaped once its neighbours went in — so
    a sweep over the first ``n`` cells en-heaped ``pushed[n - 1]``,
    however far the order has been extended since. The lists grow
    lazily (:meth:`reaches`), by the pops and pushes a from-the-corner
    sweep performs. Valid while the query keeps its function and
    region; owners hold it on the per-query state, so it dies with it.
    """

    __slots__ = (
        "keys",
        "coords",
        "pushed",
        "_grid",
        "_function",
        "_price",
        "_heap",
        "_enheaped",
    )

    def __init__(
        self,
        grid: Grid,
        function: PreferenceFunction,
        region: Optional[Rectangle] = None,
        price: Optional[Callable[[Coords], Optional[float]]] = None,
    ) -> None:
        self.keys: List[float] = []
        self.coords: List[Coords] = []
        self.pushed: List[int] = []
        self._grid = grid
        self._function = function
        self._price = price or maxscore_fn(grid, function, region)
        self._heap: List[Tuple[float, int, Coords]] = []  # (-key, seq, coords)
        self._enheaped: Set[Coords] = set()
        self._push(start_coords(grid, function, region))

    def _push(self, coords: Coords) -> None:
        if coords in self._enheaped:
            return
        key = self._price(coords)
        if key is None:
            return
        self._enheaped.add(coords)
        heapq.heappush(self._heap, (-key, len(self._enheaped), coords))

    def reaches(self, position: int) -> bool:
        """Extend the order up to ``position``; False if it ends first."""
        while len(self.keys) <= position:
            if not self._heap:
                return False
            negated, _, coords = heapq.heappop(self._heap)
            self.keys.append(-negated)
            self.coords.append(coords)
            for neighbour in self._grid.steps_toward_worse(
                coords, self._function
            ):
                self._push(neighbour)
            self.pushed.append(len(self._enheaped))
        return True

    def enheaped_by(self, position: int) -> int:
        """Cells a sweep over the first ``position`` cells en-heaped."""
        return self.pushed[position - 1] if position else 0


def _entries(store, candidates) -> List[ResultEntry]:
    """``(score, rid, slot)`` candidates → best-first result entries."""
    record = store.record
    return [
        ResultEntry(score, record(slot))
        for score, _, slot in sorted(
            candidates, key=lambda item: item[:2], reverse=True
        )
    ]


def _admit(
    candidates: List[Tuple[float, int, int]], k: int, entry
) -> None:
    """Offer ``entry`` to a min-heap of the k best canonical keys."""
    if len(candidates) < k:
        heapq.heappush(candidates, entry)
    elif entry[:2] > candidates[0][:2]:
        heapq.heapreplace(candidates, entry)


def compute_top_k(
    grid: Grid,
    function: PreferenceFunction,
    k: int,
    counters: Optional[OpCounters] = None,
    region: Optional[Rectangle] = None,
    point_filter: Optional[Callable] = None,
    order: Optional[SweepOrder] = None,
    at_most: Optional[float] = None,
) -> TraversalOutcome:
    """Run the top-k computation module of Figure 6.

    The sweep walks a :class:`SweepOrder` — the caller's, replayed, or
    a fresh one. On the unconstrained, unfiltered path (every
    from-scratch TMA/SMA computation) cells are taken a *wave* at a
    time: the next cell together with every following one that a
    cell-by-cell sweep is certain to process as well — while fewer
    than k points have been gathered, and while the cell's maxscore
    reaches ``at_most`` — scored by one
    :meth:`~repro.core.scoring.PreferenceFunction.score_batch` call and
    cut against the current kth key by a vector prefilter. Being
    certain, a wave changes no decision: processed cells, counters and
    entries are those of the cell-by-cell sweep.

    Args:
        grid: the index over the valid records.
        function: the query's monotone preference function.
        k: result cardinality.
        counters: operation counters to update (optional).
        region: constraint rectangle for constrained queries.
        point_filter: extra record predicate (record -> bool).
        order: the visiting order of (grid, function, region) kept
            from an earlier call, if the caller has one.
        at_most: an upper bound on the kth score this call will find,
            if the caller holds one. A bound that is too low costs
            extra swept cells (``cells_processed``), never a wrong
            entry or a wider ``processed``.

    Returns:
        A :class:`TraversalOutcome`; ``entries`` holds fewer than k
        results only when fewer than k eligible records are valid.
    """
    if counters is None:
        counters = NULL_COUNTERS
    counters.topk_computations += 1
    if order is None:
        order = SweepOrder(grid, function, region)
    keys = order.keys
    plain_scan = region is None and point_filter is None

    # Candidate top-k as a min-heap of canonical keys, so the current
    # kth key is O(1) to read and O(log k) to improve. Candidates are
    # ``(score, rid, slot)``; records are built for the winners only.
    store = grid.store
    rids = store.rids
    candidates: List[Tuple[float, int, int]] = []
    position = 0
    while order.reaches(position):
        # Tie-aware termination: strictly worse cells cannot contribute
        # (see module docstring, deviation 1).
        if len(candidates) >= k and keys[position] < candidates[0][0]:
            break
        start = position
        if plain_scan:
            slots: List[int] = []
            while True:
                cell = grid.peek_cell(order.coords[position])
                position += 1
                if cell is not None:
                    slots += cell.slots
                if not order.reaches(position) or not (
                    len(candidates) + len(slots) < k
                    or (at_most is not None and keys[position] >= at_most)
                ):
                    break
            counters.points_scored += len(slots)
            if slots:
                scores = function.score_batch(store.gather(slots))
                # Ties with the gate survive the prefilter: equal
                # scores can still win on rid.
                if len(candidates) >= k:
                    gate = candidates[0][0]
                elif len(slots) > k:
                    gate = batch.kth_largest(scores, k)
                else:
                    gate = float("-inf")
                for index, value in zip(*batch.take_at_least(scores, gate)):
                    slot = slots[index]
                    _admit(candidates, k, (value, rids[slot], slot))
        else:
            # Constrained / filtered scan: per-record checks decide
            # what gets scored, so counters keep their meaning.
            cell = grid.peek_cell(order.coords[position])
            position += 1
            for slot in cell.slots if cell is not None else ():
                attrs = store.row(slot)
                if region is not None and not region.contains(attrs):
                    continue
                if point_filter is not None and not point_filter(
                    store.record(slot)
                ):
                    continue
                counters.points_scored += 1
                _admit(
                    candidates, k, (float(function.score(attrs)), rids[slot], slot)
                )
        counters.cells_processed += position - start

    counters.cells_enheaped += order.enheaped_by(position)
    if len(candidates) >= k:
        # A bound below the kth score swept cells past it: they cost
        # their counts, but are not part of the influence region.
        while keys[position - 1] < candidates[0][0]:
            position -= 1
            if not position:
                # Every processed cell's bound is below a score found
                # in one of them: the function broke its declared
                # monotonicity (a probe samples, it cannot prove it).
                raise NonMonotoneFunctionError(
                    f"{function!r} scored a record {candidates[0][0]!r}, "
                    "above the maxscore of every cell the traversal "
                    "processed; it is not monotone in its declared "
                    "directions"
                )
    entries = _entries(store, candidates)
    return TraversalOutcome(
        entries=entries, processed=order.coords[:position], order=order
    )


class _GroupScorer:
    """Stacked per-cell pricing and scoring for one traversal group.

    Holds the group's weight matrix and per-dimension corner tables in
    the batch backend's native layout, so one grid sweep can price a
    cell for every member (:meth:`maxscores_of_many`) and score a cell's
    columnar block for every member (:meth:`score_block`) in a handful
    of array operations.

    Exactness: every element of every result is produced by the same
    floating-point operations in the same order as the per-query code
    it replaces — :meth:`maxscores_of_many` accumulates the same
    :func:`_linear_corner_tables` entries dimension by dimension, and
    :meth:`score_block` runs :func:`~repro.core.scoring.linear_scores`
    broadcast over the group — so per-query decisions taken on these values are
    bitwise identical to a solo traversal's.
    """

    __slots__ = (
        "functions",
        "dims",
        "_tables",
        "_weight_columns",
        "_key_tables",
    )

    def __init__(self, grid: Grid, functions: Sequence[LinearFunction]) -> None:
        self.functions = list(functions)
        self.dims = grid.dims
        np = batch.np
        if np is not None:
            self._weight_columns = list(
                np.array(
                    [function.weights for function in functions],
                    dtype=np.float64,
                ).T.copy()
            )
            # tables[dim] is a (Q, g) matrix: row q = query q's
            # contribution table along `dim`, the very products of
            # :func:`_linear_corner_tables`.
            steps = np.arange(grid.cells_per_axis)
            self._tables = [
                column[:, None]
                * ((steps + (1 if direction > 0 else 0)) * grid.delta)
                for column, direction in zip(
                    self._weight_columns, functions[0].directions
                )
            ]
            best = [table.max(axis=0).tolist() for table in self._tables]
        else:
            self._weight_columns = None
            self._tables = [  # [query][dim][index]
                _linear_corner_tables(grid, function) for function in functions
            ]
            best = [
                [max(column) for column in zip(*tables)]
                for tables in zip(*self._tables)
            ]
        # Heap keys come from summed per-dimension *max* contributions:
        # sum_d max_q table_q[d] >= max_q sum_d table_q[d] >= every
        # member's maxscore, and each term is non-increasing along the
        # shared step relation, so the key is a valid monotone upper
        # bound priced with d scalar lookups per cell — the same cost
        # the solo traversal pays — instead of a Q-vector reduction.
        # (Looser than the true group max only across dimensions, i.e.
        # by at most the members' per-dimension weight spread.)
        self._key_tables: List[List[float]] = best

    def group_key_of(self, coords: Coords) -> float:
        """Monotone upper bound of every member's maxscore at ``coords``."""
        total = 0.0
        for dim, table in enumerate(self._key_tables):
            total += table[coords[dim]]
        return total

    def maxscores_of(self, coords: Coords) -> List[float]:
        """Per-query maxscores of the cell at ``coords`` (fallback
        backend): entry q is ``_linear_maxscore_fn(grid,
        functions[q])(coords)``."""
        out = []
        for tables in self._tables:
            total = 0.0
            for dim, table in enumerate(tables):
                total += table[coords[dim]]
            out.append(total)
        return out

    def maxscores_of_many(self, coords_list: Sequence[Coords]):
        """Per-query maxscores of many cells at once.

        Returns a ``(Q, P)`` matrix (fallback: Q tuples) — column p is
        :meth:`maxscores_of` of ``coords_list[p]`` under comparisons
        (the d column gathers accumulate dimension by dimension from
        the first table entry, not from 0.0: only a zero's sign can
        differ); the grouped post-pass classifies every swept cell for
        every member this way."""
        np = batch.np
        if np is None:
            return list(zip(*map(self.maxscores_of, coords_list)))
        index = np.asarray(coords_list)
        total = self._tables[0][:, index[:, 0]]
        for dim in range(1, self.dims):
            total = total + self._tables[dim][:, index[:, dim]]
        return total

    def score_block(self, matrix):
        """Scores of a columnar cell block for every group member.

        NumPy backend only (the traversal's fallback branch scores
        lazily per member instead): an ``(n, Q)`` matrix whose column
        q is bitwise equal to ``functions[q].score_batch(matrix)`` —
        the same kernel, broadcast over the group's weight columns.
        """
        return linear_scores(matrix[:, :, None], self._weight_columns)


def _trim_shared_outcome(
    grid: Grid,
    function: LinearFunction,
    k: int,
    outcome: TraversalOutcome,
) -> TraversalOutcome:
    """A k-member's outcome derived from its weight class's shared sweep.

    The shared sweep ran the *same* preference function at a k at
    least as large, so its best-first entries prefix to this member's
    exact top-k, and its processed set is a superset of this member's:
    re-classifying against the member's own kth score (the grouped
    post-pass rule) recovers the solo processed set.
    """
    entries = outcome.entries[:k]
    if len(entries) >= k:
        kth_score = entries[-1].score
    else:
        kth_score = float("-inf")
    maxscore_of = maxscore_fn(grid, function)
    # A class swept solo carries its order; the order is the member's
    # too (same function), and the cells kept are a prefix of it.
    return TraversalOutcome(
        entries=entries,
        processed=[
            coords
            for coords in outcome.processed
            if maxscore_of(coords) >= kth_score
        ],
        order=outcome.order,
    )


def compute_top_k_group(
    grid: Grid,
    functions: Sequence[LinearFunction],
    ks: Sequence[int],
    counters: Optional[OpCounters] = None,
    at_most: Optional[float] = None,
) -> List[TraversalOutcome]:
    """Serve a whole group of linear queries in one Figure-6 sweep.

    All group members must be plain linear functions sharing the same
    per-dimension ``directions`` (same start corner, same step
    relation); the caller — normally
    :class:`repro.core.queries.QueryGroupRegistry` — groups by
    preference-vector similarity so members' influence staircases
    overlap heavily, but any shared-direction group is *correct*.

    The sweep walks a :class:`SweepOrder` priced by the **group key**
    — a monotone upper bound of every member's cell maxscore made of d
    scalar table lookups (:meth:`_GroupScorer.group_key_of`). Because
    the key upper-bounds every member and is monotone along the shared
    step relation, the heap-frontier invariant holds for the group:
    when the next key drops strictly below member q's kth score, no
    unprocessed cell can contribute to q and q is done; the sweep ends
    when every member is. Cells are taken a *wave* at a time, as in
    :func:`compute_top_k`: the next cell plus every following one a
    cell-by-cell sweep is certain to process — while fewer rows than
    the largest k have been seen (that member is still underfull), and
    while the cell's key reaches ``at_most``, the least of the
    members' upper bounds on the kth score about to be found (some
    member's true kth score is no higher, so it is not done). A wave
    is scored for the whole group by one
    :meth:`_GroupScorer.score_block` call, cut per column at the
    member's kth largest score of the wave and its gate, and the
    survivors of a column join that member's candidates through one
    sort. A bound that is too low costs extra processed cells, never a
    wrong entry. The pure-Python backend walks the same waves cell by
    cell, each member scoring only the cells its staircase reaches.

    **Exactness contract** (asserted by the grouped parity suite): the
    returned entries are bitwise identical — same ``(score, rid)``
    order — to ``compute_top_k`` run per query, because admission uses
    kernel scores bitwise equal to the solo path's and every cell a
    solo traversal would process is processed here before its query
    deactivates. ``processed`` is also the same *set* of cells per
    query (cells with ``maxscore_q >= kth score``, recovered by a
    post-pass), though visiting order follows the group key.

    Returns one :class:`TraversalOutcome` per query, in input order.
    """
    if not functions:
        return []
    if len(functions) != len(ks):
        raise ValueError(
            f"{len(functions)} functions but {len(ks)} k values"
        )
    for function in functions:
        if type(function) is not LinearFunction:
            raise ValueError(
                "grouped traversal requires plain LinearFunction members; "
                f"got {function!r}"
            )
        if function.directions != functions[0].directions:
            raise ValueError(
                "grouped traversal requires uniform monotonicity "
                f"directions; got {function.directions} vs "
                f"{functions[0].directions}"
            )
    # Near-identical members: queries sharing one weight vector drive
    # the same candidate ordering through the sweep, so the top-k of a
    # smaller k is a prefix of a larger one's. Each weight class is
    # swept once, at its largest k, and serves every member — aliased
    # outright when the member's k is the swept k (the PR 8
    # duplicate-spec case), else trimmed (:func:`_trim_shared_outcome`).
    # Each merged member still counts as a served query / top-k
    # computation, so counter totals match a run that never
    # deduplicated.
    class_members: Dict[Tuple[float, ...], List[int]] = {}
    for index, function in enumerate(functions):
        class_members.setdefault(tuple(function.weights), []).append(index)
    if len(class_members) < len(functions):
        classes = list(class_members.values())
        swept_ks = [max(ks[index] for index in members) for members in classes]
        shared = compute_top_k_group(
            grid,
            [functions[members[0]] for members in classes],
            swept_ks,
            counters=counters,
            at_most=at_most,  # the class's larger k only lowers its kth
        )
        if counters is not None:
            merged = len(functions) - len(classes)
            counters.topk_computations += merged
            counters.grouped_queries_served += merged
        results: List[Optional[TraversalOutcome]] = [None] * len(functions)
        for members, swept_k, outcome in zip(classes, swept_ks, shared):
            for index in members:
                results[index] = (
                    outcome
                    if ks[index] == swept_k
                    else _trim_shared_outcome(
                        grid, functions[index], ks[index], outcome
                    )
                )
        return results

    if len(functions) == 1:
        # Zero-overhead degenerate case: the solo path is the contract.
        return [
            compute_top_k(
                grid, functions[0], ks[0], counters=counters, at_most=at_most
            )
        ]

    if counters is None:
        counters = NULL_COUNTERS
    counters.topk_computations += len(functions)
    counters.grouped_traversals += 1
    counters.grouped_queries_served += len(functions)

    size = len(functions)
    scorer = _GroupScorer(grid, functions)
    # functions[0] only lends its directions: start corner, step relation.
    order = SweepOrder(grid, functions[0], price=scorer.group_key_of)
    keys = order.keys
    np = batch.np
    most = max(ks)
    # One partition per distinct k cuts a wave's score block.
    distinct = sorted(set(ks))
    by_k = [(k, [q for q in range(size) if ks[q] == k]) for k in distinct]

    # Per-query candidate top-k in ascending canonical order — element
    # 0 is the kth result once full — and the current kth scores (-inf
    # while underfull) a block of scores is compared against.
    candidates: List[List[Tuple[float, int, int]]] = [
        [] for _ in range(size)
    ]
    gates: List[float] = [float("-inf")] * size
    cut = np.array(gates) if np is not None else gates  # its vector mirror

    def admit(q: int, hits: List[Tuple[float, int, int]]) -> None:
        cand = candidates[q]
        cand += hits
        cand.sort()
        del cand[: -ks[q]]
        if len(cand) == ks[q]:
            gates[q] = cut[q] = cand[0][0]

    store = grid.store
    rids = store.rids
    seen = 0  # rows swept so far: a member is underfull while seen < k
    position = 0
    # Tie-aware per-query termination: q is done when even the group's
    # upper bound is strictly below its kth score, the sweep when all are.
    while order.reaches(position) and keys[position] >= min(gates):
        start = position
        underfull = [pair for pair in by_k if seen < pair[0]]
        wave = []  # (coords, slots) of its non-empty cells
        while True:
            coords = order.coords[position]
            position += 1
            cell = grid.peek_cell(coords)
            if cell is not None and cell.slots:
                wave.append((coords, list(cell.slots)))
                seen += len(cell.slots)
            if not order.reaches(position) or not (
                seen < most
                or (at_most is not None and keys[position] >= at_most)
            ):
                break
        counters.cells_processed += position - start
        if np is None:
            # Fallback: score lazily per member, *after* the skip
            # check — a member whose staircase misses the cell pays
            # nothing, so the fallback never scores more (record,
            # member) pairs than per-query traversals would.
            for coords, slots in wave:
                maxscores = scorer.maxscores_of(coords)
                matrix = store.gather(slots)
                for q, function in enumerate(functions):
                    gate = gates[q]
                    if maxscores[q] < gate:
                        continue  # cell cannot contribute to q
                    scores = [function.score(row) for row in matrix]
                    counters.points_scored += len(slots)
                    admit(
                        q,
                        [
                            (score, rids[slot], slot)
                            for score, slot in zip(scores, slots)
                            if score >= gate
                        ],
                    )
        elif wave:
            slots = [slot for _, some in wave for slot in some]
            block = scorer.score_block(store.gather(slots))
            # The stacked kernel examines every (record, member) pair:
            # count that, as the solo path counts points examined.
            counters.points_scored += len(slots) * size
            # A hit reaches its column's gate (ties included: equal
            # scores can still win on rid) or, while the member has
            # none, the column's kth largest score of the wave. A
            # finished member cannot hit: what is left scores strictly
            # below its frozen gate.
            bar = cut
            for k, members in underfull:
                below = len(slots) - k
                if below > 0:
                    bar = cut.copy() if bar is cut else bar
                    bar[members] = np.partition(
                        block[:, members], below, axis=0
                    )[below]
            columns, rows = np.nonzero((block >= bar).T)
            if not len(rows):
                continue
            hits = [
                (value, rids[slots[row]], slots[row])
                for value, row in zip(
                    block[rows, columns].tolist(), rows.tolist()
                )
            ]
            stop = 0
            for q, count in enumerate(
                np.bincount(columns, minlength=size).tolist()
            ):
                if count:
                    admit(q, hits[stop : stop + count])
                    stop += count

    counters.cells_enheaped += order.enheaped_by(position)
    processed = order.coords[:position]
    # Post-pass recovery of the solo traversal's processed set: exactly
    # the swept cells whose maxscore for q reaches its kth score (the
    # solo sweep processes a descending-key prefix that ends at that
    # threshold).
    swept = scorer.maxscores_of_many(processed)  # one row per member
    if np is not None:
        reached = (swept >= cut[:, None]).tolist()
    else:
        reached = [
            [value >= gate for value in row] for row, gate in zip(swept, gates)
        ]
    return [
        TraversalOutcome(
            entries=_entries(store, cand),
            processed=list(compress(processed, keep)),
        )
        for cand, keep in zip(candidates, reached)
    ]


def collect_cells_above_threshold(
    grid: Grid,
    function: PreferenceFunction,
    threshold: float,
    counters: Optional[OpCounters] = None,
) -> List[Coords]:
    """Cells whose maxscore exceeds ``threshold`` (Section 7).

    Threshold monitoring does not care about visiting order, so — as
    the paper notes — a plain list flood replaces the heap: start at
    the preference-optimal corner, expand one step down the preference
    order per dimension, prune when maxscore drops to the threshold.
    """
    if counters is None:
        counters = NULL_COUNTERS
    start = grid.best_corner_coords(function)
    result: List[Coords] = []
    seen: Set[Coords] = {start}
    frontier: List[Coords] = [start]
    cell_maxscore = maxscore_fn(grid, function)
    while frontier:
        coords = frontier.pop()
        if cell_maxscore(coords) <= threshold:
            continue
        result.append(coords)
        counters.cells_processed += 1
        for neighbour in grid.steps_toward_worse(coords, function):
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return result
