"""The naive top-k cell scan the paper argues against (Section 4.2).

"A naïve way to obtain the result of a query q is to sort all cells c
according to maxscore(c), and process them in descending maxscore(c)
order. [...] Nevertheless, it may be very expensive in practice
because it requires computing the maxscore for all cells and
subsequently sorting them."

This strawman is implemented faithfully so the design-choice ablation
(``benchmarks/test_ablation_design_choices.py``) can quantify what the
heap traversal of Figure 6 saves: the naive scan touches (scores and
sorts) *every* cell of the grid up front, while the heap visits only
the influence region plus its one-cell boundary. Both produce
identical results — the tests assert that too.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.results import ResultEntry
from repro.core.scoring import PreferenceFunction
from repro.core.stats import OpCounters
from repro.grid.grid import Coords, Grid
from repro.grid.traversal import TraversalOutcome


def _all_coords(grid: Grid) -> List[Coords]:
    coords: List[Tuple[int, ...]] = [()]
    for _ in range(grid.dims):
        coords = [
            prefix + (index,)
            for prefix in coords
            for index in range(grid.cells_per_axis)
        ]
    return coords


def compute_top_k_naive(
    grid: Grid,
    function: PreferenceFunction,
    k: int,
    counters: Optional[OpCounters] = None,
) -> TraversalOutcome:
    """Top-k by sorting *all* cells on maxscore (the paper's strawman).

    Returns a :class:`TraversalOutcome` shaped like the heap
    traversal's so callers can compare: ``processed`` holds the cells
    actually scanned (in visit order); ``remaining`` is empty (there
    is no heap to leave anything in — one reason TMA's lazy cleanup
    needs the real traversal).
    """
    if counters is not None:
        counters.topk_computations += 1

    ranked = sorted(
        _all_coords(grid),
        key=lambda coords: grid.maxscore(coords, function),
        reverse=True,
    )
    if counters is not None:
        # The naive method prices every cell: one maxscore evaluation
        # per cell plus the sort.
        counters.cells_enheaped += len(ranked)

    candidates: List[Tuple[float, int, object]] = []
    processed: List[Coords] = []
    for coords in ranked:
        bound = grid.maxscore(coords, function)
        if len(candidates) >= k:
            kth_score = min(candidates, key=lambda item: item[:2])[0]
            if bound < kth_score:
                break
        processed.append(coords)
        if counters is not None:
            counters.cells_processed += 1
        cell = grid.peek_cell(coords)
        if cell is None:
            continue
        for record in grid.records_in(cell):
            score = function.score(record.attrs)
            if counters is not None:
                counters.points_scored += 1
            entry = (score, record.rid, record)
            if len(candidates) < k:
                candidates.append(entry)
            else:
                worst = min(range(len(candidates)), key=lambda i: candidates[i][:2])
                if entry[:2] > candidates[worst][:2]:
                    candidates[worst] = entry
    entries = [
        ResultEntry(score, record)
        for score, _, record in sorted(
            candidates, key=lambda item: item[:2], reverse=True
        )
    ]
    return TraversalOutcome(entries=entries, processed=processed)
