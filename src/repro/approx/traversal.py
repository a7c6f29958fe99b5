"""Relaxed top-k computation with a certified error bound.

:func:`compute_top_k_relaxed` is the approximate tier's analogue of
:func:`repro.grid.traversal.compute_top_k` (the paper's Figure-6
module). It walks the same best-first cell order
(:class:`~repro.grid.traversal.SweepOrder`) with the same batched
per-cell scoring, but with a *relaxed termination gate*: once k
candidates exist with kth score ``s_k > 0``, the sweep stops as soon
as the best remaining key drops below
``g = s_k * (1 + ANCHOR_SHARE * epsilon)`` instead of below ``s_k``.
Cells inside the slack band are skipped, and — more importantly — the
certificate anchored at ``g`` keeps certifying reports across many
subsequent cycles without any traversal at all.

**The certificate.** Let ``g`` be as above (or ``g = s_k`` when
``s_k <= 0`` — the gate falls back to the exact rule there, so
negative-score workloads silently degrade to exact). At termination
the best remaining heap key is below ``g``; by the grid's
monotonicity, *every* record not examined by the sweep lives in a cell
of maxscore below ``g``, hence scores below ``g``. The sweep also
keeps a **buffer** of every examined record scoring at least
``floor = g / (1 + epsilon)``. Therefore:

    every in-window record absent from the buffer scores below g.  (I)

If the true kth record were missing from the buffer, the true kth
score would be below ``g``; if it is present, the buffer's kth score
*is* the true kth. Either way ``exact_s_k <= max(s_k, g) =
s_k * (1 + bound)`` with ``bound = max(0, g / s_k - 1)`` — and since
the buffer's kth score never falls below ``floor`` while the buffer
stays full, ``bound <= epsilon`` is the machine-checkable guarantee
every approximate report carries.

Invariant (I) is what :class:`repro.approx.algorithm.ApproxTopKAlgorithm`
maintains incrementally between refreshes: arrivals scoring at least
``floor`` enter the buffer (``floor <= g``, so skipped arrivals keep
(I)); expirations leave it. Because every member scores at least
``floor``, a full buffer's certificate cannot decay past ε — a fresh
relaxed sweep re-anchors only when the buffer underfills (fewer than
k members survive). See ``docs/APPROX.md`` for the full derivation.

The traversal is deterministic and uses the scoring kernels of
:mod:`repro.core.batch`, so results are bitwise identical across batch
backends and shard layouts — the parity suites assert equality of
entries, bounds, and buffers, not just bound compliance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core import batch
from repro.core.results import ResultEntry
from repro.core.scoring import PreferenceFunction
from repro.core.stats import NULL_COUNTERS, OpCounters
from repro.grid.grid import Grid
from repro.grid.traversal import SweepOrder

#: buffer entries are canonical (score, rid, record) triples.
BufferEntry = Tuple[float, int, object]


@dataclass(slots=True)
class ApproxOutcome:
    """What one relaxed sweep produced.

    Attributes:
        entries: up to k results, best-first in canonical order.
        buffer: every examined record scoring >= ``floor``, ascending
            by (score, rid) — the state the incremental maintenance
            path admits into and expires from.
        g: the frozen certificate threshold (see module docstring).
        floor: the buffer admission floor ``s_k / (1 + epsilon)``.
        bound: certified relative error of the report (<= epsilon).
        pooled: records the sweep examined and pooled — what an
            ``expected_points`` pre-size estimate is judged against.
    """

    entries: List[ResultEntry] = field(default_factory=list)
    buffer: List[BufferEntry] = field(default_factory=list)
    g: float = float("-inf")
    floor: float = float("-inf")
    bound: float = 0.0
    pooled: int = 0


#: share of the ε budget spent on the sweep's relaxed stop gate; the
#: rest becomes the buffer's decay band. A small share keeps anchors
#: tight (reported bounds ≈ ε/4) and buffers deep, so certificates
#: survive many cycles of result churn before a refresh — refresh
#: frequency, not sweep depth, dominates the tier's cycle cost.
ANCHOR_SHARE = 0.25


def certificate(kth_score: float, epsilon: float) -> Tuple[float, float]:
    """The (g, floor) pair anchored at ``kth_score``.

    The ε budget is split: the certificate threshold sits at
    ``g = s_k * (1 + ANCHOR_SHARE * ε)`` (the sweep's stop gate), and
    the admission floor at ``g / (1 + ε)`` — the lowest kth score the
    frozen ``g`` still certifies within ε. Every buffer member scores
    at least ``floor``, so a full buffer *cannot* decay past its
    contract; only underfilling (the buffer dropping below k members)
    forces a re-anchoring sweep. Positive kth scores get the relaxed
    band; non-positive ones collapse it (``g = floor = kth_score``) so
    the scheme degrades to exact instead of certifying against a sign
    flip.
    """
    if kth_score > 0.0:
        g = kth_score * (1.0 + ANCHOR_SHARE * epsilon)
        return g, g / (1.0 + epsilon)
    return kth_score, kth_score


def certified_bound(kth_score: float, g: float) -> float:
    """Certified relative error of a report with kth score ``kth_score``.

    The guarantee is ``exact_kth <= kth_score * (1 + bound)``; it
    follows from invariant (I) in the module docstring whenever ``g``
    is the certificate the buffer was maintained under.
    """
    if kth_score > 0.0 and g > kth_score:
        return g / kth_score - 1.0
    return 0.0


def compute_top_k_relaxed(
    grid: Grid,
    function: PreferenceFunction,
    k: int,
    epsilon: float,
    counters: Optional[OpCounters] = None,
    expected_points: Optional[int] = None,
) -> ApproxOutcome:
    """One relaxed best-first sweep (unconstrained queries only).

    Walks the same order as :func:`repro.grid.traversal.compute_top_k`'s
    plain-scan path, cell by cell with the same batched cell scoring,
    with two changes: the termination gate is ``g`` instead of the
    kth score, and every examined record down to the running admission
    floor is retained in the returned buffer.

    When the grid holds fewer than k eligible records the sweep runs
    to exhaustion, the buffer holds *every* valid record, and the
    certificate is vacuous (``g = floor = -inf``, ``bound = 0``) — the
    caller keeps admitting every arrival until a full refresh anchors
    a real certificate.

    ``expected_points`` pre-sizes the examined-record pool (the approx
    tier feeds the cell sketch's occupancy estimate here): slots are
    filled in place and truncated after the sweep, so an accurate
    estimate removes the pool's incremental growth reallocations.
    Results are identical with or without the hint.
    """
    if counters is None:
        counters = NULL_COUNTERS
    counters.topk_computations += 1
    counters.approx_refreshes += 1

    candidates: List[BufferEntry] = []
    pool: List[BufferEntry] = []
    pool_used = 0
    if expected_points is not None and expected_points > 0:
        pool = [(0.0, -1, None)] * int(expected_points)

    order = SweepOrder(grid, function)
    position = 0
    while order.reaches(position):
        if len(candidates) >= k:
            stop_gate, pool_gate = certificate(candidates[0][0], epsilon)
            # Relaxed termination: cells inside the (s_k, g] band are
            # skipped — the certificate pays for them.
            if order.keys[position] < stop_gate:
                break
        else:
            pool_gate = float("-inf")
        cell = grid.peek_cell(order.coords[position])
        position += 1
        counters.cells_processed += 1

        if cell is not None and cell.points:
            records, scores = cell.scored_columns(function)
            counters.points_scored += len(records)
            if len(candidates) >= k:
                # One vector prefilter against the *running* floor: a
                # record below the current floor can never reach the
                # final one (the kth score only rises).
                survivors, values = batch.take_at_least(scores, pool_gate)
            else:
                survivors = range(len(records))
                values = batch.to_list(scores)
            for index, value in zip(survivors, values):
                record = records[index]
                entry = (value, record.rid, record)
                if pool_used < len(pool):
                    pool[pool_used] = entry
                else:
                    pool.append(entry)
                pool_used += 1
                if len(candidates) < k:
                    heapq.heappush(candidates, entry)
                elif entry[:2] > candidates[0][:2]:
                    heapq.heapreplace(candidates, entry)

    counters.cells_enheaped += order.enheaped_by(position)
    del pool[pool_used:]  # drop unfilled pre-sized slots

    if len(candidates) >= k:
        kth_score = candidates[0][0]
        g, floor = certificate(kth_score, epsilon)
        buffer = sorted(
            (entry for entry in pool if entry[0] >= floor),
            key=lambda item: item[:2],
        )
        bound = certified_bound(kth_score, g)
    else:
        # Underfull: keep everything, certify nothing (exact answer).
        g = floor = float("-inf")
        buffer = sorted(pool, key=lambda item: item[:2])
        bound = 0.0

    entries = [
        ResultEntry(score, record)
        for score, _, record in sorted(
            candidates, key=lambda item: item[:2], reverse=True
        )
    ]
    return ApproxOutcome(
        entries=entries,
        buffer=buffer,
        g=g,
        floor=floor,
        bound=bound,
        pooled=pool_used,
    )
