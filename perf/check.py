"""Correctness gate: a reference top-k and a replay of every delta.

After a timed run each live query is checked twice. Its final pulled
result must equal — bitwise, ``(score, rid)`` for ``(score, rid)`` —
the top-k this module computes over the last N rows of the stream.
And the result rebuilt by applying, in order, every ``ResultChange``
the subscriber received must equal that pulled result too, so a delta
that was lost, duplicated or reordered on any delivery path shows as a
failure and not as a fast run.

The reference ranks the window with its own arithmetic (the same
multiply-adds in the same order as a linear preference function, so
IEEE-754 gives the same doubles) and then confirms every entry of the
expected top-k against the query's public ``function.score``.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Sequence, Tuple

from perf.generator import Inputs

#: one result entry as compared: (score, rid), best first.
Ranked = List[Tuple[float, int]]


def ranked(entries: Iterable) -> Ranked:
    """A library result (``ResultEntry`` list) in comparable form."""
    return [(entry.score, entry.record.rid) for entry in entries]


class Reference:
    """Brute-force top-k over the window ``[total - n, total)``."""

    def __init__(self, inputs: Inputs, total_rows: int, n: int) -> None:
        self._inputs = inputs
        self._rids = range(max(0, total_rows - n), total_rows)
        self._columns = list(
            zip(*(inputs.attrs_of(rid) for rid in self._rids))
        )

    def top_k(self, weights: Sequence[float], k: int, function=None) -> Ranked:
        """Expected result of a linear query, best first. ``function``
        (the query's own preference function, when the caller holds
        it) must score the chosen rows to the same bits."""
        w0, w1, w2, w3 = weights
        xs, ys, zs, us = self._columns
        scores = [
            w0 * x + w1 * y + w2 * z + w3 * u
            for x, y, z, u in zip(xs, ys, zs, us)
        ]
        best = heapq.nlargest(k, zip(scores, self._rids))
        if function is not None:
            for score, rid in best:
                if function.score(self._inputs.attrs_of(rid)) != score:
                    raise AssertionError(
                        f"reference arithmetic disagrees with "
                        f"function.score on record {rid}"
                    )
        return best


class Replay:
    """Per-query result state rebuilt from received deltas only."""

    def __init__(self) -> None:
        self._state: Dict[int, Dict[int, float]] = {}
        #: cancelled queries whose final delta did not clear them.
        self.unclean_cancels = 0

    def apply(self, change) -> None:
        state = self._state.setdefault(change.qid, {})
        for entry in change.removed:
            state.pop(entry.record.rid, None)
        for entry in change.added:
            state[entry.record.rid] = entry.score
        if change.cause == "cancel":
            if state:
                self.unclean_cancels += 1
            del self._state[change.qid]

    def result_of(self, qid: int) -> Ranked:
        state = self._state.get(qid, {})
        return sorted(
            ((score, rid) for rid, score in state.items()), reverse=True
        )


def count_mismatches(
    reference: Reference,
    replay: Replay,
    queries: Iterable[Tuple[int, Sequence[float], int, object, Ranked]],
) -> Tuple[int, int, List[str]]:
    """Check ``(qid, weights, k, function, pulled)`` tuples.

    Returns ``(checked, failed, notes)``; a query fails when its
    pulled result differs from the reference or from its replay.
    """
    checked = failed = 0
    notes: List[str] = []
    for qid, weights, k, function, pulled in queries:
        checked += 1
        expected = reference.top_k(weights, k, function)
        replayed = replay.result_of(qid)
        if pulled != expected or replayed != pulled:
            failed += 1
            if len(notes) < 5:
                what = "reference" if pulled != expected else "replay"
                notes.append(f"query {qid}: pulled result != {what}")
    return checked, failed, notes
