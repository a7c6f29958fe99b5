"""Brute-force re-evaluation — correctness oracle and naive baseline.

Keeps the valid records in a dict and recomputes every query's top-k
from scratch each cycle with a single ``heapq.nlargest``-style pass.
O(Q · N) per cycle — never competitive, but (i) it is the ground truth
the integration tests compare TMA/SMA/TSL against, and (ii) it bounds
from below how much the smarter algorithms must win by to matter.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List

from repro.algorithms.base import MonitorAlgorithm
from repro.algorithms.topk_computation import query_region
from repro.core.queries import TopKQuery
from repro.core.results import ResultEntry
from repro.core.tuples import StreamRecord
from repro.core.window import Slots


class BruteForceAlgorithm(MonitorAlgorithm):
    """Per-cycle full re-evaluation of every registered query."""

    name = "brute"

    def __init__(self, dims: int) -> None:
        super().__init__(dims)
        self._valid: Dict[int, StreamRecord] = {}
        self._queries: Dict[int, TopKQuery] = {}
        self._results: Dict[int, List[ResultEntry]] = {}

    def register(self, query: TopKQuery) -> List[ResultEntry]:
        if not isinstance(query, TopKQuery):
            return self._register_threshold(query)
        self._queries[query.qid] = query
        self._results[query.qid] = self._evaluate(query)
        return list(self._results[query.qid])

    def unregister(self, qid: int) -> None:
        if qid in self._threshold_states:
            self._unregister_threshold(qid)
            return
        if self._queries.pop(qid, None) is None:
            raise self._unknown_query(qid)
        self._results.pop(qid, None)

    def current_result(self, qid: int) -> List[ResultEntry]:
        if qid not in self._results:
            if qid in self._threshold_states:
                return self._threshold_result(qid)
            raise self._unknown_query(qid)
        return list(self._results[qid])

    def queries(self) -> Iterable[TopKQuery]:
        return list(self._queries.values()) + self._threshold_queries()

    def _valid_records(self) -> Iterable[StreamRecord]:
        return self._valid.values()

    def _apply_cycle(self, arrivals: Slots, expirations: Slots) -> None:
        store = self.store
        for record in store.records(arrivals):
            self._valid[record.rid] = record
        rids = store.rids
        for slot in expirations:
            self._valid.pop(rids[slot], None)
        for qid, query in self._queries.items():
            self._touch(qid)
            self._results[qid] = self._evaluate(query)

    def _evaluate(self, query: TopKQuery) -> List[ResultEntry]:
        region = query_region(query)
        scored = []
        for record in self._valid.values():
            if region is not None and not region.contains(record.attrs):
                continue
            self.counters.points_scored += 1
            scored.append((query.score(record.attrs), record.rid, record))
        best = heapq.nlargest(query.k, scored, key=lambda item: item[:2])
        return [ResultEntry(score, record) for score, _, record in best]

    def valid_records(self) -> List[StreamRecord]:
        """Snapshot of the currently valid records (test helper)."""
        return list(self._valid.values())
