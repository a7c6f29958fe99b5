"""Result representation and change reports.

Each processing cycle ends with "report changes to the client" (paper
Figures 9 and 11, last line). A change report per query carries the
records that entered and left the top-k set plus the full current
result, best-first in the canonical rank order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.tuples import StreamRecord


class ResultEntry(NamedTuple):
    """A scored record; sorts naturally in rank order via (score, rid)."""

    score: float
    record: StreamRecord

    @property
    def rid(self) -> int:
        return self.record.rid

    @property
    def key(self) -> Tuple[float, int]:
        return (self.score, self.record.rid)


def entries_best_first(entries: Sequence[ResultEntry]) -> List[ResultEntry]:
    """Sort entries into canonical best-first order."""
    return sorted(entries, key=lambda entry: entry.key, reverse=True)


@dataclass(slots=True)
class ResultChange:
    """Delta of one query's result over one processing cycle.

    ``cause`` tells push consumers *why* the result moved: ``"cycle"``
    for ordinary stream maintenance (the paper's per-cycle report),
    ``"register"`` for the initial result delivered at registration,
    ``"update"`` after an in-flight :meth:`~repro.core.handles.QueryHandle.update`,
    ``"resume"`` for the re-sync delta after a pause, ``"cancel"``
    for the final clear-out when a query terminates, ``"resync"``
    for a backlog collapsed by a ``coalesce``-policy delivery
    (:func:`merge_changes`). Replaying the ``added``/``removed`` sequence of *every* cause
    reconstructs the pull API's result exactly (see
    ``tests/integration/test_subscription_parity.py``).

    ``bound`` is the certified relative error of this report
    (``exact_kth_score <= reported_kth_score * (1 + bound)``) for a
    query registered with an :class:`~repro.core.queries.Accuracy`
    contract: ``0.0`` on its cycle changes, since every algorithm is
    exact. Uncontracted queries, and other causes, carry ``None``.
    """

    qid: int
    added: List[ResultEntry] = field(default_factory=list)
    removed: List[ResultEntry] = field(default_factory=list)
    top: List[ResultEntry] = field(default_factory=list)
    cause: str = "cycle"
    bound: Optional[float] = None

    @property
    def changed(self) -> bool:
        return bool(self.added or self.removed)

    def top_ids(self) -> List[int]:
        return [entry.rid for entry in self.top]


def diff_results(
    qid: int,
    old: Sequence[ResultEntry],
    new: Sequence[ResultEntry],
    cause: str = "cycle",
    bound: Optional[float] = None,
) -> ResultChange:
    """Compute the change report between two result snapshots."""
    # ``entry[1].rid``, not the ``rid`` property: 4·k reads per touched
    # query, hundreds of touched queries in a refill burst.
    old_ids = {entry[1].rid for entry in old}
    new_ids = {entry[1].rid for entry in new}
    added = [entry for entry in new if entry[1].rid not in old_ids]
    removed = [entry for entry in old if entry[1].rid not in new_ids]
    return ResultChange(
        qid=qid,
        added=entries_best_first(added) if len(added) > 1 else added,
        removed=entries_best_first(removed) if len(removed) > 1 else removed,
        top=list(new),
        cause=cause,
        bound=bound,
    )


def merge_changes(
    older: ResultChange, newer: ResultChange
) -> ResultChange:
    """Collapse two consecutive deltas of one query into a single
    equivalent ``cause="resync"`` delta.

    Replaying the merged delta on any state that would have accepted
    ``older`` produces exactly the state after ``newer`` — the
    invariant that lets a ``coalesce``-policy delivery shrink an
    arbitrary backlog to one delta per query without breaking the
    replay-parity contract. The pre-``older`` state is reconstructed
    by inverting ``older`` against its own ``top``, then diffed
    against ``newer.top``.

    A terminal ``newer`` keeps its ``"cancel"`` cause: the merged
    delta is still the query's final clear-out, and consumers (the
    serving runtime included) key their teardown on seeing it.
    """
    if older.qid != newer.qid:
        raise ValueError(
            f"cannot merge deltas of different queries: "
            f"{older.qid} != {newer.qid}"
        )
    before = {entry.rid: entry for entry in older.top}
    for entry in older.added:
        before.pop(entry.rid, None)
    for entry in older.removed:
        before[entry.rid] = entry
    return diff_results(
        older.qid,
        entries_best_first(list(before.values())),
        newer.top,
        cause="cancel" if newer.cause == "cancel" else "resync",
        # The merged delta lands the consumer on ``newer.top``, so the
        # newest certificate is the one that describes it.
        bound=newer.bound,
    )


@dataclass(slots=True)
class CycleReport:
    """Everything one call to the engine's ``process`` produced.

    ``arrivals`` counts the records that actually entered the window;
    records submitted already expired (possible under a time-based
    window when a batch spans more than the window duration) are
    dropped by the engine before the algorithm sees them and reported
    in ``dead_on_arrival`` instead.
    """

    timestamp: float
    arrivals: int
    expirations: int
    changes: Dict[int, ResultChange] = field(default_factory=dict)
    cpu_seconds: float = 0.0
    dead_on_arrival: int = 0

    def changed_queries(self) -> List[int]:
        return [qid for qid, change in self.changes.items() if change.changed]

    def result_of(self, qid: int) -> List[ResultEntry]:
        return self.changes[qid].top
