"""Result representation and change reports.

Each processing cycle ends with "report changes to the client" (paper
Figures 9 and 11, last line). A change report per query carries the
records that entered and left the top-k set plus the full current
result, best-first in the canonical rank order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.errors import ProtocolError
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
    rescored: bool = False,
) -> ResultChange:
    """Compute the change report between two result snapshots.

    A record's score is fixed while its query's function is, so
    entries match by rid. Pass ``rescored=True`` when the function may
    have changed in between (an update, a resume, a merge spanning
    them): entries then match by ``(score, rid)``, and one whose score
    moved leaves with its old score and enters with its new one — so
    replaying ``removed`` then ``added`` still lands on ``new``.
    """
    if rescored:
        old_keys = {(entry[0], entry[1].rid) for entry in old}
        new_keys = {(entry[0], entry[1].rid) for entry in new}
        added = [e for e in new if (e[0], e[1].rid) not in old_keys]
        removed = [e for e in old if (e[0], e[1].rid) not in new_keys]
        return ResultChange(
            qid,
            entries_best_first(added),
            entries_best_first(removed),
            list(new),
            cause,
            bound,
        )
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


def insert_best_first(top: List[ResultEntry], entry: ResultEntry) -> None:
    """Bisect ``entry`` into ``top``, best-first by ``(score, rid)``."""
    score, rid = entry[0], entry[1].rid
    low, high = 0, len(top)
    while low < high:
        middle = (low + high) // 2
        probe = top[middle]
        if probe[0] > score or (probe[0] == score and probe[1].rid > rid):
            low = middle + 1
        else:
            high = middle
    top.insert(low, entry)


def rebuild_change(
    qid: int,
    held: Sequence[ResultEntry],
    added: List[ResultEntry],
    removed_rids: Iterable[int],
    cause: str = "cycle",
    bound: Optional[float] = None,
) -> ResultChange:
    """A change sent as a delta → the full :class:`ResultChange`.

    ``held`` is the receiver's best-first result before the change;
    ``added`` carries the entries that entered, ``removed_rids`` the
    ids of those that left. The removed entries come out of ``held``
    and ``top`` is ``held`` minus them with the added ones bisected in
    — a linear merge, no re-sort. Both wires that ship deltas rebuild
    here: the shard coordinator
    (:func:`repro.parallel.sharded.resolve_changes`) and the service
    client (:func:`repro.service.protocol.change_from_wire`).

    Reads only. A delta ``held`` cannot apply — an added record it
    already holds or that repeats, added entries out of best-first
    order, a removed id it does not hold — is a
    :class:`~repro.core.errors.ProtocolError`, never a wrong ``top``.
    """
    fresh = [entry[1].rid for entry in added]
    kept = {entry[1].rid: entry for entry in held}
    if not kept.keys().isdisjoint(fresh) or len(set(fresh)) < len(fresh):
        raise ProtocolError(f"change of query {qid} repeats a record id")
    ranks = [(entry[0], rid) for entry, rid in zip(added, fresh)]
    if any(better <= worse for better, worse in zip(ranks, ranks[1:])):
        raise ProtocolError(
            f"change of query {qid} lists added entries out of "
            "best-first order"
        )
    try:
        removed = [kept.pop(rid) for rid in removed_rids]
    except KeyError as exc:
        raise ProtocolError(
            f"change of query {qid} removes record id {exc.args[0]}, "
            "which its result does not hold"
        ) from None
    top = list(kept.values())
    for entry in added:
        insert_best_first(top, entry)
    return ResultChange(qid, added, removed, top, cause, bound)


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
        # The span may hold an update or a resume.
        rescored=True,
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
