"""Query handles: the object-capability face of a registered query.

:meth:`~repro.core.engine.StreamMonitor.add_query` returns a
:class:`QueryHandle` that owns the query's full lifecycle::

    handle = monitor.add_query(TopKQuery(f, k=10))
    handle.subscribe(lambda change: print(change.added))
    handle.pause();  handle.resume()
    handle.update(k=20)                  # in-flight, no re-registration
    top = handle.result()
    handle.cancel()

Backwards compatibility: a handle is **int-like** — it hashes and
compares equal to its ``qid``, works as a dict key into
``report.changes``, and is accepted everywhere the engine takes a qid
(``monitor.result(handle)`` etc.). Code written against the original
qid-based API keeps working unchanged when ``add_query`` starts
returning handles; see ``docs/API.md`` for the migration guide.

The handle holds no query state of its own: every operation delegates
to the monitor, so behaviour is identical for in-process and sharded
execution, and a handle observed from the monitor's side (``cancel``
via ``monitor.remove_query``, ``monitor.close()``) transitions state
exactly as if the handle's own method had been called.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.core.results import ResultChange, ResultEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import StreamMonitor
    from repro.core.subscriptions import ChangeStream, Subscription

#: handle lifecycle states (monitor-owned; the handle only mirrors).
ACTIVE = "active"
PAUSED = "paused"
CANCELLED = "cancelled"
CLOSED = "closed"


class QueryHandle:
    """Live reference to one registered query (int-like, see module)."""

    __slots__ = ("_monitor", "_qid", "query", "_state")

    def __init__(self, monitor: "StreamMonitor", query) -> None:
        self._monitor = monitor
        self._qid = int(query.qid)
        #: the query specification (shared with the monitor; mutate
        #: only through :meth:`update`).
        self.query = query
        self._state = ACTIVE

    # ------------------------------------------------------------------
    # Identity: behave as the qid
    # ------------------------------------------------------------------

    @property
    def qid(self) -> int:
        return self._qid

    def __int__(self) -> int:
        return self._qid

    def __index__(self) -> int:
        return self._qid

    def __hash__(self) -> int:
        return hash(self._qid)

    def __eq__(self, other) -> bool:
        if isinstance(other, QueryHandle):
            return self._qid == other._qid
        if isinstance(other, int):
            return self._qid == other
        return NotImplemented

    def __lt__(self, other) -> bool:
        if isinstance(other, QueryHandle):
            return self._qid < other._qid
        if isinstance(other, int):
            return self._qid < other
        return NotImplemented

    def __repr__(self) -> str:
        label = getattr(self.query, "label", "") or f"q{self._qid}"
        return f"QueryHandle({label}, qid={self._qid}, {self._state})"

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        """``"active"``, ``"paused"``, ``"cancelled"`` or ``"closed"``."""
        return self._state

    @property
    def active(self) -> bool:
        return self._state == ACTIVE

    @property
    def paused(self) -> bool:
        return self._state == PAUSED

    @property
    def cancelled(self) -> bool:
        return self._state == CANCELLED

    @property
    def closed(self) -> bool:
        return self._state == CLOSED

    @property
    def monitor(self) -> "StreamMonitor":
        """The monitor this handle belongs to."""
        return self._monitor

    @property
    def accuracy(self):
        """The query's (ε,δ) :class:`~repro.core.queries.Accuracy`
        contract, or ``None``. Either way the query is maintained
        exactly; a contract makes its cycle changes certify
        ``bound=0.0``."""
        return getattr(self.query, "accuracy", None)

    # ------------------------------------------------------------------
    # Lifecycle operations (all delegate to the monitor)
    # ------------------------------------------------------------------

    def result(self) -> List[ResultEntry]:
        """Current result, best-first (frozen snapshot while paused)."""
        return self._monitor.result(self._qid)

    def cancel(self) -> None:
        """Terminate the query and scrub its state everywhere.

        Subscribers receive a final ``cause="cancel"`` delta clearing
        the result; further handle operations raise
        :class:`~repro.core.errors.QueryError`.
        """
        self._monitor.remove_query(self._qid)

    def pause(self) -> None:
        """Freeze the query: maintenance is *skipped* while paused.

        The result observed through :meth:`result` stays the snapshot
        taken at pause time; no deltas are delivered until
        :meth:`resume` re-syncs exactly against the then-current
        window.
        """
        self._monitor.pause_query(self._qid)

    def resume(self) -> None:
        """Re-activate a paused query with an exact re-sync.

        The result is recomputed from the current window state (no
        stream replay) and one ``cause="resume"`` delta bridges the
        frozen snapshot to the fresh result.
        """
        self._monitor.resume_query(self._qid)

    def update(
        self,
        k: Optional[int] = None,
        weights: Optional[Sequence[float]] = None,
        function=None,
    ) -> List[ResultEntry]:
        """Mutate the running query in flight and return the new result.

        ``k`` and/or the preference (``weights`` builds a
        :class:`~repro.core.scoring.LinearFunction`; ``function``
        passes any monotone preference function) change *in place*:
        the algorithm reuses its window/grid state to recompute —
        never a full stream replay — and the result is identical to
        cancelling and re-registering the modified query. Subscribers
        receive one ``cause="update"`` delta.
        """
        return self._monitor.update_query(
            self._qid, k=k, weights=weights, function=function
        )

    # ------------------------------------------------------------------
    # Push delivery
    # ------------------------------------------------------------------

    def subscribe(
        self, callback: Callable[[ResultChange], None]
    ) -> "Subscription":
        """Call ``callback(change)`` on every future delta of this
        query (cycle maintenance, update, resume, and the final
        cancel)."""
        return self._monitor.subscribe(self._qid, callback)

    def changes(
        self, maxlen: Optional[int] = None, block: bool = False
    ) -> "ChangeStream":
        """A buffered iterator of this query's future deltas (see
        :class:`~repro.core.subscriptions.ChangeStream`).

        ``maxlen`` bounds the buffer (oldest delta dropped and counted
        on overflow); ``block=True`` makes iteration wait for deltas
        and terminate cleanly when the query or monitor goes away.
        """
        return self._monitor.changes(self._qid, maxlen=maxlen, block=block)
