"""Query specifications and the query table QT.

The paper's query table (Section 4.1) stores per query: a unique id,
the scoring function, the requested result cardinality k, and the
current result. The *result state* (top list / skyband / materialized
view) belongs to the monitoring algorithm, so here a query is the pure
specification; algorithms attach their state keyed by ``qid``.

Three query species from the paper:

- :class:`TopKQuery` — the primary contribution (Sections 4–5);
- :class:`ConstrainedTopKQuery` — top-k restricted to a rectangular
  constraint region (Section 7, Figure 12);
- :class:`ThresholdQuery` — monitor all points with score above a
  user threshold (Section 7).

:class:`QueryGroupRegistry` clusters registered linear top-k queries
by preference-vector similarity so the grouped traversal
(:func:`repro.grid.traversal.compute_top_k_group`) can serve a whole
cluster in one grid sweep; see its docstring for the grouping
heuristic and the exactness guarantees the consumers rely on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import QueryError
from repro.core.regions import Rectangle
from repro.core.scoring import LinearFunction, PreferenceFunction


def check_k(k) -> None:
    """Refuse a result cardinality that is not an integer >= 1.

    ``bool`` is refused although it subclasses ``int``: ``k=True`` is
    a mistake, not a request for one result.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise QueryError(f"k must be an integer >= 1, got {k!r}")


@dataclass(frozen=True, slots=True)
class Accuracy:
    """An (ε,δ) accuracy contract on a top-k query.

    A contract is met when ``exact_kth <= reported_kth * (1 + bound)``
    with ``bound <= epsilon``, except with probability at most
    ``delta``. Every algorithm maintains contracted queries exactly,
    so each is met with a certified ``bound`` of 0: their cycle
    changes carry ``bound=0.0`` (:class:`~repro.core.results.ResultChange`).

    Args:
        epsilon: maximum relative kth-score error of any report (> 0).
        delta: probability budget for exceeding ``epsilon``, in [0, 1).
    """

    epsilon: float
    delta: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon:
            raise ValueError(
                f"accuracy epsilon must be positive: {self.epsilon}"
            )
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(
                f"accuracy delta must be in [0, 1): {self.delta}"
            )


@dataclass(eq=False)
class TopKQuery:
    """Continuous top-k query specification.

    Attributes:
        function: per-dimension monotone preference function.
        k: number of results to maintain, an ``int`` >= 1.
        label: optional human-readable name for reports.
        qid: assigned by :class:`QueryTable` at registration; -1 before.
        accuracy: optional (ε,δ) :class:`Accuracy` contract; the
            query is maintained exactly either way, and a contracted
            query's cycle changes certify ``bound=0.0``.
    """

    function: PreferenceFunction
    k: int
    label: str = ""
    qid: int = -1
    accuracy: Optional[Accuracy] = None

    def __post_init__(self) -> None:
        check_k(self.k)

    @property
    def dims(self) -> int:
        return self.function.dims

    def score(self, attrs) -> float:
        return self.function.score(attrs)

    def __repr__(self) -> str:
        name = self.label or f"q{self.qid}"
        return f"TopKQuery({name}, k={self.k}, f={self.function!r})"


@dataclass(eq=False)
class ConstrainedTopKQuery(TopKQuery):
    """Top-k over points inside a rectangular constraint region."""

    constraint: Rectangle = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.constraint is None:
            raise QueryError("constrained query requires a constraint region")
        if self.constraint.dims != self.function.dims:
            raise QueryError(
                f"constraint has {self.constraint.dims} dims, function "
                f"{self.function.dims}"
            )

    def admits(self, attrs) -> bool:
        return self.constraint.contains(attrs)

    def __repr__(self) -> str:
        name = self.label or f"q{self.qid}"
        return (
            f"ConstrainedTopKQuery({name}, k={self.k}, f={self.function!r}, "
            f"R={self.constraint.lower}..{self.constraint.upper})"
        )


@dataclass(eq=False)
class ThresholdQuery:
    """Monitor every valid point whose score exceeds ``threshold``."""

    function: PreferenceFunction
    threshold: float
    label: str = ""
    qid: int = -1

    def __post_init__(self) -> None:
        threshold = self.threshold
        try:
            finite = not isinstance(threshold, bool) and math.isfinite(
                threshold
            )
        except (TypeError, OverflowError):  # text, or an int past floats
            finite = False
        if not finite:
            raise QueryError(
                f"threshold must be a finite number, got {threshold!r}"
            )

    @property
    def dims(self) -> int:
        return self.function.dims

    def score(self, attrs) -> float:
        return self.function.score(attrs)

    def __repr__(self) -> str:
        name = self.label or f"q{self.qid}"
        return f"ThresholdQuery({name}, t={self.threshold:g}, f={self.function!r})"


#: bucket identity of a groupable query: monotonicity directions plus
#: the angularly quantized unit preference vector.
GroupKey = Tuple[Tuple[int, ...], Tuple[int, ...]]


class QueryGroupRegistry:
    """Clusters linear top-k queries by preference-vector similarity.

    Queries whose preference vectors point in nearly the same direction
    visit nearly the same grid cells in nearly the same order, so the
    grouped traversal can serve them all in one sweep (the
    publish/subscribe trick of grouping similar subscriptions). The
    registry assigns each *groupable* query a bucket key:

    - the per-dimension monotonicity ``directions`` (queries in one
      group must share the traversal's start corner and step relation),
    - the weight vector normalized to unit length and quantized to
      ``resolution`` steps per component (angular buckets — scaling a
      preference function does not change its top-k, and the bucket
      width shrinks as ``resolution`` grows).

    Only plain :class:`TopKQuery` instances over a
    :class:`~repro.core.scoring.LinearFunction` are groupable:
    constrained queries clip cells per region and non-linear families
    lack the exact per-cell maxscore tables the shared sweep prices
    cells with. Everything else always forms a singleton group, so a
    caller can route *all* its queries through :meth:`partition`.

    Grouping is a pure performance heuristic — the grouped traversal
    returns bitwise-identical results for any group whose members share
    ``directions``, so a "wrong" bucket can cost time, never
    correctness. Membership is maintained incrementally: :meth:`add` /
    :meth:`discard` on every query churn keep the key map current, and
    :meth:`partition` reads it directly.
    """

    __slots__ = ("resolution", "max_group_size", "_keys")

    def __init__(self, resolution: int = 4, max_group_size: int = 64) -> None:
        if resolution < 1:
            raise QueryError(f"resolution must be >= 1, got {resolution}")
        if max_group_size < 1:
            raise QueryError(
                f"max_group_size must be >= 1, got {max_group_size}"
            )
        self.resolution = resolution
        self.max_group_size = max_group_size
        self._keys: Dict[int, GroupKey] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, qid: int) -> bool:
        return qid in self._keys

    @staticmethod
    def groupable(query) -> bool:
        """Whether ``query`` may share a traversal with similar peers."""
        return (
            type(query) is TopKQuery
            and type(query.function) is LinearFunction
        )

    def key_of(self, query) -> Optional[GroupKey]:
        """Bucket key of ``query``; None when it is not groupable."""
        if not self.groupable(query):
            return None
        weights = query.function.weights
        norm = math.sqrt(sum(weight * weight for weight in weights))
        if norm == 0.0:
            return None  # degenerate all-zero preference: keep solo
        quantized = tuple(
            round(weight / norm * self.resolution) for weight in weights
        )
        return (query.function.directions, quantized)

    def add(self, query) -> None:
        """Record a registered query (no-op when not groupable)."""
        key = self.key_of(query)
        if key is not None:
            self._keys[query.qid] = key

    def discard(self, qid: int) -> None:
        """Forget a terminated query (no-op when never recorded)."""
        self._keys.pop(qid, None)

    def groups(self) -> List[List[int]]:
        """Current full clustering as qid lists. Introspection/testing
        helper — cycle code uses :meth:`partition` on just the queries
        it must recompute."""
        buckets: Dict[GroupKey, List[int]] = {}
        for qid, key in self._keys.items():
            buckets.setdefault(key, []).append(qid)
        return list(buckets.values())

    def partition(self, queries: Sequence) -> List[List]:
        """Split ``queries`` into traversal groups.

        Queries sharing a bucket key group together (capped at
        ``max_group_size`` per group); unknown or ungroupable queries
        come back as singletons. Order is deterministic: groups appear
        in first-member order, members keep the caller's order — so a
        caller iterating a stable query set gets stable groups.
        """
        clustered: Dict[GroupKey, List] = {}
        ordered: List[List] = []
        for query in queries:
            key = self._keys.get(query.qid)
            if key is None:
                ordered.append([query])
                continue
            members = clustered.get(key)
            if members is None:
                members = clustered[key] = [query]
                ordered.append(members)
            else:
                members.append(query)
        limit = self.max_group_size
        out: List[List] = []
        for members in ordered:
            for start in range(0, len(members), limit):
                out.append(members[start:start + limit])
        return out


class QueryTable:
    """Registry of running queries keyed by qid (the paper's QT)."""

    def __init__(self) -> None:
        self._queries: Dict[int, object] = {}
        self._ids = itertools.count()

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[object]:
        return iter(self._queries.values())

    def __contains__(self, qid: int) -> bool:
        return qid in self._queries

    def register(self, query) -> int:
        """Assign a fresh qid and store the query; return the qid."""
        if query.qid != -1 and query.qid in self._queries:
            raise QueryError(f"query already registered with qid {query.qid}")
        qid = next(self._ids)
        query.qid = qid
        self._queries[qid] = query
        return qid

    def unregister(self, qid: int):
        """Remove and return the query with ``qid``."""
        try:
            return self._queries.pop(qid)
        except KeyError:
            raise QueryError(f"unknown query id {qid}") from None

    def get(self, qid: int):
        try:
            return self._queries[qid]
        except KeyError:
            raise QueryError(f"unknown query id {qid}") from None
