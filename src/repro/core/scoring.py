"""Monotone preference functions and rectangle score bounds.

The framework supports any scoring function that is *monotone per
dimension* (paper Section 3): increasingly monotone on some axes and
decreasingly monotone on the others. Monotonicity is what makes a grid
cell's ``maxscore`` — the score of its preference-optimal corner — an
upper bound for every point inside, which in turn is what lets the
top-k computation module stop after visiting only the cells that
intersect a query's influence region.

Three concrete families cover everything the paper evaluates:

- :class:`LinearFunction` — ``f(p) = Σ aᵢ·p.xᵢ`` (Section 8 default;
  negative weights give decreasing monotonicity as in Figure 7(a));
- :class:`ProductFunction` — ``f(p) = Π (aᵢ + p.xᵢ)`` (Figure 21(a,b));
- :class:`QuadraticFunction` — ``f(p) = Σ aᵢ·p.xᵢ²`` (Figure 21(c,d)).

:class:`CallableFunction` wraps an arbitrary user function together
with its declared monotonicity directions; :func:`check_monotone`
probe-tests a declared function and raises
:class:`~repro.core.errors.NonMonotoneFunctionError` on violations, as
a guard for user-supplied callables.
"""

from __future__ import annotations

import abc
import itertools
import math
from typing import Callable, Sequence, Tuple

from repro.core import batch
from repro.core.errors import (
    DimensionalityError,
    NonMonotoneFunctionError,
    QueryError,
)

#: Direction of monotonicity per dimension: +1 increasing, -1 decreasing.
Directions = Tuple[int, ...]


class PreferenceFunction(abc.ABC):
    """A per-dimension monotone scoring function.

    Attributes:
        dims: number of attributes scored.
        directions: per-dimension monotonicity, ``+1`` if larger
            attribute values increase the score, ``-1`` if they
            decrease it.
    """

    __slots__ = ("dims", "directions")

    def __init__(self, dims: int, directions: Sequence[int]) -> None:
        if dims <= 0:
            raise DimensionalityError(f"dims must be positive, got {dims}")
        if len(directions) != dims:
            raise DimensionalityError(
                f"{len(directions)} directions for {dims} dimensions"
            )
        if any(direction not in (-1, 1) for direction in directions):
            raise NonMonotoneFunctionError(
                "directions must be +1 (increasing) or -1 (decreasing); "
                f"got {tuple(directions)}"
            )
        self.dims = dims
        self.directions: Directions = tuple(directions)

    @abc.abstractmethod
    def score(self, attrs: Sequence[float]) -> float:
        """Score a point given its attribute vector."""

    def score_batch(self, matrix) -> Sequence[float]:
        """Score a block of attribute vectors in one call.

        ``matrix`` is whatever :func:`repro.core.batch.as_matrix`
        produced: a ``(n, d)`` float64 array under the NumPy backend,
        or a list of attribute tuples under the fallback. Returns a
        same-length score vector (array or list respectively).

        **Exactness contract**: for every row, the batched result is
        the value :meth:`score` returns for that row — computed with
        the same floating-point operations in the same order, so ties
        under the canonical ``(score, rid)`` rank order are preserved
        bit-for-bit (vectorization must never desynchronise an
        algorithm from the brute-force oracle). Subclasses overriding
        the NumPy path must keep per-row evaluation order identical to
        their scalar ``score``; this default simply delegates row by
        row and is always exact. It hands :meth:`score` Python floats
        and returns built-in floats, whatever a user callable returns.
        """
        if batch.is_matrix(matrix):
            matrix = matrix.tolist()
        return [float(self.score(row)) for row in matrix]

    def best_corner(
        self, lower: Sequence[float], upper: Sequence[float]
    ) -> Tuple[float, ...]:
        """Preference-optimal corner of the box ``[lower, upper]``.

        Picks the upper bound on increasing dimensions and the lower
        bound on decreasing ones — the corner that dominates every
        point in the box (Section 3.1: "all records falling in a
        rectangle R are dominated by its top-right corner").
        """
        return tuple(
            upper[i] if self.directions[i] > 0 else lower[i]
            for i in range(self.dims)
        )

    def worst_corner(
        self, lower: Sequence[float], upper: Sequence[float]
    ) -> Tuple[float, ...]:
        """Preference-pessimal corner (lower bound for points inside)."""
        return tuple(
            lower[i] if self.directions[i] > 0 else upper[i]
            for i in range(self.dims)
        )

    def maxscore(
        self, lower: Sequence[float], upper: Sequence[float]
    ) -> float:
        """Upper bound of the score of any point in ``[lower, upper]``."""
        return self.score(self.best_corner(lower, upper))

    def minscore(
        self, lower: Sequence[float], upper: Sequence[float]
    ) -> float:
        """Lower bound of the score of any point in ``[lower, upper]``."""
        return self.score(self.worst_corner(lower, upper))

    def describe(self) -> str:
        """Human-readable formula (used by examples and reports)."""
        return repr(self)


def linear_scores(matrix, weights):
    """``Σ matrix[:, i]·weights[i]`` over a NumPy block, one column at a time.

    The one vector form of :meth:`LinearFunction.score`. ``weights[i]``
    is a scalar (one function over the block), or an array that
    broadcasts against column ``i``: one weight per row (each row its
    own function — the arrival gate's (arrival, query) pairs), or a
    ``(Q,)`` vector against an ``(n, d, 1)`` view of the block (an
    ``(n, Q)`` result — the grouped traversal).

    Exactness contract: each elementwise multiply and add rounds
    exactly like the scalar loop's, in its order (a single matmul would
    sum in a different order and could flip last-bit ties), and the
    sum starts from ``0.0`` as the scalar's does, so an all-``-0.0``
    row of products yields ``+0.0`` — every element is bit for bit the
    scalar ``score``.
    """
    out = matrix[:, 0] * weights[0]
    out += 0.0
    for dim in range(1, len(weights)):
        out += matrix[:, dim] * weights[dim]
    return out


def _finite(values: Sequence[float], what: str) -> Tuple[float, ...]:
    """``values`` as a tuple; :class:`QueryError` if any is NaN,
    infinite or not a number (a NaN weight would make every cell bound
    NaN, so every region empty and every result silently ``[]``)."""
    values = tuple(values)
    if any(type(value) is bool for value in values):
        raise QueryError(f"{what} must be numbers, not booleans: {values!r}")
    try:
        finite = all(map(math.isfinite, values))
    except (TypeError, OverflowError):  # text, or an int past float range
        finite = False
    if not finite:
        raise QueryError(f"{what} must be finite numbers, got {values!r}")
    return values


class LinearFunction(PreferenceFunction):
    """``f(p) = Σ aᵢ·p.xᵢ`` — the paper's default query family.

    The sign of each weight determines the monotonicity direction of
    that dimension. A zero weight means the dimension is ignored; it
    is treated as (non-strictly) increasing, which keeps every bound
    valid and lets callers express single-attribute preferences such
    as "top-k by throughput" in a multi-attribute stream.
    """

    __slots__ = ("weights",)

    def __init__(self, weights: Sequence[float]) -> None:
        weights = _finite(weights, "weights")
        directions = [1 if weight >= 0 else -1 for weight in weights]
        super().__init__(len(weights), directions)
        self.weights = weights

    def score(self, attrs: Sequence[float]) -> float:
        total = 0.0
        for weight, value in zip(self.weights, attrs):
            total += weight * value
        return total

    def score_batch(self, matrix) -> Sequence[float]:
        if not batch.is_matrix(matrix):
            return [self.score(row) for row in matrix]
        return linear_scores(matrix, self.weights)

    def __repr__(self) -> str:
        terms = " + ".join(
            f"{weight:g}*x{i + 1}" for i, weight in enumerate(self.weights)
        )
        return f"Linear({terms})"


class ProductFunction(PreferenceFunction):
    """``f(p) = Π (aᵢ + p.xᵢ)`` with ``aᵢ ≥ 0`` (Figure 21(a,b)).

    Increasingly monotone on every dimension over the unit workspace
    as long as every factor stays non-negative, which ``aᵢ ≥ 0`` and
    attributes in [0, 1] guarantee.
    """

    __slots__ = ("offsets",)

    def __init__(self, offsets: Sequence[float]) -> None:
        offsets = _finite(offsets, "offsets")
        if any(offset < 0 for offset in offsets):
            raise NonMonotoneFunctionError(
                "product offsets must be non-negative for monotonicity "
                "over the unit workspace"
            )
        super().__init__(len(offsets), [1] * len(offsets))
        self.offsets = offsets

    def score(self, attrs: Sequence[float]) -> float:
        product = 1.0
        for offset, value in zip(self.offsets, attrs):
            product *= offset + value
        return product

    def score_batch(self, matrix) -> Sequence[float]:
        if not batch.is_matrix(matrix):
            return [self.score(row) for row in matrix]
        offsets = self.offsets
        out = matrix[:, 0] + offsets[0]
        for dim in range(1, self.dims):
            out *= matrix[:, dim] + offsets[dim]
        return out

    def __repr__(self) -> str:
        terms = " * ".join(
            f"({offset:g}+x{i + 1})" for i, offset in enumerate(self.offsets)
        )
        return f"Product({terms})"


class QuadraticFunction(PreferenceFunction):
    """``f(p) = Σ aᵢ·p.xᵢ²`` (Figure 21(c,d)).

    Over the unit workspace (xᵢ ≥ 0) a positive weight is increasingly
    monotone and a negative weight decreasingly monotone; zero weights
    ignore the dimension (treated as non-strictly increasing).
    """

    __slots__ = ("weights",)

    def __init__(self, weights: Sequence[float]) -> None:
        weights = _finite(weights, "weights")
        directions = [1 if weight >= 0 else -1 for weight in weights]
        super().__init__(len(weights), directions)
        self.weights = weights

    def score(self, attrs: Sequence[float]) -> float:
        total = 0.0
        for weight, value in zip(self.weights, attrs):
            total += weight * value * value
        return total

    def score_batch(self, matrix) -> Sequence[float]:
        if not batch.is_matrix(matrix):
            return [self.score(row) for row in matrix]
        weights = self.weights
        out = matrix[:, 0] * weights[0]
        out *= matrix[:, 0]
        out += 0.0  # the scalar sum starts from 0.0: -0.0 becomes +0.0
        for dim in range(1, self.dims):
            term = matrix[:, dim] * weights[dim]
            term *= matrix[:, dim]
            out += term
        return out

    def __repr__(self) -> str:
        terms = " + ".join(
            f"{weight:g}*x{i + 1}^2" for i, weight in enumerate(self.weights)
        )
        return f"Quadratic({terms})"


class CallableFunction(PreferenceFunction):
    """Wrap a user-supplied callable with declared directions.

    The caller asserts monotonicity; use :func:`check_monotone` to
    probe-test the declaration on sampled points before trusting it in
    a long-running monitor.
    """

    __slots__ = ("_fn", "_label")

    def __init__(
        self,
        fn: Callable[..., float],
        directions: Sequence[int],
        label: str = "user-function",
    ) -> None:
        super().__init__(len(directions), directions)
        self._fn = fn
        self._label = label

    def score(self, attrs: Sequence[float]) -> float:
        return self._fn(*attrs)

    def __repr__(self) -> str:
        return f"Callable({self._label}, directions={self.directions})"


def check_monotone(
    function: PreferenceFunction,
    samples: int = 64,
    step: float = 0.125,
    seed: int = 7,
) -> None:
    """Probe-test the declared monotonicity of ``function``.

    Samples points in the unit workspace, perturbs one coordinate at a
    time in the declared preference direction, and verifies the score
    does not decrease.

    Raises:
        NonMonotoneFunctionError: on the first violated probe.
    """
    import random

    rng = random.Random(seed)
    for _ in range(samples):
        point = [rng.random() for _ in range(function.dims)]
        base = function.score(point)
        for dim in range(function.dims):
            direction = function.directions[dim]
            moved = list(point)
            moved[dim] = min(1.0, max(0.0, moved[dim] + direction * step))
            if function.score(moved) < base - 1e-12:
                raise NonMonotoneFunctionError(
                    f"{function!r} is not {'increasing' if direction > 0 else 'decreasing'} "
                    f"on dimension {dim}: score({moved}) < score({point})"
                )


def global_best_corner(function: PreferenceFunction) -> Tuple[float, ...]:
    """Corner of the unit workspace with the maximum possible score.

    For an all-increasing function this is ``(1, 1, ..., 1)`` — the
    point the paper notes "dominates every other tuple".
    """
    return function.best_corner([0.0] * function.dims, [1.0] * function.dims)


def enumerate_corners(
    lower: Sequence[float], upper: Sequence[float]
) -> Sequence[Tuple[float, ...]]:
    """All 2^d corners of a box — used by tests to validate maxscore."""
    ranges = [(lower[i], upper[i]) for i in range(len(lower))]
    return [tuple(corner) for corner in itertools.product(*ranges)]
