"""Exception hierarchy for the repro library.

Every error raised on purpose by the library derives from
:class:`ReproError`, so callers can catch library failures without
masking programming errors (``TypeError`` etc. propagate untouched).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class DimensionalityError(ReproError):
    """A record, function or region has the wrong number of dimensions."""


class NonMonotoneFunctionError(ReproError):
    """The preference function is not monotone per dimension.

    The paper's framework requires per-dimension monotonicity
    (Section 3): the influence-region argument and the grid traversal
    bound both fail otherwise. The paper's future-work section sketches
    handling piecewise-monotone functions by partitioning the space;
    that is out of scope here and this error is raised instead.
    """


class WindowError(ReproError):
    """Invalid sliding-window configuration or out-of-order arrival."""


class QueryError(ReproError):
    """Invalid query specification or unknown query id."""


class StreamError(ReproError):
    """Invalid stream driver configuration or malformed update."""


class ProtocolError(ReproError):
    """Malformed or unsupported wire content, or a change report the
    receiver's cached result cannot apply."""
