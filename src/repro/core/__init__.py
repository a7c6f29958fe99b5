"""Core model: records, scoring, windows, queries, results, engine."""

from repro.core.engine import StreamMonitor
from repro.core.handles import QueryHandle
from repro.core.subscriptions import (
    ChangeStream,
    Subscription,
    SubscriptionHub,
)
from repro.core.errors import (
    DimensionalityError,
    NonMonotoneFunctionError,
    QueryError,
    ReproError,
    StreamError,
    WindowError,
)
from repro.core.queries import (
    Accuracy,
    ConstrainedTopKQuery,
    QueryTable,
    ThresholdQuery,
    TopKQuery,
)
from repro.core.regions import Rectangle
from repro.core.results import CycleReport, ResultChange, ResultEntry
from repro.core.scoring import (
    CallableFunction,
    LinearFunction,
    PreferenceFunction,
    ProductFunction,
    QuadraticFunction,
    check_monotone,
)
from repro.core.stats import OpCounters, RunStats
from repro.core.tuples import RecordFactory, StreamRecord, rank_key
from repro.core.window import (
    CountBasedWindow,
    RecordBatch,
    SlidingWindow,
    TimeBasedWindow,
)

__all__ = [
    "Accuracy",
    "CallableFunction",
    "ChangeStream",
    "ConstrainedTopKQuery",
    "CountBasedWindow",
    "CycleReport",
    "DimensionalityError",
    "LinearFunction",
    "NonMonotoneFunctionError",
    "OpCounters",
    "PreferenceFunction",
    "ProductFunction",
    "QuadraticFunction",
    "QueryError",
    "QueryHandle",
    "QueryTable",
    "RecordBatch",
    "Rectangle",
    "RecordFactory",
    "ReproError",
    "ResultChange",
    "ResultEntry",
    "RunStats",
    "Subscription",
    "SubscriptionHub",
    "SlidingWindow",
    "StreamError",
    "StreamMonitor",
    "StreamRecord",
    "ThresholdQuery",
    "TimeBasedWindow",
    "TopKQuery",
    "WindowError",
    "check_monotone",
    "rank_key",
]
