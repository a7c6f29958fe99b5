"""repro — Continuous Monitoring of Top-k Queries over Sliding Windows.

A faithful, from-scratch Python reproduction of Mouratidis, Bakiras &
Papadias (SIGMOD 2006). The package provides:

- :class:`~repro.core.engine.StreamMonitor` — the main entry point: a
  main-memory engine monitoring many continuous top-k queries over a
  count- or time-based sliding window;
- the paper's two monitoring algorithms, **TMA** and **SMA**, the
  **TSL** baseline it compares against, and a brute-force oracle;
- the grid index, the top-k computation module, and the score–time
  k-skyband machinery underneath;
- stream generators (IND / ANT and domain scenarios), Section 7's
  extensions (constrained, threshold, update-stream monitoring), and
  the Section 6 analytical cost model.

Quickstart::

    from repro import (CountBasedWindow, LinearFunction, StreamMonitor,
                       TopKQuery)

    monitor = StreamMonitor(dims=2, window=CountBasedWindow(10_000),
                            algorithm="sma")
    handle = monitor.add_query(TopKQuery(LinearFunction([1.0, 2.0]), k=10))
    handle.subscribe(lambda change: print(change.top))   # push delivery
    for batch in my_stream:                     # lists of StreamRecord
        monitor.process(batch)
    print(handle.result())                      # pull, any time
    handle.update(k=20)                         # in-flight mutation
    handle.cancel()

Handles are int-like, so the original qid-based calls
(``monitor.result(qid)``, ``report.changes[qid]``) keep working
unchanged — see ``docs/API.md`` for the full surface and the
migration guide.
"""

from repro.algorithms import (
    BruteForceAlgorithm,
    SkybandMonitoringAlgorithm,
    ThresholdSortedListAlgorithm,
    TopKMonitoringAlgorithm,
    make_algorithm,
)
from repro.service import (
    Delivery,
    DeliveryHub,
    MonitorClient,
    MonitorServer,
    RemoteChangeStream,
    RemoteQueryHandle,
)
from repro.core import (
    Accuracy,
    CallableFunction,
    ChangeStream,
    ConstrainedTopKQuery,
    CountBasedWindow,
    CycleReport,
    LinearFunction,
    PreferenceFunction,
    ProductFunction,
    QuadraticFunction,
    QueryError,
    QueryHandle,
    RecordBatch,
    Rectangle,
    RecordFactory,
    ReproError,
    ResultChange,
    ResultEntry,
    StreamError,
    StreamMonitor,
    StreamRecord,
    Subscription,
    ThresholdQuery,
    TimeBasedWindow,
    TopKQuery,
)

__version__ = "1.1.0"

__all__ = [
    "Accuracy",
    "BruteForceAlgorithm",
    "CallableFunction",
    "ChangeStream",
    "ConstrainedTopKQuery",
    "CountBasedWindow",
    "CycleReport",
    "Delivery",
    "DeliveryHub",
    "LinearFunction",
    "MonitorClient",
    "MonitorServer",
    "PreferenceFunction",
    "ProductFunction",
    "QuadraticFunction",
    "QueryError",
    "QueryHandle",
    "RecordBatch",
    "Rectangle",
    "RecordFactory",
    "RemoteChangeStream",
    "RemoteQueryHandle",
    "ReproError",
    "ResultChange",
    "ResultEntry",
    "SkybandMonitoringAlgorithm",
    "StreamError",
    "StreamMonitor",
    "StreamRecord",
    "Subscription",
    "ThresholdQuery",
    "ThresholdSortedListAlgorithm",
    "TimeBasedWindow",
    "TopKMonitoringAlgorithm",
    "TopKQuery",
    "__version__",
    "make_algorithm",
]
