"""A callable's declared monotonicity is checked, not assumed.

Every grid bound rests on it: a cell's maxscore is the score of its
best corner only for a function monotone in its declared directions.
The probe below (a parabola in x declared increasing) used to give
three outcomes over one stream — an ``IndexError`` from TMA's
traversal, and SMA and TSL top-3s that differ from brute's. Now the
monitor refuses it at registration, a function that passes the sampled
probe and still breaks is a typed error from the traversal, and every
algorithm reports built-in ``float`` scores for a callable.
"""

import random

import pytest

from repro.core.engine import StreamMonitor
from repro.core.errors import NonMonotoneFunctionError
from repro.core.queries import TopKQuery
from repro.core.scoring import CallableFunction, LinearFunction, check_monotone
from repro.core.window import CountBasedWindow

ALGORITHMS = ["tma", "sma", "tsl", "brute"]


def parabola():
    return CallableFunction(
        lambda x, y: -((x - 0.3) ** 2) - y, directions=(1, 1)
    )


def spike():
    """Increasing everywhere but on a sliver the probe never samples."""
    return CallableFunction(
        lambda x, y: x + y + (5.0 if abs(x - 0.01) < 1e-6 else 0.0),
        directions=(1, 1),
        label="spike",
    )


def monitor_over(algorithm, rows):
    monitor = StreamMonitor(
        2, CountBasedWindow(200), algorithm=algorithm, cells_per_axis=4
    )
    monitor.process(monitor.make_records(rows))
    return monitor


def random_rows(seed, count):
    rng = random.Random(seed)
    return [(rng.random(), rng.random()) for _ in range(count)]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_the_probe_is_refused_at_registration(algorithm):
    monitor = monitor_over(algorithm, random_rows(1, 200))
    with pytest.raises(NonMonotoneFunctionError):
        monitor.add_query(TopKQuery(parabola(), k=3))
    with pytest.raises(NonMonotoneFunctionError):
        monitor.add_queries([TopKQuery(parabola(), k=3)])
    assert len(monitor.query_table) == 0
    handle = monitor.add_query(TopKQuery(LinearFunction([1.0, 1.0]), k=3))
    before = handle.result()
    with pytest.raises(NonMonotoneFunctionError):
        handle.update(function=parabola())
    assert handle.result() == before


@pytest.mark.parametrize("algorithm", ["tma", "sma"])
def test_a_function_that_passes_the_probe_but_breaks_is_a_typed_error(
    algorithm,
):
    check_monotone(spike())  # the sampled probe cannot see the sliver
    monitor = monitor_over(algorithm, [(0.01, 0.01)])
    with pytest.raises(NonMonotoneFunctionError, match="spike"):
        monitor.add_query(TopKQuery(spike(), k=1))
    assert len(monitor.query_table) == 0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_callable_scores_are_builtin_floats(algorithm):
    function = CallableFunction(lambda x, y: x + 2 * y, directions=(1, 1))
    monitor = monitor_over(algorithm, random_rows(2, 150))
    twin = monitor_over("brute", random_rows(2, 150))
    handle = monitor.add_query(TopKQuery(function, k=3))
    oracle = twin.add_query(TopKQuery(function, k=3))
    entries = list(handle.result())
    for seed in range(3, 9):
        rows = random_rows(seed, 40)
        report = monitor.process(monitor.make_records(rows))
        twin.process(twin.make_records(rows))
        for change in report.changes.values():
            entries += change.added + change.removed + change.top
        assert [(e.score.hex(), e.rid) for e in handle.result()] == [
            (e.score.hex(), e.rid) for e in oracle.result()
        ]
    assert entries
    assert {type(entry.score) for entry in entries} == {float}
