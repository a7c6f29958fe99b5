"""Queries arriving and terminating mid-stream (the paper's workload).

Monitoring systems never have a static query set: this suite registers
and removes queries while the stream runs and checks that (i) results
stay oracle-exact throughout and (ii) terminated queries leave no
influence-list residue that could corrupt later maintenance.
"""

import random

import pytest

from repro.algorithms import make_algorithm
from repro.core.engine import StreamMonitor
from repro.core.queries import TopKQuery
from repro.core.scoring import LinearFunction
from repro.core.tuples import RecordFactory
from repro.core.window import CountBasedWindow

from tests.conftest import brute_top_k


@pytest.mark.parametrize("algorithm", ["tma", "sma", "tsl"])
def test_churn_against_oracle(algorithm):
    rng = random.Random(77)
    factory = RecordFactory()
    algo = make_algorithm(algorithm, 2, cells_per_axis=4)
    window = []
    active = {}
    next_qid = 0

    for cycle in range(25):
        # Maybe add a query.
        if len(active) < 4 and rng.random() < 0.5:
            query = TopKQuery(
                LinearFunction(
                    [rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)]
                ),
                k=rng.choice([1, 3, 5]),
            )
            query.qid = next_qid
            next_qid += 1
            algo.register(query)
            active[query.qid] = query
            # Registration must return the oracle-exact result already.
            got = [e.rid for e in algo.current_result(query.qid)]
            expected = [e.rid for e in brute_top_k(window, query)]
            assert got == expected
        # Maybe remove one.
        if active and rng.random() < 0.25:
            victim = rng.choice(sorted(active))
            algo.unregister(victim)
            del active[victim]

        arrivals = [
            factory.make((rng.random(), rng.random())) for _ in range(6)
        ]
        window.extend(arrivals)
        expired = []
        while len(window) > 40:
            expired.append(window.pop(0))
        algo.process_cycle(arrivals, expired)

        for qid, query in active.items():
            got = [e.rid for e in algo.current_result(qid)]
            expected = [e.rid for e in brute_top_k(window, query)]
            assert got == expected, f"{algorithm} qid={qid} cycle={cycle}"


@pytest.mark.parametrize("algorithm", ["tma", "sma"])
def test_unregister_leaves_no_influence_residue(algorithm):
    rng = random.Random(5)
    factory = RecordFactory()
    algo = make_algorithm(algorithm, 2, cells_per_axis=5)
    records = [
        factory.make((rng.random(), rng.random())) for _ in range(50)
    ]
    algo.process_cycle(records, [])
    qids = []
    for qid in range(5):
        query = TopKQuery(
            LinearFunction([rng.uniform(0.1, 1), rng.uniform(0.1, 1)]), 3
        )
        query.qid = qid
        algo.register(query)
        qids.append(qid)
    for qid in qids:
        algo.unregister(qid)
    assert algo.influence_list_entries() == 0


def test_engine_level_churn():
    monitor = StreamMonitor(
        2, CountBasedWindow(30), algorithm="sma", cells_per_axis=4
    )
    rng = random.Random(11)
    qid = monitor.add_query(TopKQuery(LinearFunction([1.0, 1.0]), k=2))
    for _ in range(5):
        monitor.process(
            monitor.make_records(
                [(rng.random(), rng.random()) for _ in range(5)]
            )
        )
    second = monitor.add_query(TopKQuery(LinearFunction([0.2, 0.9]), k=3))
    assert len(monitor.result(second)) == 3
    monitor.remove_query(qid)
    # Continued processing must not touch the removed query.
    report = monitor.process(
        monitor.make_records(
            [(rng.random(), rng.random()) for _ in range(5)], time_=10.0
        )
    )
    assert qid not in report.changes
