#!/usr/bin/env python
"""Section 7 query types: constrained top-k and threshold monitoring.

Scenario: a sensor field reports (temperature, humidity) readings
normalised to [0, 1). Operations keeps three standing queries:

1. an ordinary top-k: the most severe readings overall;
2. a *constrained* top-k (Figure 12): the same preference, but only
   inside the mid-range humidity band operations cares about;
3. a *threshold* query: every reading whose combined severity exceeds
   a fixed alarm level — however many those are.

All three register through the same ``add_query`` on ONE unified
monitor — the facade serves every query kind over one window, one
grid, and one notification path (the threshold query's alarms arrive
by push subscription).

Run:  python examples/constrained_and_threshold.py
"""

import random

from repro import (
    CountBasedWindow,
    LinearFunction,
    StreamMonitor,
    ThresholdQuery,
    TopKQuery,
)
from repro.extensions.constrained import constrained_query


def sensor_rows(rng, count, heatwave=False):
    rows = []
    for _ in range(count):
        temperature = rng.betavariate(2, 5)  # usually cool
        if heatwave and rng.random() < 0.3:
            temperature = rng.uniform(0.8, 0.99)
        humidity = rng.random()
        rows.append((temperature, humidity))
    return rows


def main() -> None:
    rng = random.Random(33)
    severity = LinearFunction([2.0, 1.0])  # temperature-weighted

    # One engine serves all three query kinds.
    monitor = StreamMonitor(
        dims=2, window=CountBasedWindow(500), algorithm="tma"
    )
    q_hot = monitor.add_query(TopKQuery(severity, k=3, label="hottest"))
    q_band = monitor.add_query(
        constrained_query(
            severity,
            k=3,
            ranges=[None, (0.4, 0.6)],  # humidity band only
            label="hottest-in-band",
        )
    )
    q_alarm = monitor.add_query(
        ThresholdQuery(severity, threshold=2.5, label="severity>2.5")
    )

    # Alarms are pushed, not polled: the threshold query's deltas
    # carry exactly the newly-fired and newly-cleared alarms.
    fired_this_cycle = []
    q_alarm.subscribe(lambda change: fired_this_cycle.append(change))

    for cycle in range(1, 9):
        heatwave = 4 <= cycle <= 6
        rows = sensor_rows(rng, 120, heatwave=heatwave)
        fired_this_cycle.clear()
        monitor.process(monitor.make_records(rows, time_=float(cycle)))

        flag = "HEATWAVE" if heatwave else "        "
        hottest = q_hot.result()[0]
        in_band = q_band.result()
        band_text = (
            f"{in_band[0].score:.2f} @ {in_band[0].record.attrs[1]:.2f}rh"
            if in_band
            else "none"
        )
        fired = sum(len(change.added) for change in fired_this_cycle)
        print(
            f"cycle {cycle} {flag} | hottest={hottest.score:.2f} | "
            f"in-band top={band_text} | active alarms="
            f"{len(q_alarm.result()):3d} (+{fired})"
        )

    grid = monitor.algorithm.grid
    band_cells = len(monitor.algorithm.influence_region(q_band))
    alarm_cells = len(monitor.algorithm.influence_region(q_alarm))
    print(
        "\nbook-keeping stays local: constrained query in "
        f"{band_cells} influence cells, threshold query in "
        f"{alarm_cells} static cells (grid has {grid.total_cells} total)"
    )


if __name__ == "__main__":
    main()
