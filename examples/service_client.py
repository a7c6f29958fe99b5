#!/usr/bin/env python
"""The serving runtime end to end: one server, three socket clients.

PR 4 made the monitor pushable in-process; this example puts a network
in the middle. A :class:`~repro.service.server.MonitorServer` wraps an
ordinary :class:`~repro.StreamMonitor`, and three concurrent clients
talk to it over TCP with line-delimited JSON:

- a **driver** that streams batches into the engine (``process``);
- a **dashboard** holding a top-k leaderboard with a ``coalesce``
  subscription — if it falls behind, its backlog collapses into one
  lossless resync delta per query instead of growing without bound;
- an **alerter** holding a threshold query with a ``block``
  subscription — it must see every delta, so its queue applies
  backpressure to its own delivery thread (never to the engine).

Each subscriber replays its deltas into a local state dict and, at the
end, verifies the replayed state equals the pull ``result()`` —
**bitwise**, floats having crossed JSON both ways. That is the same
parity contract the in-process subscription layer pins, now holding
across a socket. Most events cross as deltas without the query's
``top``; the client rebuilds it, so each subscriber also checks that
the ``top`` of its last change equals ``result()`` bitwise.

Run:  python examples/service_client.py
"""

import random
import threading

from repro import (
    CountBasedWindow,
    MonitorClient,
    MonitorServer,
    StreamMonitor,
)
from repro.core.results import entries_best_first


def replay(stream, baseline, done):
    """Consume a RemoteChangeStream until the run is over (done set
    and the stream has gone quiet); return (state, causes, last top)."""
    state = {entry.rid: entry for entry in baseline}
    causes = []
    top = list(baseline)
    while True:
        change = stream.get(timeout=0.5)
        if change is None:
            if done.is_set() or stream.closed:
                break
            continue
        causes.append(change.cause)
        top = change.top
        for entry in change.removed:
            state.pop(entry.rid, None)
        for entry in change.added:
            state[entry.rid] = entry
    return state, causes, top


def hexed(entries):
    return [(entry.score.hex(), entry.record) for entry in entries]


def main() -> None:
    rng = random.Random(2024)
    monitor = StreamMonitor(
        dims=2, window=CountBasedWindow(500), algorithm="tma",
        cells_per_axis=4,
    )
    server = MonitorServer(monitor)
    host, port = server.start()
    print(f"monitor served on {host}:{port} "
          f"(algorithm={monitor.algorithm.name})")

    driver = MonitorClient(host, port)
    dashboard = MonitorClient(host, port)
    alerter = MonitorClient(host, port)
    print(f"3 clients connected (protocol v"
          f"{driver.server_info['protocol']})")

    # Warm the window before the queries register.
    driver.process([(rng.random(), rng.random()) for _ in range(500)],
                   now=0.0)

    leaders = dashboard.add_query(weights=[1.0, 1.0], k=5,
                                  label="leaders")
    alarm = alerter.add_query(weights=[1.0, 1.0], threshold=1.85,
                              label="alarm")
    leaders_stream = leaders.subscribe(policy="coalesce", maxlen=16)
    alarm_stream = alarm.subscribe(policy="block", maxlen=8)

    results = {}
    done = threading.Event()

    def consume(name, handle, stream):
        state, causes, top = replay(stream, handle.result(), done)
        results[name] = (handle, state, causes, top)

    threads = [
        threading.Thread(target=consume,
                         args=("dashboard", leaders, leaders_stream)),
        threading.Thread(target=consume,
                         args=("alerter", alarm, alarm_stream)),
    ]
    for thread in threads:
        thread.start()

    # The driver streams 20 cycles; mid-run the dashboard tightens its
    # leaderboard in flight — the update delta rides the same wire.
    for cycle in range(1, 21):
        driver.process(
            [(rng.random(), rng.random()) for _ in range(100)],
            now=float(cycle),
        )
        if cycle == 10:
            leaders.update(k=3)
            print("cycle 10: leaders.update(k=3) applied in flight")

    server.hub.flush(timeout=30)
    done.set()  # consumers drain the last in-transit deltas and stop
    for thread in threads:
        thread.join(timeout=30)
    stats = server.stats()  # snapshot while the deliveries still live
    leaders_stream.close()
    alarm_stream.close()

    for name, (handle, state, causes, top) in sorted(results.items()):
        replayed = entries_best_first(state.values())
        pulled = handle.result()
        match = "bitwise-identical" if replayed == pulled else "MISMATCH"
        print(f"{name}: {len(causes)} deltas "
              f"({', '.join(sorted(set(causes)))}); replayed state "
              f"{match} to pull result "
              f"(top rids {[entry.rid for entry in pulled]})")
        assert replayed == pulled
        # The rebuilt top of the last change: same scores to the bit,
        # same records.
        assert hexed(top) == hexed(pulled)

    print(f"server stats: {stats['hub']['delivered']} deltas delivered "
          f"async, {stats['hub']['dropped']} dropped, "
          f"{stats['hub']['coalesced']} coalesced")

    for client in (driver, dashboard, alerter):
        client.close()
    server.stop()
    monitor.close()
    print("clean shutdown: server, clients, monitor all closed")


if __name__ == "__main__":
    main()
