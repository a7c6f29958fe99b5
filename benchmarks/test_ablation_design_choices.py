"""Ablations of the paper's two explicit design choices.

1. **Heap traversal vs naive sorted-cell scan** (Section 4.2): the
   paper motivates the Figure 6 heap by noting the naive alternative
   "requires computing the maxscore for all cells and subsequently
   sorting them". We run both on identical grids and count priced
   cells and wall-clock.
2. **Lazy vs eager influence-list cleanup** (Section 4.3): the paper
   keeps stale entries until the next from-scratch computation. The
   eager variant trims lists on every gate rise; it produces identical
   results while paying for an influence-staircase walk per shrink —
   quantified here in influence-list updates and time.
"""

import random

from repro.algorithms.tma import TopKMonitoringAlgorithm
from repro.core.queries import TopKQuery
from repro.core.scoring import LinearFunction
from repro.core.stats import OpCounters
from repro.core.tuples import RecordFactory
from repro.grid.grid import Grid
from repro.grid.naive import compute_top_k_naive
from repro.grid.traversal import compute_top_k
from repro.streams.generators import Independent
from repro.streams.stream import StreamDriver

from harness import format_table


def test_heap_traversal_vs_naive_scan(benchmark):
    def measure():
        rng = random.Random(13)
        grid = Grid(4, 8)  # 4096 cells
        factory = RecordFactory()
        for _ in range(20_000):
            grid.insert(
                factory.make(tuple(rng.random() for _ in range(4)))
            )
        functions = [
            LinearFunction([rng.uniform(0.1, 1.0) for _ in range(4)])
            for _ in range(20)
        ]
        import time

        out = {}
        for name, fn in (
            ("heap", compute_top_k),
            ("naive", compute_top_k_naive),
        ):
            counters = OpCounters()
            started = time.perf_counter()
            results = [fn(grid, f, 20, counters) for f in functions]
            out[name] = {
                "seconds": time.perf_counter() - started,
                "cells_priced": counters.cells_enheaped,
                "cells_scanned": counters.cells_processed,
                "top": [
                    [e.rid for e in outcome.entries] for outcome in results
                ],
            }
        return out

    out = benchmark.pedantic(measure, rounds=1, iterations=1)
    print("\n== Ablation: Figure 6 heap vs naive sorted scan "
          "(20 top-20 computations, 8^4 grid, N=20K) ==")
    print(
        format_table(
            ["method", "CPU [s]", "cells priced", "cells scanned"],
            [
                [
                    name,
                    f"{data['seconds']:.4f}",
                    data["cells_priced"],
                    data["cells_scanned"],
                ]
                for name, data in out.items()
            ],
        )
    )
    # Identical results ...
    assert out["heap"]["top"] == out["naive"]["top"]
    # ... but the naive scan prices every cell for every query, the
    # heap prices only the influence region plus its boundary (the
    # seconds column above is printed, not asserted).
    assert out["heap"]["cells_priced"] < out["naive"]["cells_priced"] / 5


def test_lazy_vs_eager_influence_cleanup(benchmark):
    def run(eager: bool):
        driver = StreamDriver(Independent(2), 100, seed=17)
        algo = TopKMonitoringAlgorithm(
            2, cells_per_axis=12, eager_cleanup=eager
        )
        warm = driver.warmup(8_000)
        algo.process_cycle(warm, [])
        rng = random.Random(18)
        for qid in range(20):
            query = TopKQuery(
                LinearFunction(
                    [rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)]
                ),
                k=50,  # large k: wide influence staircases, frequent rises
            )
            query.qid = qid
            algo.register(query)
        algo.counters.reset()
        import time

        window = list(warm)
        started = time.perf_counter()
        final = None
        for batch in driver.batches(15):
            window.extend(batch)
            expired = [window.pop(0) for _ in range(len(batch))]
            algo.process_cycle(batch, expired)
        seconds = time.perf_counter() - started
        final = {
            qid: [e.rid for e in algo.current_result(qid)]
            for qid in range(20)
        }
        return {
            "seconds": seconds,
            "il_updates": algo.counters.influence_list_updates,
            "trim_visits": algo.counters.influence_trim_visits,
            "final": final,
        }

    def measure():
        return {"lazy": run(False), "eager": run(True)}

    out = benchmark.pedantic(measure, rounds=1, iterations=1)
    print("\n== Ablation: lazy vs eager influence-list cleanup "
          "(TMA, 15 cycles, Q=20) ==")
    print(
        format_table(
            ["policy", "CPU [s]", "IL updates", "trim-walk visits"],
            [
                [
                    name,
                    f"{data['seconds']:.4f}",
                    data["il_updates"],
                    data["trim_visits"],
                ]
                for name, data in out.items()
            ],
        )
    )
    # Identical results. The eager policy walks the influence
    # staircase on every gate rise — usually to remove little or
    # nothing, because the kth score rarely crosses a whole cell's
    # maxscore boundary. Lazy cleanup skips those walks entirely (the
    # paper's Section 4.3 design choice).
    assert out["lazy"]["final"] == out["eager"]["final"]
    assert out["lazy"]["trim_visits"] == 0
    assert out["eager"]["trim_visits"] > 100
