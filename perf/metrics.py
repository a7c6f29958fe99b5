"""Metric names, units and how each is derived from a run.

``BENCHMARK.json`` lists the same names with their direction and
regression bound; ``perf/tests/test_smoke.py`` keeps the two in step.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

from perf.layers import merge_totals

#: end-to-end metrics: name -> unit (printed by ``--trace 0``).
END_TO_END = {
    "records_per_s": "1/s",
    "fresh_ms_p50": "ms",
    "fresh_ms_p95": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: end-to-end metrics BENCHMARK.json cannot declare — its driver
#: wants every declared metric on every workload and never 0 — but a
#: run prints, ``--json`` keeps and ``perf.compare`` compares all the
#: same, ``where`` they are defined. Bound 0: a count, which must
#: repeat exactly for one seed.
ALSO = {
    "fresh_ms_p99": {
        "unit": "ms", "better": "lower", "bound": 0.25,
        "where": "from 1000 timed batches up",
    },
    "register_ms_p50": {
        "unit": "ms", "better": "lower", "bound": 0.25,
        "where": "sma_query_churn only: no other stream registers",
    },
    "wire_kb_per_batch": {
        "unit": "KiB", "better": "lower", "bound": 0.0,
        "where": "tcp_sharded only: no other workload has a wire",
    },
    "failed_share": {
        "unit": "ratio", "better": "lower", "bound": 0.0,
        "where": "every workload",
    },
}
#: a p99 is reported from this many timed batches up: ten samples
#: lie beyond it.
P99_SAMPLES = 1000

#: per-layer metrics: name -> unit (printed by ``--trace 1``).
PER_LAYER = {
    "engine.process_ms": "ms",
    "engine.make_records_ms": "ms",
    "engine.other_ms": "ms",
    "engine.other_share": "ratio",
    "engine.query_ops": "count",
    "engine.query_op_ms": "ms",
    "window.insert_calls": "count",
    "window.evict_ms": "ms",
    "grid.insert_many_ms": "ms",
    "grid.delete_many_ms": "ms",
    "grid.records_in": "count",
    "grid.records_out": "count",
    "traversal.solo_calls": "count",
    "traversal.solo_ms": "ms",
    "traversal.group_calls": "count",
    "traversal.group_ms": "ms",
    "traversal.group_members": "count",
    "traversal.cells_enheaped": "count",
    "traversal.cells_processed": "count",
    "traversal.points_scored": "count",
    "traversal.processed_per_enheaped": "ratio",
    "scoring.score_batch_calls": "count",
    "scoring.score_batch_ms": "ms",
    "scoring.rows_scored": "count",
    "algorithms.process_cycle_ms": "ms",
    "algorithms.self_ms": "ms",
    "algorithms.recomputations": "count",
    "algorithms.recompute_rate": "ratio",
    "skyband.insert_calls": "count",
    "skyband.rebuild_calls": "count",
    "skyband.rebuild_ms": "ms",
    "skyband.mean_size": "count",
    "subscriptions.dispatch_ms": "ms",
    "subscriptions.changes": "count",
    "sharded.prepare_ms": "ms",
    "sharded.begin_ms": "ms",
    "sharded.finish_ms": "ms",
    "sharded.merge_ms": "ms",
    "sharded.wire_kb_per_batch": "KiB",
    "codec.encode_ms": "ms",
    "codec.decode_ms": "ms",
    "codec.bytes_out": "B",
    "codec.bytes_in": "B",
    "tcp.send_ms": "ms",
    "tcp.wait_ms": "ms",
    "tcp.frames": "count",
    "worker.cycle_ms": "ms",
    "worker.compute_ms": "ms",
    "worker.decode_ms": "ms",
    "worker.encode_ms": "ms",
    "worker.skew": "ratio",
    "protocol.encode_ms": "ms",
    "protocol.decode_ms": "ms",
    "protocol.bytes_per_batch": "B",
    "server.ack_ms_p50": "ms",
    "server.engine_ms": "ms",
    "server.overhead_ms": "ms",
    "delivery.enqueue_to_receipt_ms_p50": "ms",
    "delivery.delivered": "count",
    "delivery.dropped": "count",
    "delivery.queue_high_watermark": "count",
    "client.encode_ms": "ms",
    "client.decode_ms": "ms",
    "client.events": "count",
    "generator.late_ms_max": "ms",
    "generator.late_ms_p99": "ms",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
    "failed_share": "ratio",
}

_ROW = (0, 0.0, 0.0, 0)  # calls, inclusive s, self s, items


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median_of_segments(values: Sequence[float], statistic) -> float:
    """``statistic`` of each of five consecutive fifths of ``values``
    (fewer when there are under 20 samples a segment), then the
    median of those. A shared host that slows down for part of a run
    moves a whole-run mean or tail; it moves this only when it lasts
    for most of the run."""
    segments = max(1, min(5, len(values) // 20))
    size = len(values) / segments
    return statistics.median(
        statistic(values[round(index * size):round((index + 1) * size)])
        for index in range(segments)
    )


def per_layer(trace: Dict[str, object]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run.

    ``trace`` is what a session's traced run collected: span totals
    of this process (``own``), of each shard host (``shards``) and of
    the server child (``server``); operation-counter and wire-byte
    deltas over the traced batches; and the few samples only the
    generator sees. Times are per traced batch; a layer the workload
    never enters reports zeros.
    """
    batches = max(1, trace["batches"])
    own = trace["own"]
    shards = trace["shards"]
    server = trace["server"]
    # Engine-side layers run wherever the engine runs: here, in every
    # shard host (each holds a full stream replica) and in the server.
    engine = merge_totals([own, server] + shards)
    # The generator's own process holds the served workload's client.
    client = own if server else {}
    ops = trace["ops"]

    def ms(totals, name, column=2):
        return totals.get(name, _ROW)[column] * 1e3 / batches

    def count(totals, name, column=0):
        return totals.get(name, _ROW)[column] / batches

    process_ms = ms(engine, "engine.process", 1)
    other_ms = ms(engine, "engine.process")
    enheaped = ops.get("cells_enheaped", 0)
    computes = [
        totals.get("algorithms.process_cycle", _ROW)[1] for totals in shards
    ]
    mean_compute = sum(computes) / len(computes) if computes else 0.0
    shard_count = max(1, len(shards))
    ack_p50 = percentile(trace["ack_ms"], 0.5)
    engine_ms = ms(server, "engine.process", 1)
    untraced = trace["fresh_p50_untraced"]
    return {
        "engine.process_ms": process_ms,
        "engine.make_records_ms": ms(engine, "engine.make_records"),
        "engine.other_ms": other_ms,
        "engine.other_share": other_ms / process_ms if process_ms else 0.0,
        "engine.query_ops": count(engine, "engine.query_op"),
        "engine.query_op_ms": ms(engine, "engine.query_op"),
        "window.insert_calls": ops.get("arrivals", 0) / batches,
        "window.evict_ms": ms(engine, "window.evict"),
        "grid.insert_many_ms": ms(engine, "grid.insert_many"),
        "grid.delete_many_ms": ms(engine, "grid.delete_many"),
        "grid.records_in": count(engine, "grid.insert_many", 3),
        "grid.records_out": count(engine, "grid.delete_many", 3),
        "traversal.solo_calls": count(engine, "traversal.solo"),
        "traversal.solo_ms": ms(engine, "traversal.solo"),
        "traversal.group_calls": count(engine, "traversal.group"),
        "traversal.group_ms": ms(engine, "traversal.group"),
        "traversal.group_members": count(engine, "traversal.group", 3),
        "traversal.cells_enheaped": enheaped / batches,
        "traversal.cells_processed": ops.get("cells_processed", 0) / batches,
        "traversal.points_scored": ops.get("points_scored", 0) / batches,
        "traversal.processed_per_enheaped": (
            ops.get("cells_processed", 0) / enheaped if enheaped else 0.0
        ),
        "scoring.score_batch_calls": count(engine, "scoring.score_batch"),
        "scoring.score_batch_ms": ms(engine, "scoring.score_batch"),
        "scoring.rows_scored": count(engine, "scoring.score_batch", 3),
        "algorithms.process_cycle_ms": ms(
            engine, "algorithms.process_cycle", 1
        ),
        "algorithms.self_ms": ms(engine, "algorithms.process_cycle"),
        "algorithms.recomputations": ops.get("recomputations", 0) / batches,
        "algorithms.recompute_rate": (
            ops.get("recomputations", 0) / batches / trace["queries"]
            if trace["queries"]
            else 0.0
        ),
        "skyband.insert_calls": ops.get("skyband_insertions", 0) / batches,
        "skyband.rebuild_calls": count(engine, "skyband.rebuild"),
        "skyband.rebuild_ms": ms(engine, "skyband.rebuild"),
        "skyband.mean_size": trace["skyband_mean_size"],
        "subscriptions.dispatch_ms": ms(engine, "subscriptions.dispatch"),
        "subscriptions.changes": trace["changes"] / batches,
        "sharded.prepare_ms": ms(own, "sharded.prepare"),
        "sharded.begin_ms": ms(own, "sharded.begin"),
        "sharded.finish_ms": ms(own, "sharded.finish", 1),
        "sharded.merge_ms": ms(own, "sharded.finish"),
        "sharded.wire_kb_per_batch": trace["wire_kb_per_batch"],
        "codec.encode_ms": ms(own, "codec.encode"),
        "codec.decode_ms": ms(own, "codec.decode"),
        "codec.bytes_out": trace["bytes_sent"] / batches,
        "codec.bytes_in": trace["bytes_received"] / batches,
        "tcp.send_ms": ms(own, "tcp.send"),
        "tcp.wait_ms": ms(own, "tcp.wait"),
        "tcp.frames": count(own, "tcp.send") + count(own, "tcp.wait"),
        "worker.cycle_ms": sum(
            ms(totals, "worker.dispatch", 1) for totals in shards
        ) / shard_count,
        "worker.compute_ms": mean_compute * 1e3 / batches,
        "worker.decode_ms": sum(
            ms(totals, "codec.decode") + ms(totals, "worker.decode_cycle")
            for totals in shards
        ) / shard_count,
        "worker.encode_ms": sum(
            ms(totals, "codec.encode") for totals in shards
        ) / shard_count,
        "worker.skew": max(computes) / mean_compute if mean_compute else 0.0,
        "protocol.encode_ms": ms(server, "protocol.encode"),
        "protocol.decode_ms": ms(server, "protocol.decode"),
        "protocol.bytes_per_batch": (
            count(server, "protocol.encode", 3)
            + count(server, "protocol.decode", 3)
        ),
        "server.ack_ms_p50": ack_p50,
        "server.engine_ms": engine_ms,
        "server.overhead_ms": ack_p50 - engine_ms if server else 0.0,
        "delivery.enqueue_to_receipt_ms_p50": percentile(
            trace["delivery_ms"], 0.5
        ),
        "delivery.delivered": trace["hub"].get("delivered", 0),
        "delivery.dropped": trace["hub"].get("dropped", 0),
        "delivery.queue_high_watermark": trace["hub"].get(
            "high_watermark", 0
        ),
        "client.encode_ms": ms(client, "protocol.encode"),
        "client.decode_ms": ms(client, "protocol.decode"),
        "client.events": trace["changes"] / batches if server else 0.0,
        "generator.late_ms_max": max(trace["late_ms"], default=0.0),
        "generator.late_ms_p99": percentile(trace["late_ms"], 0.99),
        "trace.overhead_share": (
            trace["fresh_p50_traced"] / untraced - 1.0 if untraced else 0.0
        ),
        "trace.spans": trace["spans"],
        "failed_share": trace["failed_share"],
    }
