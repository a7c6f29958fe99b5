"""``python3 -m perf.run`` — the benchmark's one command.

::

    python3 -m perf.run --seed S [--workload NAME] [--seconds N]
                        [--trace 0|1] [--repeat K] [--smoke] [--json OUT]

Without ``--trace`` a run sets the workload up ``SETUPS`` times (the
median is ``setup_s``), streams on the last set-up for ``--seconds``
(the length the benchmark's driver asks for; ``run_seconds`` in
BENCHMARK.json), checks every answer and prints the end-to-end
metrics. With
``--trace 1`` it streams once untraced and once under the span
wrappers of :mod:`perf.layers` and prints the per-layer metrics. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the ``metrics`` of the last run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from typing import Dict, List, Optional

from perf import children, layers, metrics
from perf.check import Reference, count_mismatches
from perf.generator import Inputs, environment
from perf.workloads import WORKLOADS, Workload, open_session

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``--seconds`` default; equals ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 25
#: fresh set-ups per end-to-end run (their median is ``setup_s``).
SETUPS = 7
#: ``--smoke`` without ``--seconds``: batches per phase.
SMOKE_BATCHES = 8
#: share of a traced run's ``--seconds`` spent on the untraced pass
#: that ``trace.overhead_share`` compares against.
UNTRACED_SHARE = 0.3


def _verify(session, inputs: Inputs, stream) -> Dict[str, object]:
    """The correctness gate's verdict on one finished session."""
    workload = session.workload
    reference = Reference(inputs, session.next_rid, workload.n)
    checked, mismatched, notes = count_mismatches(
        reference, session.replay, session.pulled()
    )
    lost = max(0, stream.expected_deltas - stream.received_deltas)
    failed = (
        stream.failed_batches
        + lost
        + mismatched
        + session.replay.unclean_cancels
    )
    attempted = stream.batches + stream.expected_deltas + checked
    if lost:
        notes.append(f"{lost} deltas announced but not received")
    if stream.failed_batches:
        notes.append(f"{stream.failed_batches} batches raised")
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "notes": notes,
        "queries_checked": checked,
    }


def run_end_to_end(
    workload: Workload, seed: int, seconds: float, setups: int
) -> Dict[str, object]:
    inputs = Inputs(seed, workload.pool_rows, workload.similarity)
    gc.freeze()
    setup_s: List[float] = []
    session = None
    for _ in range(setups):
        if session is not None:
            session.close()
        started = time.perf_counter()
        session = open_session(workload, inputs)
        setup_s.append(time.perf_counter() - started)
    try:
        stream = session.stream(seconds)
        verdict = _verify(session, inputs, stream)
        rss_kb = children.peak_rss_kb()
    finally:
        reports = session.close()
    rss_kb += sum(report.get("rss_kb", 0) for report in reports)
    fresh = stream.fresh_ms
    values = {
        "records_per_s": workload.rate / metrics.median_of_segments(
            stream.batch_s, statistics.mean
        ),
        "fresh_ms_p50": metrics.percentile(fresh, 0.50),
        "fresh_ms_p95": metrics.median_of_segments(
            fresh, lambda segment: metrics.percentile(segment, 0.95)
        ),
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": statistics.median(setup_s),
    }
    # The four end-to-end metrics BENCHMARK.json cannot carry (there
    # every metric must exist, and never be 0, on every workload):
    # each is reported where it is defined.
    also = {}
    if len(fresh) >= metrics.P99_SAMPLES:
        also["fresh_ms_p99"] = metrics.percentile(fresh, 0.99)
    if stream.register_ms:
        also["register_ms_p50"] = metrics.percentile(stream.register_ms, 0.5)
    if workload.shards:
        also["wire_kb_per_batch"] = (
            stream.wire_bytes / 1024 / stream.wire_batches
        )
    also["failed_share"] = verdict["failed"] / verdict["attempted"]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": None if workload.batches else seconds,
        "trace": 0,
        "metrics": _with_units(values, metrics.END_TO_END),
        "also": _with_units(
            also, {name: m["unit"] for name, m in metrics.ALSO.items()}
        ),
        "samples": {
            "fresh_ms": len(fresh),
            "register_ms": len(stream.register_ms),
            "setup_s": len(setup_s),
            "wire_kb_per_batch": stream.wire_batches,
            "batches": stream.batches,
        },
        "generator_late_ms_p99": metrics.percentile(stream.late_ms, 0.99),
        **verdict,
    }


def run_traced(workload: Workload, seed: int, seconds: float) -> Dict[str, object]:
    inputs = Inputs(seed, workload.pool_rows, workload.similarity)
    gc.freeze()
    session = open_session(workload, inputs)
    try:
        untraced = session.stream(seconds * UNTRACED_SHARE)
    finally:
        session.close()
    tracer = layers.Tracer()
    uninstall = layers.install(tracer, service=bool(workload.served_hz))
    try:
        session = open_session(workload, inputs, tracer)
        try:
            ops_before = session.op_counters()
            wire_before = session.wire()
            tracer.enabled = True
            stream = session.stream(seconds * (1.0 - UNTRACED_SHARE))
            tracer.enabled = False
            ops = session.op_counters()
            wire = session.wire()
            verdict = _verify(session, inputs, stream)
            hub = session.hub_stats()
            mean_state_size = session.mean_state_size()
        finally:
            reports = session.close()
    finally:
        uninstall()
    child_totals = [report.get("totals", {}) for report in reports]
    trace = {
        "batches": stream.batches,
        "own": tracer.totals(),
        "shards": child_totals if workload.shards else [],
        "server": child_totals[0] if workload.served_hz else {},
        "ops": {name: ops[name] - ops_before.get(name, 0) for name in ops},
        "queries": workload.queries,
        "skyband_mean_size": mean_state_size
        or sum(report.get("mean_state_size", 0.0) for report in reports),
        "changes": stream.received_deltas,
        "wire_kb_per_batch": (
            stream.wire_bytes / 1024 / max(1, stream.wire_batches)
        ),
        "bytes_sent": wire["sent"] - wire_before["sent"],
        "bytes_received": wire["received"] - wire_before["received"],
        "ack_ms": stream.ack_ms,
        "delivery_ms": stream.delivery_ms,
        "late_ms": stream.late_ms,
        "hub": hub,
        "fresh_p50_traced": metrics.percentile(stream.fresh_ms, 0.5),
        "fresh_p50_untraced": metrics.percentile(untraced.fresh_ms, 0.5),
        "spans": tracer.span_count()
        + sum(report.get("spans", 0) for report in reports),
        "failed_share": verdict["failed"] / max(1, verdict["attempted"]),
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": None if workload.batches else seconds,
        "trace": 1,
        "metrics": _with_units(metrics.per_layer(trace), metrics.PER_LAYER),
        "samples": {
            "fresh_ms": len(stream.fresh_ms),
            "fresh_ms_untraced": len(untraced.fresh_ms),
            "batches": stream.batches,
        },
        "spans": tracer.spans(),
        **verdict,
    }


def _with_units(values: Dict[str, float], units: Dict[str, str]):
    return {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
    }


_SAMPLED = {
    "fresh_ms_p50": "fresh_ms",
    "fresh_ms_p95": "fresh_ms",
    "fresh_ms_p99": "fresh_ms",
    "register_ms_p50": "register_ms",
    "wire_kb_per_batch": "wire_kb_per_batch",
    "setup_s": "setup_s",
}


def _print_run(run: Dict[str, object]) -> None:
    samples = run["samples"]
    label = f"{run['workload']:<16}"
    also = run.get("also", {})
    for name, metric in {**run["metrics"], **also}.items():
        counted = _SAMPLED.get(name)
        note = f"  (n={samples[counted]})" if counted else ""
        print(
            f"{label} {name:<36} "
            f"{metric['value']:>14.4f} {metric['unit']}{note}"
        )
    if not run["trace"]:
        for name, entry in metrics.ALSO.items():
            if name not in also:
                print(f"{label} {name:<36} {'n/a':>14} ({entry['where']})")
        print(
            f"{label} {'generator_late_ms_p99':<36} "
            f"{run['generator_late_ms_p99']:>14.4f} ms"
        )
    print(
        f"{label} seed={run['seed']} seconds={run['seconds']} "
        f"batches={samples['batches']} attempted={run['attempted']} "
        f"failed={run['failed']}"
    )
    for note in run["notes"]:
        print(f"{label} FAILED: {note}")
    print(
        json.dumps(
            {
                "correct": run["correct"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": run["metrics"],
            }
        )
    )


def _forget_peak_rss() -> None:
    """Reset this process's RSS high-water mark (Linux), so that the
    second and later runs of one invocation report their own peak and
    not the largest workload's so far. Where the kernel refuses, later
    runs simply keep the cumulative peak."""
    try:
        with open("/proc/self/clear_refs", "w") as control:
            control.write("5")
    except OSError:
        pass


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perf.run")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--workload", choices=[workload.name for workload in WORKLOADS]
    )
    parser.add_argument(
        "--seconds", type=float,
        help=f"stream for this long (default {DEFAULT_SECONDS}; with "
        f"--smoke: {SMOKE_BATCHES} batches a phase, for counts that repeat)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1]
    )
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="run K times, seeds SEED .. SEED+K-1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (the tier-1 smoke test)")
    parser.add_argument("--json", metavar="OUT",
                        help="also write every run (and its spans) here")
    args = parser.parse_args(argv)

    source = os.path.join(_ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perf.run: no library to measure at {source}", file=sys.stderr)
        return 2
    if source not in sys.path:
        sys.path.insert(0, source)

    seconds = DEFAULT_SECONDS if args.seconds is None else args.seconds
    fixed = SMOKE_BATCHES if args.seconds is None else None
    selected = [
        workload.smoke(fixed) if args.smoke else workload
        for workload in WORKLOADS
        if args.workload in (None, workload.name)
    ]
    env = environment()
    print("environment " + json.dumps(env))
    runs = []
    for repeat in range(args.repeat):
        for workload in selected:
            # The served workload's generator must not pause for a
            # collection while events queue up behind it; everywhere
            # else library code runs in this process, at its defaults.
            if runs:
                _forget_peak_rss()
            if workload.served_hz:
                gc.disable()
            try:
                if args.trace:
                    run = run_traced(workload, args.seed + repeat, seconds)
                else:
                    run = run_end_to_end(
                        workload,
                        args.seed + repeat,
                        seconds,
                        2 if args.smoke else SETUPS,
                    )
            finally:
                gc.enable()
            _print_run(run)
            runs.append(run)
    if args.json:
        with open(args.json, "w") as out:
            json.dump({"environment": env, "runs": runs}, out)
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
