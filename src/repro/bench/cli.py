"""Command-line bench runner: ``python -m repro.bench``.

Two subcommands:

``run``
    Execute one monitoring comparison at arbitrary workload parameters
    and print a paper-style report (times, counters, space). Example::

        python -m repro.bench run --n 50000 --rate 500 --queries 100 \
            --k 20 --dims 4 --distribution ant --algorithms tsl,sma

``selfcheck``
    A fast correctness sweep: replays randomized streams through every
    maintained algorithm (including the similarity-grouped SMA
    variant) and verifies cycle-by-cycle result equality against
    the brute-force oracle. Exit code 0 means every check passed — run
    it after any modification before trusting benchmark numbers.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Optional, Sequence

from repro.algorithms import ALGORITHMS, make_algorithm
from repro.bench.reporting import (
    format_table,
    run_result_to_dict,
    workload_to_dict,
)
from repro.bench.runner import compare_algorithms
from repro.bench.workloads import WorkloadSpec
from repro.core.queries import TopKQuery
from repro.core.scoring import LinearFunction
from repro.core.tuples import RecordFactory


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=(
            "Benchmark runner for the SIGMOD 2006 continuous top-k "
            "monitoring reproduction"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="compare algorithms on one workload"
    )
    run.add_argument("--n", type=int, default=20_000, help="window size N")
    run.add_argument(
        "--rate", type=int, default=None, help="arrivals/cycle (default N/100)"
    )
    run.add_argument("--queries", type=int, default=20, help="Q")
    run.add_argument("--k", type=int, default=20)
    run.add_argument("--dims", type=int, default=4)
    run.add_argument("--cycles", type=int, default=10)
    run.add_argument(
        "--distribution", choices=["ind", "ant", "clu"], default="ind"
    )
    run.add_argument(
        "--function",
        choices=["linear", "product", "quadratic"],
        default="linear",
    )
    run.add_argument(
        "--algorithms",
        default="tsl,tma,sma",
        help="comma-separated subset of: " + ",".join(sorted(ALGORITHMS)),
    )
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--similarity",
        type=float,
        default=None,
        metavar="S",
        help=(
            "draw all Q preference vectors near one random base vector "
            "(S in [0,1]; 1.0 = identical queries). Exercises the "
            "similarity-grouped SMA variant (sma-grouped)"
        ),
    )
    run.add_argument(
        "--cells-per-axis",
        type=int,
        default=None,
        help="grid granularity (default: occupancy-tuned)",
    )
    run.add_argument(
        "--shards",
        default="1",
        metavar="N|tcp:N|HOST:PORT,...",
        help=(
            "partition queries across shards (default 1 = in-process): "
            "an integer N spawns N local worker processes; 'tcp:N' "
            "brings up N loopback remote shard hosts and drives them "
            "over TCP; a comma-separated HOST:PORT list uses already-"
            "running `python -m repro.cluster.shard` hosts. Results "
            "are bitwise-identical in all modes; sharded runs record "
            "bytes-on-the-wire per cycle"
        ),
    )
    run.add_argument(
        "--churn",
        action="store_true",
        help=(
            "exercise the handle API mid-run: deterministic "
            "handle.update(k=...) mutations plus pause/resume churn "
            "between cycles (identical across algorithms); mutation "
            "cost is reported separately from maintenance"
        ),
    )
    run.add_argument(
        "--serve",
        action="store_true",
        help=(
            "append a serving-latency leg: start a MonitorServer, "
            "drive cycles through a socket client, and report "
            "end-to-end delivery-latency p50/p99 — twice, the second "
            "time with a deliberately-stalled co-subscriber attached "
            "(whose backlog must not slow the healthy client)"
        ),
    )
    run.add_argument(
        "--serve-policy",
        choices=["block", "drop_oldest", "coalesce"],
        default="coalesce",
        help="overflow policy of the healthy --serve subscription",
    )
    run.add_argument(
        "--trace",
        action="store_true",
        help=(
            "run with per-cycle phase tracing enabled: the report "
            "gains a per-phase time table and --json gains per-run "
            "'phases' and 'metrics' blocks (results are unchanged; "
            "timings include the small tracing overhead)"
        ),
    )
    run.add_argument(
        "--no-check",
        action="store_true",
        help="skip the cross-algorithm result-equality verification",
    )
    run.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help=(
            "also write machine-readable per-algorithm metrics "
            "(times, counters, space) to PATH; '-' for stdout"
        ),
    )

    check = commands.add_parser(
        "selfcheck", help="fast cycle-by-cycle correctness sweep"
    )
    check.add_argument("--seeds", type=int, default=3)
    check.add_argument("--cycles", type=int, default=10)
    return parser


def parse_shards_argument(text: str):
    """``--shards`` value → ``(count, loopback_hosts, addresses)``.

    Three spellings: ``"N"`` (local pipe workers), ``"tcp:N"`` (spawn
    N loopback remote hosts for the run's duration), and
    ``"host:port[,host:port...]"`` (already-running remote hosts).
    Raises ValueError on anything else.
    """
    text = text.strip()
    if text.lower().startswith("tcp:"):
        count = int(text[4:])
        if count < 1:
            raise ValueError(f"tcp shard count must be >= 1, got {count}")
        return count, count, None
    if ":" in text:
        addresses = [part.strip() for part in text.split(",") if part.strip()]
        for address in addresses:
            host, _, port = address.rpartition(":")
            if not host:
                raise ValueError(f"bad shard address {address!r}")
            int(port)
        return len(addresses), None, tuple(addresses)
    count = int(text)
    if count < 1:
        raise ValueError(f"--shards must be >= 1, got {count}")
    return count, None, None


def command_run(args: argparse.Namespace) -> int:
    names = [name.strip() for name in args.algorithms.split(",") if name]
    unknown = [name for name in names if name not in ALGORITHMS]
    if unknown:
        print(f"unknown algorithms: {unknown}", file=sys.stderr)
        return 2
    try:
        shard_count, loopback_hosts, shard_addresses = (
            parse_shards_argument(args.shards)
        )
    except ValueError as exc:
        print(f"bad --shards value: {exc}", file=sys.stderr)
        return 2
    if args.json not in (None, "-"):
        # Fail fast: a benchmark run can take minutes; discovering an
        # unwritable output path afterwards would lose the whole run.
        try:
            with open(args.json, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            print(f"cannot write --json path: {exc}", file=sys.stderr)
            return 2
    spec = WorkloadSpec(
        dims=args.dims,
        n=args.n,
        rate=args.rate if args.rate is not None else max(1, args.n // 100),
        num_queries=args.queries,
        k=args.k,
        cycles=args.cycles,
        distribution=args.distribution,
        function_family=args.function,
        seed=args.seed,
        cells_per_axis=args.cells_per_axis,
        query_similarity=args.similarity,
        shards=shard_count,
        shard_hosts=shard_addresses,
        churn=args.churn,
    )
    if spec.shard_hosts is not None:
        sharding = f" shards=tcp[{','.join(spec.shard_hosts)}]"
    elif loopback_hosts is not None:
        sharding = f" shards=tcp:{loopback_hosts}"
    elif spec.shards > 1:
        sharding = f" shards={spec.shards}"
    else:
        sharding = ""
    if spec.churn:
        sharding += " churn"
    print(
        f"workload: N={spec.n} r={spec.rate} Q={spec.num_queries} "
        f"k={spec.k} d={spec.dims} {spec.distribution.upper()} "
        f"{spec.function_family} x{spec.cycles} cycles "
        f"(grid {spec.grid_cells_per_axis()}/axis){sharding}"
    )
    if loopback_hosts is not None:
        from repro.cluster import local_shard_hosts

        # Hosts without --once serve one session per benchmarked
        # algorithm in sequence, then tear down with the context.
        with local_shard_hosts(loopback_hosts, once=False) as addresses:
            spec = spec.with_(shard_hosts=tuple(addresses))
            results = compare_algorithms(
                spec, names, check_results=not args.no_check,
                trace=args.trace,
            )
    else:
        results = compare_algorithms(
            spec, names, check_results=not args.no_check, trace=args.trace
        )
    sharded = spec.shards > 1 or spec.shard_hosts is not None
    rows = []
    for name, run in results.items():
        if sharded and run.transport is not None:
            cycles_seen = max(1, run.transport["cycles"])
            wire_column = [
                "{:.0f}".format(
                    run.transport["cycle_wire_bytes_total"] / cycles_seen
                )
            ]
        elif sharded:
            wire_column = ["-"]
        else:
            wire_column = []
        rows.append(
            [
                name.upper(),
                f"{run.setup_seconds:.3f}",
                f"{run.total_seconds:.4f}",
                f"{run.mean_cycle_seconds * 1e3:.2f}",
                run.counters.recomputations,
                f"{run.recomputation_rate:.3f}",
                f"{run.mean_state_size:.1f}",
                f"{run.space.total_mb:.2f}",
            ]
            + wire_column
            + (
                [
                    f"{run.mutation_seconds:.4f}",
                    run.churn_updates
                    + run.churn_pauses
                    + run.churn_resumes,
                ]
                if spec.churn
                else []
            )
        )
    print(
        format_table(
            [
                "algorithm",
                "setup [s]",
                "maintain [s]",
                "ms/cycle",
                "recomputes",
                "Pr_rec",
                "state/query",
                "space [MB]",
            ]
            + (["wire B/cyc"] if sharded else [])
            + (["mutate [s]", "churn ops"] if spec.churn else []),
            rows,
        )
    )
    if not args.no_check:
        print("result check: all algorithms report identical top-k sets")
    if args.trace:
        phase_names = sorted(
            {
                phase
                for run in results.values()
                for phase in (run.phases or {})
            }
        )
        if phase_names:
            print("\n== per-phase mean time [ms/cycle] (--trace) ==")
            print(
                format_table(
                    ["algorithm"] + phase_names,
                    [
                        [name.upper()]
                        + [
                            (
                                "{:.3f}".format(
                                    run.phases[phase]["mean_seconds"] * 1e3
                                )
                                if run.phases and phase in run.phases
                                else "-"
                            )
                            for phase in phase_names
                        ]
                        for name, run in results.items()
                    ],
                )
            )
    serve_result = None
    if args.serve:
        from repro.bench.serve import (
            format_serve_report,
            run_serve_benchmark,
        )

        serve_result = run_serve_benchmark(
            n=spec.n,
            rate=spec.rate,
            cycles=max(10, spec.cycles * 2),
            k=spec.k,
            algorithm=names[0],
            policy=args.serve_policy,
            seed=spec.seed,
            shards=spec.shards if spec.shards > 1 else None,
        )
        print(format_serve_report(serve_result))
    if args.json is not None:
        from repro.core.batch import BACKEND

        payload = {
            # /2 added workload.churn + per-run mutation_seconds and
            # churn_ops (the handle-API mutation account); /3 adds the
            # optional "serve" block (end-to-end delivery-latency
            # percentiles, with and without a stalled co-subscriber);
            # /4 adds workload.shard_hosts and the per-run "transport"
            # block (bytes-on-the-wire, per cycle and cumulative, for
            # pipe- and TCP-sharded runs; null in-process); /5 added
            # workload.accuracy, per-run "result_bounds" and the
            # --approx "approx" block, which /7 drops again; /6 keeps
            # integer counts integral (no more 17.0 in
            # counters/churn_ops) and adds the per-run "phases" +
            # "metrics" blocks captured by --trace (the per-phase time
            # breakdown and the full metrics-registry snapshot; both
            # null when untraced).
            "schema": "repro-bench-run/7",
            "batch_backend": BACKEND,
            "workload": workload_to_dict(spec),
            "algorithms": {
                name: run_result_to_dict(run)
                for name, run in results.items()
            },
        }
        if serve_result is not None:
            payload["serve"] = serve_result
        if args.json == "-":
            json.dump(payload, sys.stdout, indent=2)
            print()
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
            print(f"json metrics written to {args.json}")
    return 0


SELFCHECK_MAINTAINED = ("tsl", "tma", "sma", "sma-grouped")


def command_selfcheck(args: argparse.Namespace) -> int:
    failures = 0
    checks = 0
    for seed in range(args.seeds):
        rng = random.Random(seed)
        factory = RecordFactory()
        algorithms = {
            name: make_algorithm(name, 2, cells_per_axis=4)
            for name in ("brute",) + SELFCHECK_MAINTAINED
        }
        queries = []
        for qid in range(3):
            query = TopKQuery(
                LinearFunction(
                    [rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)]
                ),
                k=rng.choice([1, 3, 7]),
            )
            query.qid = qid
            for algo in algorithms.values():
                algo.register(query)
            queries.append(query)
        window: List = []
        for cycle in range(args.cycles):
            arrivals = [
                factory.make((rng.random(), rng.random()))
                for _ in range(8)
            ]
            window.extend(arrivals)
            expired = []
            while len(window) > 60:
                expired.append(window.pop(0))
            outcomes = {}
            for name, algo in algorithms.items():
                algo.process_cycle(list(arrivals), list(expired))
                outcomes[name] = {
                    query.qid: [
                        entry.rid
                        for entry in algo.current_result(query.qid)
                    ]
                    for query in queries
                }
            reference = outcomes["brute"]
            for name in SELFCHECK_MAINTAINED:
                checks += 1
                if outcomes[name] != reference:
                    failures += 1
                    print(
                        f"FAIL seed={seed} cycle={cycle} {name} != brute",
                        file=sys.stderr,
                    )
    status = "OK" if failures == 0 else "FAILED"
    print(f"selfcheck {status}: {checks} comparisons, {failures} failures")
    return 0 if failures == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return command_run(args)
    return command_selfcheck(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
