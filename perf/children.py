"""Child processes: shard hosts and the served monitor.

Both kinds start through this module (``python -m perf.children
shard|serve ...``) rather than through the library's own launchers, so
that a traced run can install the same span wrappers in the child
before any library code runs there. A child announces its address on
its standard output, runs until its work ends (a shard host: the
coordinator's session closes; the server: its standard input closes,
which also happens when the parent dies), and then prints one report
line — its ``VmHWM`` and, when traced, its span totals — which the parent
reads from the same pipe. No temporary file is involved.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

from perf import layers

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SHARD_BANNER = "repro-shard listening on "
_SERVER_BANNER = "perf-server listening on "
_REPORT = "perf-child-report "

#: a child nobody connects to or stops gives up after this long.
_ORPHAN_SECONDS = 120


def peak_rss_kb() -> int:
    """High-water RSS of this process in KiB: ``VmHWM``, which starts
    from nothing at exec. (``ru_maxrss`` does not — a child inherits
    its parent's, so it reads the launcher's memory, not the child's.)"""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("/proc/self/status has no VmHWM line")


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


class Child:
    """One launched child: its address, then (after stop) its report."""

    def __init__(self, argv: List[str], banner: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [_ROOT, os.path.join(_ROOT, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "perf.children"] + argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=_ROOT,
        )
        line = self._proc.stdout.readline().strip()
        if not line.startswith(banner):
            self.stop()
            raise RuntimeError(f"child did not announce itself: {line!r}")
        self.address = line[len(banner):]

    def stop(self) -> Dict[str, object]:
        """Close the child's stdin, wait for it to end, return its
        report (empty if it died without one)."""
        try:
            output, _ = self._proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            output, _ = self._proc.communicate()
        for line in output.splitlines():
            if line.startswith(_REPORT):
                return json.loads(line[len(_REPORT):])
        return {}


def start_shard_host(trace: bool, skip_cycles: int) -> Child:
    return Child(
        ["shard", "--trace", str(int(trace)), "--skip", str(skip_cycles)],
        _SHARD_BANNER,
    )


def start_server(
    trace: bool,
    skip_cycles: int,
    algorithm: str,
    n: int,
    cells: int,
    dims: int,
) -> Child:
    return Child(
        [
            "serve",
            "--trace", str(int(trace)),
            "--skip", str(skip_cycles),
            "--algorithm", algorithm,
            "--n", str(n),
            "--cells", str(cells),
            "--dims", str(dims),
        ],
        _SERVER_BANNER,
    )


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------


def _report(tracer: Optional[layers.Tracer], **extra) -> None:
    payload = {"rss_kb": peak_rss_kb(), **extra}
    if tracer is not None:
        payload["totals"] = tracer.totals()
        payload["spans"] = tracer.span_count()
    print(_REPORT + json.dumps(payload), flush=True)


def _shard_main(args) -> int:
    tracer = None
    if args.trace:
        tracer = layers.Tracer(skip_roots=args.skip)
        layers.install(tracer, service=False)
    from repro.cluster import shard

    code = shard.main(
        [
            "--listen", "127.0.0.1:0",
            "--once",
            "--idle-timeout", str(_ORPHAN_SECONDS),
        ]
    )
    _report(tracer)
    return code


def _serve_main(args) -> int:
    tracer = None
    if args.trace:
        tracer = layers.Tracer(skip_roots=args.skip)
        layers.install(tracer, service=True)
    from repro import CountBasedWindow, MonitorServer, StreamMonitor

    monitor = StreamMonitor(
        args.dims,
        CountBasedWindow(args.n),
        algorithm=args.algorithm,
        cells_per_axis=args.cells,
    )
    server = MonitorServer(monitor)
    try:
        host, port = server.start()
        print(f"{_SERVER_BANNER}{host}:{port}", flush=True)
        sys.stdin.read()  # until the parent closes it (or dies)
        sizes = monitor.algorithm.result_state_sizes()
        _report(
            tracer,
            mean_state_size=(
                sum(sizes.values()) / len(sizes) if sizes else 0.0
            ),
        )
    finally:
        server.stop()
        monitor.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf.children")
    parser.add_argument("kind", choices=["shard", "serve"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--skip", type=int, default=0)
    parser.add_argument("--algorithm", default="sma")
    parser.add_argument("--n", type=int, default=0)
    parser.add_argument("--cells", type=int, default=0)
    parser.add_argument("--dims", type=int, default=0)
    args = parser.parse_args(argv)
    return _shard_main(args) if args.kind == "shard" else _serve_main(args)


if __name__ == "__main__":
    sys.exit(main())
