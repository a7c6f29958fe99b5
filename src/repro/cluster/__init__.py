"""repro.cluster — running shards on other machines.

The distributed tier above the transport layer: a remote shard host
process (:mod:`repro.cluster.shard`, ``python -m repro.cluster.shard
--listen HOST:PORT``) plus :func:`local_shard_hosts`, a context
manager that brings a pool of loopback hosts up in subprocesses — the
harness the remote-parity tests and the CI multi-node smoke job share.

Point a monitor at running hosts with::

    StreamMonitor(..., algorithm="tma",
                  shards=["10.0.0.7:7071", "10.0.0.8:7071"])

Results are bitwise-identical to ``shards=N`` (pipe workers) and to a
single-process run; see ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
from typing import Iterator, List, Optional

from repro.core.errors import StreamError

_BANNER_PREFIX = "repro-shard listening on "


def _repro_src_root() -> str:
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    return os.path.dirname(package_dir)


@contextlib.contextmanager
def local_shard_hosts(
    count: int,
    *,
    python: Optional[str] = None,
    host: str = "127.0.0.1",
    once: bool = True,
) -> Iterator[List[str]]:
    """Run ``count`` loopback shard hosts for the duration of a block.

    Each host is a ``python -m repro.cluster.shard --listen host:0``
    subprocess; the context yields their ``"host:port"`` addresses
    (parsed from the startup banner) and tears every host down on
    exit. With ``once`` (the default) each host gets ``--once`` — it
    exits with its first session, so an orphaned host can never
    linger; pass ``once=False`` when several monitors will connect in
    sequence (a module-scoped test fixture serves one session per
    test).
    """
    if count < 1:
        raise ValueError(f"need at least one shard host, got {count}")
    interpreter = python or sys.executable
    env = dict(os.environ)
    src_root = _repro_src_root()
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src_root + os.pathsep + existing if existing else src_root
    )
    procs: List[subprocess.Popen] = []
    addresses: List[str] = []
    try:
        for _ in range(count):
            proc = subprocess.Popen(
                [
                    interpreter,
                    "-m",
                    "repro.cluster.shard",
                    "--listen",
                    f"{host}:0",
                ]
                + (["--once"] if once else []),
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
            )
            procs.append(proc)
            addresses.append(_read_banner(proc))
        yield addresses
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=5)
            if proc.stdout is not None:
                proc.stdout.close()


def _read_banner(proc: subprocess.Popen) -> str:
    """Parse one host's startup banner into its ``host:port`` address."""
    assert proc.stdout is not None
    line = proc.stdout.readline()
    if not line:
        code = proc.poll()
        raise StreamError(
            f"shard host exited (code {code}) before announcing its "
            "address"
        )
    text = line.strip()
    if not text.startswith(_BANNER_PREFIX):
        raise StreamError(
            f"unexpected shard host banner: {text!r}"
        )
    return text[len(_BANNER_PREFIX):]


__all__ = ["local_shard_hosts"]
