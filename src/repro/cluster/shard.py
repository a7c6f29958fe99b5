"""Remote shard host: ``python -m repro.cluster.shard --listen HOST:PORT``.

One host process serves one shard session at a time: a coordinator
connects (``TcpChannel.connect``), sends the ``configure`` handshake
(protocol revision, algorithm name, dims, grid granularity, factory
options), and the host builds the per-shard algorithm and enters the
same serve loop a pipe worker runs
(:func:`repro.parallel.worker.serve_shard`) — the transport is the
only difference between a local worker and a remote shard. When the
session ends (``stop`` or coordinator disconnect) the algorithm is
discarded and the host listens again, so one long-running host can
serve many successive monitors.

Options:

``--listen HOST:PORT``
    Bind address. Port ``0`` picks a free port; the actual endpoint is
    printed as ``repro-shard listening on HOST:PORT`` (and flushed) so
    wrappers can parse it.
``--once``
    Exit after the first session ends instead of re-listening —
    what :func:`local_shard_hosts` and the CI smoke job use so hosts
    can never outlive their test.
``--idle-timeout SECONDS``
    Exit when no coordinator connects for this long (default: wait
    forever).

A session failure (malformed handshake or frame, unknown algorithm) is
reported to the coordinator as an error reply where possible and ends
only that session, never the host.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import traceback
from typing import Optional

from repro.core.errors import ProtocolError
from repro.transport.base import ChannelClosed, parse_address
from repro.transport.codec import SHARD_PROTOCOL_VERSION
from repro.transport.tcp import TcpServerChannel


def serve_session(sock: socket.socket) -> None:
    """Serve one coordinator session on an accepted socket."""
    channel = TcpServerChannel(sock)
    try:
        command, payload = channel.receive()
        if command != "configure":
            channel.reply_error(
                f"ProtocolError: expected a configure handshake, "
                f"got {command!r}"
            )
            return
        revision = payload.get("protocol")
        if revision != SHARD_PROTOCOL_VERSION:
            channel.reply_error(
                f"ProtocolError: coordinator speaks shard protocol "
                f"{revision!r}, this host speaks "
                f"{SHARD_PROTOCOL_VERSION}"
            )
            return
        try:
            algo = _build_algorithm(payload)
        except Exception:
            channel.reply_error(traceback.format_exc())
            return
        channel.reply_ok(
            {
                "protocol": SHARD_PROTOCOL_VERSION,
                "algorithm": algo.name,
                "pid": os.getpid(),
            }
        )
        from repro.parallel.worker import serve_shard

        serve_shard(channel, algo)
    except ProtocolError as exc:
        # A malformed frame, handshake included: tell the coordinator
        # why and end the session (the stream may no longer be
        # frame-aligned).
        try:
            channel.reply_error(f"ProtocolError: {exc}")
        except ChannelClosed:
            pass
    except ChannelClosed:
        pass
    finally:
        channel.close()


def _build_algorithm(payload: dict):
    from repro.algorithms import make_algorithm
    from repro.parallel.worker import bind_worker_observability

    options = dict(payload.get("options") or {})
    obs = options.pop("_obs", None)
    cells = payload.get("cells_per_axis")
    algo = make_algorithm(
        str(payload["algorithm"]),
        int(payload["dims"]),
        None if cells is None else int(cells),
        **options,
    )
    bind_worker_observability(algo, obs)
    return algo


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.shard",
        description="Host one remote shard of a sharded StreamMonitor.",
    )
    parser.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="bind address (port 0 picks a free port)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="exit after the first session ends",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit when no coordinator connects for this long",
    )
    args = parser.parse_args(argv)
    host, port = parse_address(args.listen)
    listener = socket.create_server(
        (host, port), backlog=4, reuse_port=False
    )
    bound_host, bound_port = listener.getsockname()[:2]
    print(
        f"repro-shard listening on {bound_host}:{bound_port}",
        flush=True,
    )
    try:
        while True:
            listener.settimeout(args.idle_timeout)
            try:
                conn, _peer = listener.accept()
            except socket.timeout:
                print("repro-shard idle timeout, exiting", flush=True)
                return 0
            serve_session(conn)
            if args.once:
                return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 130
    finally:
        listener.close()


if __name__ == "__main__":  # pragma: no cover - exercised in subprocess
    sys.exit(main())
