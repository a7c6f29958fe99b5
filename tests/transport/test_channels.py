"""Channel-layer behavior: addressing, prepared cycles, TCP failures.

Satellite of the transport refactor: a remote shard that dies
mid-cycle must surface as a *descriptive* typed error (never a hang),
reply silence must trip the timeout, and teardown must be idempotent.
The fake hosts here are in-process threads speaking the real server
channel, so every failure is deterministic.
"""

import contextlib
import socket
import threading

import pytest

from repro.core.errors import StreamError
from repro.parallel.sharded import ShardedMonitorAlgorithm
from repro.transport.base import (
    ChannelClosed,
    ChannelError,
    ChannelTimeout,
    PreparedCycle,
    WorkerFailure,
    parse_address,
    prepare_cycle,
)
from repro.transport.codec import SHARD_PROTOCOL_VERSION
from repro.transport.tcp import TcpChannel, TcpServerChannel


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.0.0.7:7071") == ("10.0.0.7", 7071)

    def test_ipv6_brackets_stripped(self):
        assert parse_address("[::1]:7071") == ("::1", 7071)

    def test_missing_port_rejected(self):
        with pytest.raises(ChannelError):
            parse_address("localhost")

    def test_non_integer_port_rejected(self):
        with pytest.raises(ChannelError):
            parse_address("localhost:http")

    def test_empty_host_rejected(self):
        with pytest.raises(ChannelError):
            parse_address(":7071")


class _Recorder:
    kind = "fake"
    calls = 0

    @classmethod
    def encode_cycle(cls, arrivals, expired_rids):
        cls.calls += 1
        return ("payload", cls.calls), _Handle(), 7


class _Handle:
    def __init__(self):
        self.closed = 0

    def close(self):
        self.closed += 1


class TestPreparedCycle:
    def test_encode_once_per_kind(self):
        _Recorder.calls = 0
        prepared = prepare_cycle([_Recorder(), _Recorder()], [], [4, 2])
        assert _Recorder.calls == 1
        assert prepared.payload_for("fake") == ("payload", 1)
        assert prepared.shared_bytes == 7
        assert prepared.expired == [4, 2]

    def test_close_is_idempotent(self):
        handle = _Handle()
        prepared = PreparedCycle({"fake": None}, [handle], 0, [])
        prepared.close()
        prepared.close()
        assert handle.closed == 1


# ----------------------------------------------------------------------
# Thread-hosted fake shard hosts (deterministic failure injection)
# ----------------------------------------------------------------------


@contextlib.contextmanager
def fake_host(handler):
    """One loopback listener whose first session runs ``handler``."""
    server = socket.create_server(("127.0.0.1", 0), backlog=1)
    address = "127.0.0.1:%d" % server.getsockname()[1]
    failures = []

    def run():
        try:
            conn, _peer = server.accept()
        except OSError:
            return
        try:
            handler(conn)
        except (ChannelClosed, OSError):
            pass
        except Exception as exc:  # pragma: no cover - test debugging
            failures.append(exc)
        finally:
            try:
                conn.close()
            except OSError:
                pass

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield address
    finally:
        server.close()
        thread.join(timeout=10)
        assert not failures, failures


def accept_handshake(channel):
    command, _payload = channel.receive()
    assert command == "configure"
    channel.reply_ok(
        {
            "protocol": SHARD_PROTOCOL_VERSION,
            "algorithm": "tma",
            "pid": 0,
        }
    )


def handshake_then_die(conn):
    """Configure normally, then vanish — a shard killed mid-cycle."""
    channel = TcpServerChannel(conn)
    accept_handshake(channel)
    channel.receive()  # swallow the next request, then drop the link
    channel.close()


def handshake_then_silence(conn):
    """Configure normally, then accept requests without ever replying."""
    channel = TcpServerChannel(conn)
    accept_handshake(channel)
    while True:
        channel.receive()


def answer_as_revision_5(conn):
    """A rev-5 host that accepts the handshake it was sent."""
    channel = TcpServerChannel(conn)
    channel.receive()
    channel.reply_ok({"protocol": 5, "algorithm": "tma", "pid": 0})


def reject_handshake(conn):
    channel = TcpServerChannel(conn)
    channel.receive()
    channel.reply_error("RuntimeError: no such algorithm here")


def real_shard(conn):
    from repro.cluster.shard import serve_session

    serve_session(conn)


def connect(address, timeout=10.0):
    return TcpChannel.connect(
        address,
        algorithm="tma",
        dims=2,
        cells_per_axis=4,
        options={},
        timeout=timeout,
    )


class TestTcpChannelFailures:
    def test_connect_refused_is_channel_error(self):
        probe = socket.create_server(("127.0.0.1", 0))
        dead = "127.0.0.1:%d" % probe.getsockname()[1]
        probe.close()
        with pytest.raises(ChannelError, match="cannot connect"):
            connect(dead)

    def test_handshake_rejection_carries_remote_error(self):
        with fake_host(reject_handshake) as address:
            with pytest.raises(WorkerFailure, match="no such algorithm"):
                connect(address)

    def test_a_rev5_host_is_refused_at_configure(self):
        with fake_host(answer_as_revision_5) as address:
            with pytest.raises(
                WorkerFailure, match="host speaks shard protocol 5"
            ):
                connect(address)

    def test_peer_death_mid_request_is_channel_closed(self):
        with fake_host(handshake_then_die) as address:
            channel = connect(address)
            try:
                channel.request("ping")
                with pytest.raises(
                    ChannelClosed, match="closed the connection"
                ):
                    channel.response(timeout=10.0)
            finally:
                channel.terminate()

    def test_reply_silence_is_channel_timeout(self):
        with fake_host(handshake_then_silence) as address:
            channel = connect(address)
            try:
                channel.request("ping")
                with pytest.raises(ChannelTimeout, match="no reply"):
                    channel.response(timeout=0.3)
            finally:
                channel.terminate()

    def test_terminate_is_idempotent_and_final(self):
        with fake_host(real_shard) as address:
            channel = connect(address)
            assert channel.is_alive()
            channel.terminate()
            channel.terminate()
            assert not channel.is_alive()
            with pytest.raises(ChannelClosed, match="already closed"):
                channel.request("ping")

    def test_response_without_request_rejected(self):
        with fake_host(real_shard) as address:
            channel = connect(address)
            try:
                with pytest.raises(ChannelError, match="no outstanding"):
                    channel.response(timeout=1.0)
            finally:
                channel.terminate()


class TestHostRefusesBadPeers:
    """A real ``serve_session`` against a peer that is not a rev-6
    coordinator: the refusal is a typed error reply, within the call."""

    @pytest.mark.parametrize("revision", [4, 5])
    def test_older_revision_refused_at_configure(self, revision):
        """Rev 4 still framed sketch blocks on cycles, rev 5 full
        records in expirations and replies; a host refuses both at the
        handshake, before any cycle can arrive."""
        with fake_host(real_shard) as address:
            sock = socket.create_connection(parse_address(address), timeout=10)
            channel = TcpChannel(sock, address)
            try:
                channel.request(
                    "configure",
                    {
                        "protocol": revision,
                        "algorithm": "tma",
                        "dims": 2,
                        "cells_per_axis": 4,
                        "options": {},
                    },
                )
                with pytest.raises(
                    WorkerFailure, match=f"speaks shard protocol {revision}"
                ):
                    channel.response(timeout=10.0)
            finally:
                channel.terminate()

    def test_rev3_json_frame_refused(self):
        """What a rev-3 coordinator writes first: a length-prefixed JSON
        body with no header-length word."""
        body = b'{"op":"configure","protocol":3,"algorithm":"tma","dims":2}'
        with fake_host(real_shard) as address:
            sock = socket.create_connection(parse_address(address), timeout=10)
            channel = TcpChannel(sock, address)
            try:
                channel._send_frame(len(body).to_bytes(4, "big") + body)
                channel._pending_commands.append("configure")
                with pytest.raises(WorkerFailure, match="ProtocolError"):
                    channel.response(timeout=10.0)
                channel._pending_commands.append("ping")
                with pytest.raises(ChannelClosed):  # the session is over
                    channel.response(timeout=10.0)
            finally:
                channel.terminate()

    def test_malformed_frame_mid_session_is_an_error_reply(self):
        """A block table that promises 8 TB: refused from the header,
        reported to the coordinator, and the host survives."""
        head = b'{"op":"cycle","dims":2,"blocks":[["d",1000000000000]]}'
        body = len(head).to_bytes(4, "little") + head
        with fake_host(real_shard) as address:
            channel = connect(address)
            try:
                channel._send_frame(len(body).to_bytes(4, "big") + body)
                channel._pending_commands.append("cycle")
                with pytest.raises(WorkerFailure, match="ProtocolError"):
                    channel.response(timeout=10.0)
            finally:
                channel.terminate()


class TestCoordinatorFailureModes:
    """Satellite: remote failures surface as descriptive StreamErrors,
    promptly, and teardown stays idempotent."""

    def test_shard_killed_mid_cycle_is_descriptive_not_a_hang(self):
        with fake_host(handshake_then_die) as address:
            algo = ShardedMonitorAlgorithm("tma", 2, shards=[address])
            with pytest.raises(StreamError, match="died mid-request"):
                algo.process_cycle([], [])
            # the pool terminated itself; close is a cheap no-op now
            algo.close()

    def test_ping_barrier_times_out_cleanly(self):
        with fake_host(handshake_then_silence) as address:
            algo = ShardedMonitorAlgorithm("tma", 2, shards=[address])
            algo._timeout = 0.5
            with pytest.raises(StreamError, match="did not reply within"):
                algo.ping()
            algo.close()

    def test_handshake_rejection_names_the_host(self):
        with fake_host(reject_handshake) as address:
            with pytest.raises(
                StreamError, match="rejected the configure handshake"
            ):
                ShardedMonitorAlgorithm("tma", 2, shards=[address])

    def test_connect_failure_names_the_address(self):
        probe = socket.create_server(("127.0.0.1", 0))
        dead = "127.0.0.1:%d" % probe.getsockname()[1]
        probe.close()
        with pytest.raises(StreamError, match="cannot bring up"):
            ShardedMonitorAlgorithm("tma", 2, shards=[dead])

    def test_close_is_idempotent_with_remote_shards(self):
        with fake_host(real_shard) as address:
            algo = ShardedMonitorAlgorithm("tma", 2, shards=[address])
            assert algo.ping()
            algo.close()
            algo.close()

    @pytest.mark.parametrize("transport", ["tcp", "pipe"])
    def test_shard_round_trip_reports_wire_bytes(self, transport):
        """A real shard behind each transport: queries, cycles, stats,
        bytes. TCP serves a thread-hosted loop; pipe spawns a worker."""
        from repro.core.queries import TopKQuery
        from repro.core.scoring import LinearFunction
        from repro.core.tuples import StreamRecord

        endpoint = (
            fake_host(real_shard)
            if transport == "tcp"
            else contextlib.nullcontext()
        )
        with endpoint as address:
            algo = ShardedMonitorAlgorithm(
                "tma",
                2,
                shards=[address] if transport == "tcp" else 1,
                cells_per_axis=4,
            )
            try:
                assert algo.transport == transport
                query = TopKQuery(LinearFunction([0.5, 0.5]), k=2)
                query.qid = 0
                algo.register(query)
                records = [
                    StreamRecord(rid, (0.1 * rid, 0.5), 0.0)
                    for rid in range(3)
                ]
                report = algo.process_cycle(records, [])
                assert report[0].top_ids() == [2, 1]
                stats = algo.transport_stats()
                assert stats["transport"] == transport
                assert stats["cycles"] == 1
                assert stats["last_cycle"]["wire_bytes"] > 0
                assert stats["last_cycle"]["shared_bytes"] == 0
            finally:
                algo.close()
