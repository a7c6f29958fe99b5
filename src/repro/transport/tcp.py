"""TCP transport: a remote shard host on a length-delimited socket.

:class:`TcpChannel` is the coordinator-side channel to one
:mod:`repro.cluster.shard` host. It speaks the framing and message
shapes of :mod:`repro.transport.codec` — 4-byte length header, small
JSON header, raw float64/int64 column blocks — and opens every session
with a ``configure`` handshake that tells the host which per-shard
algorithm to build (protocol revision, algorithm name, dims, grid
granularity, factory options). ``TCP_NODELAY`` is set on both ends:
shard RPCs are strict request/reply, so Nagle batching would only add
latency.

Cycle broadcasts are columnar *deltas* — the cycle's new records and
the ids of the records it expires, never the full window — encoded
once per cycle (:meth:`TcpChannel.encode_cycle`) and reused by every
TCP channel in the pool. Bytes are counted in both directions; the
coordinator surfaces them per cycle through ``stats()``.

The raw socket doubles as the channel's waitable
(:func:`multiprocessing.connection.wait` accepts sockets, and mixes
them with pipe ``Connection`` objects in one call), so completion-
order reply collection works across transports. A frame is read
straight into a buffer of its own size and decoded from a view of it;
nothing is read past a frame's end, so between replies the socket is
the only place bytes can wait.

:class:`TcpServerChannel` is the host-side half: it decodes request
frames into the worker protocol's ``(command, payload)`` shapes and
encodes replies per the pending command, giving the shard serve loop
the same surface as the pipe's worker side.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.transport import codec
from repro.transport.base import (
    ChannelClosed,
    ChannelError,
    ChannelTimeout,
    ShardChannel,
    WorkerFailure,
    parse_address,
)


class _NullHandle:
    """Nothing to release: TCP cycles are wholly wire-borne."""

    __slots__ = ()

    def close(self) -> None:
        pass


def _set_nodelay(sock: socket.socket) -> None:
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - AF_UNIX etc.
        pass


class _FrameReader:
    """Reads one frame at a time off a socket, into a frame-sized
    buffer. A read interrupted by :class:`ChannelTimeout` resumes where
    it stopped, so a late reply is still parsed from its first byte."""

    __slots__ = ("_peer", "_buffer", "_filled", "_in_body", "bytes_read")

    def __init__(self, peer: str) -> None:
        self._peer = peer
        self._buffer = bytearray(codec.HEADER_BYTES)
        self._filled = 0
        self._in_body = False
        self.bytes_read = 0

    def read(
        self, sock: socket.socket, deadline: Optional[float] = None
    ) -> bytearray:
        """The next frame's body; waits until ``deadline`` (monotonic
        seconds; forever when None)."""
        try:
            if not self._in_body:
                self._fill(sock, deadline)
                self._start(codec.body_length(self._buffer), in_body=True)
            self._fill(sock, deadline)
        finally:
            if deadline is not None:
                try:
                    sock.settimeout(None)
                except OSError:  # closed under us by terminate()
                    pass
        body = self._buffer
        self._start(codec.HEADER_BYTES, in_body=False)
        return body

    def _start(self, size: int, in_body: bool) -> None:
        self._buffer = bytearray(size)
        self._filled = 0
        self._in_body = in_body

    def _fill(self, sock: socket.socket, deadline: Optional[float]) -> None:
        view = memoryview(self._buffer)
        while self._filled < len(view):
            try:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise socket.timeout
                    sock.settimeout(remaining)
                count = sock.recv_into(view[self._filled :])
            except socket.timeout:
                raise ChannelTimeout(
                    f"no reply from {self._peer} in time"
                ) from None
            except OSError as exc:
                raise ChannelClosed(
                    f"connection to {self._peer} broke ({exc})"
                ) from None
            if not count:
                raise ChannelClosed(f"{self._peer} closed the connection")
            self._filled += count
            self.bytes_read += count


class TcpChannel(ShardChannel):
    """Coordinator-side channel to one remote shard host."""

    kind = "tcp"

    def __init__(self, sock: socket.socket, address: str) -> None:
        self._sock: Optional[socket.socket] = sock
        self._address = address
        self._reader = _FrameReader(f"shard host {address}")
        self._pending_commands: List[str] = []
        self._bytes_sent = 0
        self._frames_sent = 0
        self._frames_received = 0

    @classmethod
    def connect(
        cls,
        address: str,
        *,
        algorithm: str,
        dims: int,
        cells_per_axis: Optional[int],
        options: Dict[str, Any],
        timeout: float,
    ) -> "TcpChannel":
        """Dial one shard host and run the ``configure`` handshake.

        The host builds its algorithm instance before replying, so a
        successful connect returns a shard that is ready to register
        queries; an unknown algorithm or option set surfaces here as
        :class:`~repro.transport.base.WorkerFailure` with the remote
        traceback.
        """
        host, port = parse_address(address)
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ChannelError(
                f"cannot connect to shard host {address!r}: {exc}"
            ) from None
        sock.settimeout(None)
        _set_nodelay(sock)
        channel = cls(sock, address)
        try:
            channel.request(
                "configure",
                {
                    "protocol": codec.SHARD_PROTOCOL_VERSION,
                    "algorithm": algorithm,
                    "dims": dims,
                    "cells_per_axis": cells_per_axis,
                    "options": dict(options),
                },
            )
            revision = channel.response(timeout).get("protocol")
            if revision != codec.SHARD_PROTOCOL_VERSION:
                raise WorkerFailure(
                    f"ProtocolError: shard host speaks shard protocol "
                    f"{revision!r}, not {codec.SHARD_PROTOCOL_VERSION}"
                )
        except BaseException:
            channel.terminate()
            raise
        return channel

    # -- request/reply ------------------------------------------------

    def request(self, command: str, payload: Any = None) -> None:
        frame = codec.frame_message(codec.encode_request(command, payload))
        self._send_frame(frame)
        self._pending_commands.append(command)

    def send_cycle(self, payload: Any) -> None:
        self._send_frame(payload)
        self._pending_commands.append("cycle")

    @classmethod
    def encode_cycle(
        cls, columns, expired_rids: Sequence[int]
    ) -> Tuple[Any, Any, int]:
        frame = codec.encode_cycle_request(columns, expired_rids)
        return frame, _NullHandle(), 0

    def _send_frame(self, frame: bytes) -> None:
        if self._sock is None:
            raise ChannelClosed(
                f"channel to {self._address} is already closed"
            )
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            raise ChannelClosed(
                f"send to shard host {self._address} failed ({exc})"
            ) from None
        self._bytes_sent += len(frame)
        self._frames_sent += 1

    def response(self, timeout: float) -> Any:
        if not self._pending_commands:
            raise ChannelError(
                f"no outstanding request on channel to {self._address}"
            )
        if self._sock is None:
            raise ChannelClosed(
                f"channel to {self._address} is already closed"
            )
        body = self._reader.read(self._sock, time.monotonic() + timeout)
        command = self._pending_commands.pop(0)
        self._frames_received += 1
        status, payload = codec.decode_reply(
            command, codec.decode_body(body)
        )
        if status != "ok":
            raise WorkerFailure(payload)
        return payload

    # -- readiness ----------------------------------------------------

    def waitable(self) -> Any:
        return self._sock

    def is_alive(self) -> bool:
        return self._sock is not None

    # -- lifecycle ----------------------------------------------------

    def begin_shutdown(self) -> None:
        try:
            self.request("stop")
        except ChannelError:
            pass

    def finish_shutdown(self, timeout: float) -> None:
        try:
            if self._pending_commands:
                self.response(timeout)
        except ChannelError:
            pass
        self.terminate()

    def terminate(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - defensive
                pass
        self._pending_commands.clear()

    def describe(self) -> str:
        return f"tcp shard host {self._address}"

    @property
    def bytes_sent(self) -> int:
        return self._bytes_sent

    @property
    def bytes_received(self) -> int:
        return self._reader.bytes_read

    @property
    def frames_sent(self) -> int:
        return self._frames_sent

    @property
    def frames_received(self) -> int:
        return self._frames_received


class TcpServerChannel:
    """Host-side half of a TCP channel (lives in the shard host)."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock: Optional[socket.socket] = sock
        self._reader = _FrameReader("coordinator")
        self._last_command: Optional[str] = None
        _set_nodelay(sock)

    def receive(self) -> Tuple[str, Any]:
        if self._sock is None:
            raise ChannelClosed("server channel is closed")
        body = self._reader.read(self._sock)
        command, payload = codec.decode_request(codec.decode_body(body))
        self._last_command = command
        return command, payload

    def reply_ok(self, payload: Any) -> None:
        if self._last_command is None:
            raise ChannelError("reply without a received request")
        self._send_frame(
            codec.frame_message(
                codec.encode_reply(self._last_command, payload)
            )
        )

    def reply_error(self, traceback_text: str) -> None:
        self._send_frame(
            codec.frame_message(codec.encode_error_reply(traceback_text))
        )

    def _send_frame(self, frame: bytes) -> None:
        if self._sock is None:
            raise ChannelClosed("server channel is closed")
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            raise ChannelClosed(
                f"coordinator connection broke ({exc})"
            ) from None

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - defensive
                pass
