"""The shard channel abstraction: one coordinator, N typed duplex links.

A :class:`ShardChannel` carries the shard RPC protocol — the
``(command, payload)`` requests and ``(status, payload)`` replies of
:mod:`repro.parallel.worker` — over *some* transport, and hides every
transport detail from the coordinator: no ``Connection`` objects, no
``SharedMemory`` names, no sockets leak above this interface.

Two implementations exist:

- :class:`~repro.transport.pipe.PipeChannel` — a spawned worker
  process on a duplex :mod:`multiprocessing` pipe, with the
  shared-memory snapshot fast path of :mod:`repro.transport.snapshot`
  preserved bit-for-bit;
- :class:`~repro.transport.tcp.TcpChannel` — a remote shard host
  (:mod:`repro.cluster.shard`) on a TCP socket, speaking the
  length-delimited binary columnar frames of
  :mod:`repro.transport.codec`.

Both expose the same five-verb surface — :meth:`ShardChannel.request`
(send, don't wait), :meth:`ShardChannel.response` (wait for one
reply), :meth:`ShardChannel.send_cycle`, shutdown, and byte counters —
plus a *waitable* for completion-order collection:
:func:`wait_ready` multiplexes pipes and sockets in one
:func:`multiprocessing.connection.wait` call, so a mixed pool's fast
shards are merged while slow ones still compute.

**Cycle broadcast.** Snapshot encoding is per-*transport*, not
per-channel: :func:`prepare_cycle` asks each channel *kind* present in
the pool to encode the cycle once (pipe kinds may place attributes in
shared memory; TCP kinds always produce columnar deltas on the wire)
and returns a :class:`PreparedCycle` holding one payload per kind plus
the release handles. The coordinator broadcasts with
:meth:`ShardChannel.send_cycle` and closes the prepared cycle after
every reply is in — the same lifecycle the single-transport code had.

Channel failures raise the typed errors below; the coordinator maps
them onto its :class:`~repro.core.errors.StreamError` taxonomy.
"""

from __future__ import annotations

import abc
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ReproError


class ChannelError(ReproError):
    """Transport-level failure on a shard channel."""


class ChannelClosed(ChannelError):
    """The peer closed the link (worker death, socket EOF/reset)."""


class ChannelTimeout(ChannelError):
    """No reply arrived within the allowed wait."""


class WorkerFailure(ChannelError):
    """The remote shard raised; the message is its traceback text."""


class ShardChannel(abc.ABC):
    """One duplex request/reply link between coordinator and shard.

    At most one request may be outstanding per channel at any time
    (the coordinator's pipelining guard enforces this one level up);
    replies are matched to requests by order.
    """

    #: transport discriminator (``"pipe"`` / ``"tcp"``); also the key
    #: under which :class:`PreparedCycle` stores this transport's
    #: encoded cycle payload.
    kind: str = "abstract"

    @abc.abstractmethod
    def request(self, command: str, payload: Any = None) -> None:
        """Send one ``(command, payload)`` request without waiting."""

    @abc.abstractmethod
    def response(self, timeout: float) -> Any:
        """Wait for one reply and return its payload.

        Raises :class:`ChannelTimeout` after ``timeout`` seconds,
        :class:`ChannelClosed` when the peer is gone, and
        :class:`WorkerFailure` when the shard replied with an error
        (the exception text is the remote traceback).
        """

    @abc.abstractmethod
    def send_cycle(self, payload: Any) -> None:
        """Send one prepared cycle broadcast (``PreparedCycle``
        payload of this channel's :attr:`kind`) without waiting."""

    @classmethod
    @abc.abstractmethod
    def encode_cycle(
        cls, columns, expired_rids: Sequence[int]
    ) -> Tuple[Any, Any, int]:
        """Encode one cycle (its arrivals' ``(rids, times, rows)``
        columns, the ids of the records it expires) for this transport.

        Returns ``(payload, handle, shared_bytes)``: a payload every
        channel of this kind can :meth:`send_cycle`, a release handle
        (``handle.close()`` after all replies are in), and the number
        of bytes placed in shared memory rather than on the wire
        (zero for purely wire-borne transports).
        """

    @abc.abstractmethod
    def waitable(self) -> Any:
        """Object accepted by :func:`multiprocessing.connection.wait`
        that becomes ready when a reply can be read."""

    @abc.abstractmethod
    def is_alive(self) -> bool:
        """Best-effort liveness of the peer."""

    @abc.abstractmethod
    def begin_shutdown(self) -> None:
        """Ask the peer to stop (best effort, never raises)."""

    @abc.abstractmethod
    def finish_shutdown(self, timeout: float) -> None:
        """Wait for a graceful stop, then release local resources."""

    @abc.abstractmethod
    def terminate(self) -> None:
        """Tear the link down immediately (never raises)."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable endpoint, e.g. ``pid 4242`` / an address."""

    @property
    @abc.abstractmethod
    def bytes_sent(self) -> int:
        """Cumulative request bytes written to this channel."""

    @property
    @abc.abstractmethod
    def bytes_received(self) -> int:
        """Cumulative reply bytes read from this channel."""

    @property
    def frames_sent(self) -> int:
        """Cumulative request/broadcast frames written (0 when the
        transport does not count frames)."""
        return 0

    @property
    def frames_received(self) -> int:
        """Cumulative reply frames read (0 when uncounted)."""
        return 0


def wait_ready(
    channels: Sequence[ShardChannel], timeout: float
) -> List[ShardChannel]:
    """The subset of ``channels`` with a readable reply, waiting up to
    ``timeout`` seconds; empty on timeout."""
    by_waitable = {channel.waitable(): channel for channel in channels}
    ready = mp_connection.wait(list(by_waitable), timeout=timeout)
    return [by_waitable[waitable] for waitable in ready]


class PreparedCycle:
    """One cycle's broadcast, encoded once per transport kind.

    Produced by :func:`prepare_cycle`; consumed by exactly one
    ``begin``/``finish`` pair. ``close()`` releases every transport's
    resources (the pipe transport's shared-memory segment, chiefly)
    and is idempotent.
    """

    __slots__ = ("_payloads", "_handles", "shared_bytes", "expired")

    def __init__(
        self,
        payloads: Dict[str, Any],
        handles: List[Any],
        shared_bytes: int,
        expired: List[int],
    ) -> None:
        self._payloads = payloads
        self._handles = handles
        #: bytes carried via shared memory instead of the wire this
        #: cycle (pipe transport fast path; 0 otherwise).
        self.shared_bytes = shared_bytes
        #: ids of the records this cycle expires.
        self.expired = expired

    def payload_for(self, kind: str) -> Any:
        return self._payloads[kind]

    def close(self) -> None:
        handles, self._handles = self._handles, []
        for handle in handles:
            handle.close()


def prepare_cycle(
    channels: Sequence[ShardChannel],
    columns,
    expired_rids: List[int],
) -> PreparedCycle:
    """Encode one cycle (arrival columns, expired ids) for every
    transport kind present in the pool."""
    encoders = {}
    for channel in channels:
        encoders.setdefault(channel.kind, type(channel))
    payloads: Dict[str, Any] = {}
    handles: List[Any] = []
    shared_bytes = 0
    for kind in sorted(encoders):
        payload, handle, nbytes = encoders[kind].encode_cycle(
            columns, expired_rids
        )
        payloads[kind] = payload
        handles.append(handle)
        shared_bytes += nbytes
    return PreparedCycle(payloads, handles, shared_bytes, expired_rids)


def publish_channel_metrics(registry, channels: Sequence[ShardChannel]) -> None:
    """Publish every channel's cumulative byte/frame totals as gauges.

    Per-channel gauges are keyed by shard index in the metric *name*
    (``repro_transport_shard0_sent_bytes`` ...) — the exposition format
    here is label-free — plus pool-wide totals under
    ``repro_transport_{sent,received}_bytes`` and
    ``repro_transport_frames_{sent,received}``. Gauges rather than
    counters: channel totals restart from zero when a pool is rebuilt,
    which a counter must never do.
    """
    total_sent = total_received = 0
    total_frames_sent = total_frames_received = 0
    for index, channel in enumerate(channels):
        prefix = f"repro_transport_shard{index}_"
        help_suffix = f"on the shard-{index} {channel.kind} channel"
        registry.gauge(
            prefix + "sent_bytes", f"cumulative bytes written {help_suffix}"
        ).set(float(channel.bytes_sent))
        registry.gauge(
            prefix + "received_bytes", f"cumulative bytes read {help_suffix}"
        ).set(float(channel.bytes_received))
        registry.gauge(
            prefix + "frames_sent", f"cumulative frames written {help_suffix}"
        ).set(float(channel.frames_sent))
        registry.gauge(
            prefix + "frames_received", f"cumulative frames read {help_suffix}"
        ).set(float(channel.frames_received))
        total_sent += channel.bytes_sent
        total_received += channel.bytes_received
        total_frames_sent += channel.frames_sent
        total_frames_received += channel.frames_received
    registry.gauge(
        "repro_transport_sent_bytes",
        "cumulative bytes written across all shard channels",
    ).set(float(total_sent))
    registry.gauge(
        "repro_transport_received_bytes",
        "cumulative bytes read across all shard channels",
    ).set(float(total_received))
    registry.gauge(
        "repro_transport_frames_sent",
        "cumulative frames written across all shard channels",
    ).set(float(total_frames_sent))
    registry.gauge(
        "repro_transport_frames_received",
        "cumulative frames read across all shard channels",
    ).set(float(total_frames_received))


def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)``.

    The split is on the *last* colon, so bracketless IPv6 hosts with
    an explicit port parse too; a missing or non-integer port raises
    :class:`ChannelError`.
    """
    if not isinstance(address, str) or ":" not in address:
        raise ChannelError(
            f"shard address must look like 'host:port', got {address!r}"
        )
    host, _, port_text = address.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise ChannelError(
            f"shard address {address!r} has a non-integer port"
        ) from None
    if not host:
        raise ChannelError(f"shard address {address!r} has an empty host")
    return host.strip("[]"), port
