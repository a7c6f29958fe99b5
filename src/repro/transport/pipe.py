"""Pipe transport: a spawned worker process on a multiprocessing pipe.

The original sharded engine's transport, repackaged behind the
:class:`~repro.transport.base.ShardChannel` interface. Frames are
pickled ``(command, payload)`` / ``(status, payload)`` tuples moved
with ``send_bytes``/``recv_bytes`` — byte-identical to what
``Connection.send`` produced before, but countable, so the coordinator
can report wire volume per cycle for pipes and sockets alike.

Cycle broadcasts use the columnar snapshot codec of
:mod:`repro.transport.snapshot`: arrival columns plus expired record
ids. Above the shared-memory threshold (NumPy backend) the arrivals'
attribute block rides one ``SharedMemory`` segment and only the
header crosses the pipe. The segment's bytes are reported as
``shared_bytes``, never as wire bytes. Replies are the worker
protocol's own compact shapes (``(score, rid)`` columns, never
records), pickled as they are.

:class:`PipeServerChannel` is the worker-side half of the link; the
shard serve loop (:func:`repro.parallel.worker.serve_shard`) speaks to
it through the same ``receive``/``reply_ok``/``reply_error`` surface
the TCP host uses, so one loop serves both transports.
"""

from __future__ import annotations

import pickle
from multiprocessing.reduction import ForkingPickler
from typing import Any, Sequence, Tuple

from repro.transport.base import (
    ChannelClosed,
    ChannelError,
    ChannelTimeout,
    ShardChannel,
    WorkerFailure,
)
from repro.transport.snapshot import encode_cycle as snapshot_encode_cycle


def _dumps(message: Tuple[str, Any]) -> bytes:
    """Pickle one frame the way ``Connection.send`` would."""
    return bytes(ForkingPickler.dumps(message))


class PipeChannel(ShardChannel):
    """Coordinator-side channel to one spawned worker process."""

    kind = "pipe"

    def __init__(self, conn: Any, process: Any) -> None:
        self._conn = conn
        self._process = process
        self._bytes_sent = 0
        self._bytes_received = 0
        self._frames_sent = 0
        self._frames_received = 0

    @classmethod
    def spawn(
        cls,
        context: Any,
        target: Any,
        args: Tuple[Any, ...],
        name: str,
    ) -> "PipeChannel":
        """Start one worker process wired to a fresh duplex pipe.

        ``target`` must be a module-level callable taking the child
        connection as its first argument (spawn-start-method safe);
        the transport does not choose it — the parallel layer passes
        its worker entry point down, keeping this module free of any
        upward dependency.
        """
        parent, child = context.Pipe(duplex=True)
        process = context.Process(
            target=target,
            args=(child, *args),
            name=name,
            daemon=True,
        )
        process.start()
        child.close()
        return cls(parent, process)

    # -- request/reply ------------------------------------------------

    def request(self, command: str, payload: Any = None) -> None:
        self._send_frame(_dumps((command, payload)))

    def send_cycle(self, payload: Any) -> None:
        self._send_frame(payload)

    @classmethod
    def encode_cycle(
        cls, columns, expired_rids: Sequence[int]
    ) -> Tuple[Any, Any, int]:
        snapshot, handle = snapshot_encode_cycle(columns, expired_rids)
        shared_bytes = 0
        if snapshot[0] == "shm":
            rows, dims = snapshot[2]
            shared_bytes = rows * dims * 8
        # Pickled once here, not once per channel: every pipe gets the
        # same frame bytes, and the pickling cost lands in the
        # pipelined prepare phase instead of the send phase.
        return _dumps(("cycle", snapshot)), handle, shared_bytes

    def _send_frame(self, frame: bytes) -> None:
        try:
            self._conn.send_bytes(frame)
        except (BrokenPipeError, OSError) as exc:
            raise ChannelClosed(
                f"worker pipe is closed ({exc})"
            ) from None
        self._bytes_sent += len(frame)
        self._frames_sent += 1

    def response(self, timeout: float) -> Any:
        try:
            if not self._conn.poll(timeout):
                raise ChannelTimeout(
                    f"no reply from {self.describe()} within {timeout:.0f}s"
                )
            frame = self._conn.recv_bytes()
        except (EOFError, OSError):
            raise ChannelClosed(
                f"worker process {self.describe()} died mid-request"
            ) from None
        self._bytes_received += len(frame)
        self._frames_received += 1
        status, payload = pickle.loads(frame)
        if status != "ok":
            raise WorkerFailure(payload)
        return payload

    # -- readiness ----------------------------------------------------

    def waitable(self) -> Any:
        return self._conn

    def is_alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    # -- lifecycle ----------------------------------------------------

    def begin_shutdown(self) -> None:
        try:
            self.request("stop")
        except ChannelError:
            pass

    def finish_shutdown(self, timeout: float) -> None:
        if self._process is not None:
            self._process.join(timeout=timeout)
        self.terminate()

    def terminate(self) -> None:
        if self._process is not None and self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - defensive
            pass

    def describe(self) -> str:
        pid = getattr(self._process, "pid", None)
        return f"pipe worker pid {pid}"

    @property
    def bytes_sent(self) -> int:
        return self._bytes_sent

    @property
    def bytes_received(self) -> int:
        return self._bytes_received

    @property
    def frames_sent(self) -> int:
        return self._frames_sent

    @property
    def frames_received(self) -> int:
        return self._frames_received


class PipeServerChannel:
    """Worker-side half of a pipe channel (lives in the shard process)."""

    def __init__(self, conn: Any) -> None:
        self._conn = conn

    def receive(self) -> Tuple[str, Any]:
        try:
            frame = self._conn.recv_bytes()
        except (EOFError, OSError):
            raise ChannelClosed("coordinator pipe closed") from None
        return pickle.loads(frame)

    def reply_ok(self, payload: Any) -> None:
        self._reply(("ok", payload))

    def reply_error(self, traceback_text: str) -> None:
        self._reply(("error", traceback_text))

    def _reply(self, frame_content: Tuple[str, Any]) -> None:
        try:
            self._conn.send_bytes(_dumps(frame_content))
        except (BrokenPipeError, OSError):
            raise ChannelClosed("coordinator pipe closed") from None

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
