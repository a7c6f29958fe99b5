"""Binary columnar wire format of the TCP shard channel (revision 6).

Every message, in both directions, is one frame::

    u32be body_len | u32le header_len | header | block 0 | block 1 ...

``header`` is ``header_len`` bytes of compact UTF-8 JSON (one object).
Its optional ``"blocks"`` key declares the column blocks that follow as
``[[dtype, count], ...]`` — ``"d"`` for float64, ``"q"`` for int64,
eight raw little-endian bytes per value — so a decoder checks
``body_len == 4 + header_len + 8 * sum(count)`` before it allocates
anything. Control messages are header-only frames of the same format.

Record and entry columns (ids, timestamps, attribute rows, scores)
travel **only** as blocks: IEEE-754 doubles cross the wire as their own
eight bytes, so a remote shard rebuilds records identical to the
coordinator's by construction (the precondition for bitwise parity
between remote-sharded and single-process runs). Non-finite floats are
refused on both ends. The header carries what is small and irregular:
the op, query specs, counters, the metrics delta.
``docs/ARCHITECTURE.md`` ("Shard wire format") lists each op's header
keys and block order.

Built on :mod:`array`, :mod:`struct` and :class:`memoryview` alone, so
both batch backends run the same path.

One frame per request, one per reply, matched by order (at most one
request is outstanding per channel). Requests carry ``{"op": ...}``;
replies carry ``{"ok": true, ...}`` or ``{"ok": false, "error": txt}``
where ``txt`` is the remote traceback. Reply payload shapes depend on
the request's op, so decoding takes the pending command. In this module
a *message* is the decoded pair ``(header, blocks)``.

**No record travels to a process that already holds it.** The
``cycle`` request ships the cycle's *new* records and the *ids* of the
records it expires — never the full window. Every entry-bearing reply
(``cycle``, ``register_many``, ``update``) carries ``(score, rid)``
columns only (:data:`_REPLY_BLOCKS`), which the coordinator resolves
against its own record store (:mod:`repro.parallel.sharded`).

Only wire-serialisable queries cross this codec: plain linear top-k
and threshold specs, exactly the kinds
:func:`repro.service.protocol.query_to_wire` supports, extended with
the coordinator-assigned ``qid``. Anything else raises
:class:`~repro.service.protocol.ProtocolError` locally, before any
bytes move.
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import chain
from math import isfinite
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.scoring import LinearFunction
from repro.service.protocol import (
    ProtocolError,
    decode_object,
    encode_body,
    query_from_wire,
    query_to_wire,
)

#: shard wire-protocol revision, exchanged in the ``configure``
#: handshake; a host refuses a coordinator with a different revision.
#: Revision 3 added the ``metrics`` key on ``cycle`` replies and the
#: reserved ``_obs`` entry in configure options (observability tier).
#: Revision 4 replaced the JSON body with the binary columnar frame
#: described above. Revision 5 dropped the sketch delta blocks of
#: ``cycle`` requests and the ``sketch`` op: a ``cycle`` header carries
#: ``op`` and ``dims`` only. Revision 6 sends expirations as ids and
#: replies as ``(score, rid)`` columns (no record time or attributes,
#: no ``top``, ``cause``, ``bound`` or ``dims`` in any reply).
SHARD_PROTOCOL_VERSION = 6

#: hard per-frame ceiling — a length header beyond this is treated as
#: stream corruption, not an allocation request.
MAX_FRAME_BYTES = 512 * 1024 * 1024

_FRAME_LEN = struct.Struct(">I")
_HEADER_LEN = struct.Struct("<I")
HEADER_BYTES = _FRAME_LEN.size

_BIG_ENDIAN = sys.byteorder == "big"

#: requests that carry no payload at all.
_BARE_OPS = ("stats", "space", "ping", "stop")

#: cycle request blocks: arrival rids, times, attribute rows; expired rids.
_CYCLE_BLOCKS = "qddq"

#: block layout of each entry-bearing reply: ``cycle`` qids, added
#: counts, removed counts, added scores, added rids, removed rids;
#: ``register_many`` qids, counts, scores, rids; ``update`` scores, rids.
_REPLY_BLOCKS = {"cycle": "qqqdqq", "register_many": "qqdq", "update": "dq"}

Message = Tuple[Dict[str, Any], List[array]]


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def _require_finite(block: array, what: str) -> None:
    # A finite sum proves every term finite; overflow can make a clean
    # block trip it, so only then pay for the exact scan.
    if not isfinite(sum(block)) and not all(map(isfinite, block)):
        raise ProtocolError(f"non-finite float in {what}")


def frame_message(message: Message) -> bytes:
    """One ``(header, blocks)`` message → one length-prefixed frame."""
    header, blocks = message
    if blocks:
        header = dict(header)
        header["blocks"] = [[block.typecode, len(block)] for block in blocks]
    try:
        head = encode_body(header)
    except (TypeError, ValueError) as exc:  # NaN/inf or a non-JSON value
        raise ProtocolError(f"unencodable frame header: {exc}") from None
    length = _HEADER_LEN.size + len(head) + 8 * sum(map(len, blocks))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling"
        )
    parts = [_FRAME_LEN.pack(length), _HEADER_LEN.pack(len(head)), head]
    for index, block in enumerate(blocks):
        if block.typecode == "d":
            _require_finite(block, f"block {index}")
        if _BIG_ENDIAN:  # pragma: no cover - little-endian CI hosts
            block = array(block.typecode, block)
            block.byteswap()
        parts.append(block.tobytes())
    return b"".join(parts)


def body_length(header: bytes) -> int:
    """Decode a 4-byte frame header into the body length."""
    (length,) = _FRAME_LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame header announces {length} bytes (> "
            f"{MAX_FRAME_BYTES}); stream is corrupt"
        )
    return length


def decode_body(body) -> Message:
    """One frame body (any bytes-like) → ``(header, blocks)``.

    Every length is checked against the body before a block is
    allocated, and every float — header or block — is checked finite.
    """
    view = memoryview(body)
    if len(view) < _HEADER_LEN.size:
        raise ProtocolError(f"frame body of {len(view)} bytes is truncated")
    (header_len,) = _HEADER_LEN.unpack_from(view)
    offset = _HEADER_LEN.size
    if header_len > len(view) - offset:
        raise ProtocolError(
            f"frame header of {header_len} bytes overruns a "
            f"{len(view)}-byte body"
        )
    # The service's guarded decoder: no float in a header (``bound``,
    # weights, the metrics delta) can come back non-finite.
    header = decode_object(
        bytes(view[offset : offset + header_len]), "frame header"
    )
    offset += header_len
    declared = header.pop("blocks", [])
    if not isinstance(declared, list):
        raise ProtocolError("frame block table is not a list")
    total = 0
    for spec in declared:
        if (
            not isinstance(spec, list)
            or len(spec) != 2
            or spec[0] not in ("d", "q")
            or type(spec[1]) is not int
            or spec[1] < 0
        ):
            raise ProtocolError(f"malformed frame block spec {spec!r}")
        total += spec[1]
    if offset + 8 * total != len(view):
        raise ProtocolError(
            f"frame declares {total} block values after a {header_len}-byte "
            f"header but its body is {len(view)} bytes"
        )
    blocks = []
    for index, (typecode, count) in enumerate(declared):
        block = array(typecode)
        block.frombytes(view[offset : offset + 8 * count])
        offset += 8 * count
        if _BIG_ENDIAN:  # pragma: no cover - little-endian CI hosts
            block.byteswap()
        if typecode == "d":
            _require_finite(block, f"block {index}")
        blocks.append(block)
    return header, blocks


def _take(blocks: Sequence[array], layout: str, what: str) -> Sequence[array]:
    """``blocks`` once their dtypes are known to spell ``layout``."""
    found = "".join(block.typecode for block in blocks)
    if found != layout:
        raise ProtocolError(
            f"{what} carries blocks {found!r}, expected {layout!r}"
        )
    return blocks


def _wire_int(value: Any, what: str) -> int:
    if type(value) is not int:
        raise ProtocolError(f"{what} must be an integer, got {value!r}")
    return value


def _int_block(values: Sequence[int], what: str) -> array:
    try:
        return array("q", values)
    except (TypeError, OverflowError) as exc:
        raise ProtocolError(f"{what} do not fit int64: {exc}") from None


def _float_block(values, what: str) -> array:
    try:
        return array("d", values)
    except TypeError as exc:
        raise ProtocolError(f"{what} are not floats: {exc}") from None


def _uniform_width(rows: Sequence[Sequence[float]]) -> int:
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise ProtocolError(
            f"ragged attribute rows: widths {sorted(widths)}"
        )
    return widths.pop() if widths else 0


def _check_rows(attrs: array, count: int, dims: int) -> None:
    """A flat attribute block must hold ``count`` rows of ``dims``."""
    if type(dims) is not int or dims < 0 or (count and not dims):
        raise ProtocolError(f"malformed attribute width {dims!r}")
    if len(attrs) != count * dims:
        raise ProtocolError(
            f"attribute block holds {len(attrs)} values, expected "
            f"{count} rows x {dims}"
        )


def _row_block(rows) -> Tuple[int, array]:
    """``(width, flat float64 block)`` of attribute rows: a list of
    rows, or a C-contiguous float64 matrix copied as its bytes."""
    if isinstance(rows, (list, tuple)):
        return _uniform_width(rows), _float_block(
            chain.from_iterable(rows), "record attributes"
        )
    block = array("d")
    if len(rows):
        block.frombytes(memoryview(rows).cast("B"))
    return rows.shape[1], block


# ----------------------------------------------------------------------
# Cycle requests (arrival records + expired ids)
# ----------------------------------------------------------------------


def encode_cycle_request(columns, expired_rids: Sequence[int]) -> bytes:
    """One cycle's arrival columns ``(rids, times, rows)`` (cut from
    the coordinator's record store) and expired ids → a ready-to-send
    ``cycle`` request frame.

    Encoded once per cycle regardless of how many TCP channels will
    broadcast it (the TCP transport's :meth:`encode_cycle`).
    """
    payload = ("cols", columns, expired_rids)
    return frame_message(encode_request("cycle", payload))


def _encode_cycle(payload) -> Message:
    kind = payload[0]
    if kind != "cols":  # shm payloads never cross a socket
        raise ProtocolError(
            f"cycle payload kind {kind!r} is not wire-serialisable"
        )
    _, (rids, times, rows), expired = payload
    if not (len(rids) == len(times) == len(rows)):
        raise ProtocolError(
            f"ragged record columns: {len(rids)} rids, "
            f"{len(times)} times, {len(rows)} rows"
        )
    dims, attrs = _row_block(rows)
    return {"op": "cycle", "dims": dims}, [
        _int_block(rids, "record ids"),
        _float_block(times, "record times"),
        attrs,
        _int_block(expired, "expired record ids"),
    ]


def _decode_cycle(header: Dict[str, Any], blocks: Sequence[array]):
    extra = sorted(set(header) - {"op", "dims"})
    if extra:
        raise ProtocolError(f"unknown cycle header keys {extra}")
    rids, times, attrs, expired = _take(blocks, _CYCLE_BLOCKS, "cycle request")
    if len(rids) != len(times):
        raise ProtocolError(
            f"ragged record columns: {len(rids)} rids, {len(times)} times"
        )
    _check_rows(attrs, len(rids), header["dims"])
    # The time and attribute blocks go to the shard's record store as
    # they are.
    return "cols", (rids.tolist(), times, attrs), expired.tolist()


# ----------------------------------------------------------------------
# Queries (serving-protocol specs + the coordinator-assigned qid)
# ----------------------------------------------------------------------


def shard_query_to_wire(query: object) -> Dict[str, Any]:
    spec = query_to_wire(query)
    spec["qid"] = getattr(query, "qid", -1)
    return spec


def shard_query_from_wire(payload: Dict[str, Any]) -> object:
    query = query_from_wire(payload)
    query.qid = _wire_int(payload.get("qid", -1), "wire qid")
    return query


def _weights_of(function: object) -> List[float]:
    if not isinstance(function, LinearFunction):
        raise ProtocolError(
            "only LinearFunction preferences are wire-serialisable; "
            f"{type(function).__name__} is not"
        )
    return list(function.weights)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


def encode_request(command: str, payload: Any) -> Message:
    """One coordinator request → ``(header, blocks)`` message.

    ``payload`` is the exact object the in-process worker protocol
    carries for ``command`` (see :mod:`repro.parallel.worker`); for
    ``cycle`` it is the ``("cols", ...)`` snapshot triple.
    """
    if command == "cycle":
        return _encode_cycle(payload)
    if command == "register_many":
        header = {
            "op": "register_many",
            "queries": [shard_query_to_wire(query) for query in payload],
        }
    elif command == "unregister":
        header = {"op": "unregister", "qid": _wire_int(payload, "qid")}
    elif command == "update":
        qid, k, function = payload
        header = {
            "op": "update",
            "qid": _wire_int(qid, "qid"),
            "k": None if k is None else _wire_int(k, "k"),
            "weights": None if function is None else _weights_of(function),
        }
    elif command == "configure":
        header = {"op": "configure", **payload}
    elif command in _BARE_OPS:
        header = {"op": command}
    else:
        raise ProtocolError(f"unknown shard command {command!r}")
    return header, []


def decode_request(message: Message) -> Tuple[str, Any]:
    """Message → ``(command, payload)`` in the worker protocol's
    internal shapes (cycle payloads come back as ``("cols", ...)``
    triples, ready for :func:`repro.transport.snapshot.decode_cycle`)."""
    header, blocks = message
    op = header.get("op")
    try:
        if op == "cycle":
            return "cycle", _decode_cycle(header, blocks)
        _take(blocks, "", f"{op!r} request")
        if op == "register_many":
            return "register_many", [
                shard_query_from_wire(spec) for spec in header["queries"]
            ]
        if op == "unregister":
            return "unregister", _wire_int(header["qid"], "qid")
        if op == "update":
            weights = header.get("weights")
            function = (
                None
                if weights is None
                else LinearFunction([float(w) for w in weights])
            )
            k = header.get("k")
            return "update", (
                _wire_int(header["qid"], "qid"),
                None if k is None else _wire_int(k, "k"),
                function,
            )
        if op == "configure":
            return "configure", {
                key: value for key, value in header.items() if key != "op"
            }
        if op in _BARE_OPS:
            return str(op), None
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed {op!r} request: {exc}") from None
    raise ProtocolError(f"unknown shard op {op!r}")


# ----------------------------------------------------------------------
# Replies (shape keyed by the request's op)
# ----------------------------------------------------------------------


def _counters_from_wire(payload: Any) -> Dict[str, int]:
    try:
        return {str(key): int(value) for key, value in payload.items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed wire counters: {exc}") from None


def _same_length(what: str, *blocks: array) -> None:
    lengths = [len(block) for block in blocks]
    if len(set(lengths)) > 1:
        raise ProtocolError(f"ragged {what}: block lengths {lengths}")


def _counted(counts: array, *columns: array) -> None:
    """``counts`` holds no negative count and sums to the length of
    each of the ``columns`` it cuts."""
    if counts and min(counts) < 0:
        raise ProtocolError(f"negative entry count {min(counts)}")
    total = sum(counts)
    if any(len(column) != total for column in columns):
        raise ProtocolError(
            f"entry counts sum to {total}, the columns they cut hold "
            f"{[len(column) for column in columns]}"
        )


def _reply_columns(command: str, blocks: Sequence[array]):
    """The column blocks of an entry-bearing reply, once their dtypes,
    lengths and counts agree."""
    columns = _take(blocks, _REPLY_BLOCKS[command], f"{command!r} reply")
    if command == "cycle":
        qids, added_counts, removed_counts, scores, added, removed = columns
        _same_length("change rows", qids, added_counts, removed_counts)
        _counted(added_counts, scores, added)
        _counted(removed_counts, removed)
    elif command == "register_many":
        qids, counts, scores, rids = columns
        _same_length("result rows", qids, counts)
        _counted(counts, scores, rids)
    else:
        _same_length("result entries", *columns)
    return tuple(columns)


def encode_reply(command: str, payload: Any) -> Message:
    """One successful worker reply → ``(header, blocks)`` message.

    ``payload`` is exactly what
    :func:`repro.parallel.worker.dispatch_command` returned for
    ``command``; entry-bearing replies hold their columns in
    :data:`_REPLY_BLOCKS` order.
    """
    header: Dict[str, Any] = {"ok": True}
    columns: Sequence[Sequence] = ()
    if command == "cycle":
        columns, counters, metrics_delta = payload
        header["counters"] = counters
        if metrics_delta is not None:
            # Snapshot-shaped dicts (MetricsRegistry.delta) are plain
            # JSON already: counters/gauges are flat name→number maps,
            # histograms carry bounds + tallies.
            header["metrics"] = metrics_delta
    elif command in ("register_many", "update"):
        columns, header["counters"] = payload
    elif command == "unregister":
        header["counters"] = payload[1]
    elif command == "stats":
        (sizes, il_entries), counters = payload
        header["sizes"] = [[qid, sizes[qid]] for qid in sorted(sizes)]
        header["il_entries"] = int(il_entries)
        header["counters"] = counters
    elif command == "space":
        header["space"] = _space_to_wire(payload)
    elif command == "configure":
        header.update(payload)
    elif command not in ("ping", "stop"):
        raise ProtocolError(f"unknown shard command {command!r}")
    return header, [
        _float_block(column, "entry scores")
        if typecode == "d"
        else _int_block(column, "entry ids and counts")
        for typecode, column in zip(_REPLY_BLOCKS.get(command, ""), columns)
    ]


def encode_error_reply(traceback_text: str) -> Message:
    return {"ok": False, "error": str(traceback_text)}, []


def decode_reply(command: str, message: Message) -> Tuple[str, Any]:
    """Message → ``(status, payload)`` in the worker protocol's
    internal shapes, matched to the pending ``command``."""
    header, blocks = message
    if not header.get("ok", False):
        return "error", str(header.get("error", "unknown shard error"))
    try:
        if command in _REPLY_BLOCKS:
            columns = _reply_columns(command, blocks)
            counters = _counters_from_wire(header["counters"])
            if command == "cycle":
                return "ok", (columns, counters, header.get("metrics"))
            return "ok", (columns, counters)
        _take(blocks, "", f"{command!r} reply")
        if command == "unregister":
            return "ok", (None, _counters_from_wire(header["counters"]))
        if command == "stats":
            sizes = {int(qid): int(size) for qid, size in header["sizes"]}
            return "ok", (
                (sizes, int(header["il_entries"])),
                _counters_from_wire(header["counters"]),
            )
        if command == "space":
            return "ok", _space_from_wire(header["space"])
        if command == "ping":
            return "ok", "pong"
        if command == "stop":
            return "ok", None
        if command == "configure":
            return "ok", {
                key: value for key, value in header.items() if key != "ok"
            }
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            f"malformed {command!r} reply: {exc}"
        ) from None
    raise ProtocolError(f"unknown shard command {command!r}")


def _space_to_wire(breakdown: object) -> Dict[str, int]:
    fields = breakdown.as_dict()  # type: ignore[attr-defined]
    fields.pop("total", None)  # recomputed property, not state
    return {str(key): int(value) for key, value in fields.items()}


def _space_from_wire(payload: Dict[str, Any]):
    from repro.analysis.memory import SpaceBreakdown

    try:
        return SpaceBreakdown(
            **{str(key): int(value) for key, value in payload.items()}
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            f"malformed wire space breakdown: {exc}"
        ) from None
