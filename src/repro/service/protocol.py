"""Line-delimited JSON wire protocol of the serving runtime.

One message per line (``\\n``-terminated UTF-8 JSON object). Three
message shapes travel the socket:

**Requests** (client → server)::

    {"id": 7, "op": "add_query", "query": {"kind": "topk",
     "weights": [1.0, 2.0], "k": 10, "label": "leaders"}}

**Responses** (server → client; ``id`` echoes the request)::

    {"id": 7, "ok": true, "qid": 3, "result": [ENTRY, ...]}
    {"id": 7, "ok": false, "error": {"type": "QueryError",
     "message": "unknown or terminated query id 3 (...)"}}

**Events** (server → client, unsolicited; one per delivered delta)::

    {"event": "change", "sub": 2, "ts": 1721923200.125,
     "qid": 3, "cause": "cycle",
     "added": [ENTRY, ...], "removed": [ENTRY, ...],
     "top": [ENTRY, ...]}
    {"event": "closed", "sub": 2}

where ``ENTRY`` is ``{"score": float, "rid": int, "attrs": [float,
...], "time": float}`` and ``ts`` is the server's ``time.time()``
stamp taken when the delta entered the subscriber's delivery queue
(latency = client receipt time − ts, meaningful on one host).

**Exactness over the wire.** Scores and attributes are IEEE-754
doubles; Python's JSON encoder emits ``repr``-faithful floats and the
decoder parses them back to the identical double, so a replayed remote
state is *bitwise* equal to the server's pull result — the same parity
contract the in-process subscription layer pins.

Only :class:`~repro.core.scoring.LinearFunction` preferences cross the
wire (a weights list); arbitrary callables are not serialisable and
are rejected with :class:`ProtocolError`. Supported query kinds:
``topk`` and ``threshold``. A top-k spec may carry an optional
``"accuracy": {"epsilon", "delta"}`` contract
(:class:`~repro.core.queries.Accuracy`), and a change event an
optional ``"bound"`` — the certified relative rank error of that
delta, ``0.0`` on a contracted query's cycle changes; both keys are
simply absent otherwise.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, NoReturn, Optional, Union

from repro.core.errors import ReproError
from repro.core.queries import Accuracy, ThresholdQuery, TopKQuery
from repro.core.results import ResultChange, ResultEntry
from repro.core.scoring import LinearFunction
from repro.core.tuples import StreamRecord

#: protocol revision, exchanged in the ``hello`` op.
PROTOCOL_VERSION = 1


class ProtocolError(ReproError):
    """Malformed or unsupported wire content."""


# ----------------------------------------------------------------------
# Line framing
# ----------------------------------------------------------------------


def encode_body(message: Dict[str, Any]) -> bytes:
    """One message → compact UTF-8 JSON bytes, repr-faithful floats.

    :func:`encode_line` appends the newline delimiter of the serving
    protocol; the shard transport (:mod:`repro.transport.codec`) uses
    this only for its small frame headers — record and entry columns
    cross that channel as raw binary blocks. Floats pass through
    Python's ``repr``-based JSON encoder, so every IEEE-754 double
    survives the round trip bit-for-bit; NaN/Inf are rejected (they
    have no JSON spelling).
    """
    return json.dumps(
        message, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def encode_line(message: Dict[str, Any]) -> bytes:
    """One message → one ``\\n``-terminated JSON line."""
    return encode_body(message) + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """One received line → message dict."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable protocol line: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"protocol line is not an object: {type(message).__name__}"
        )
    return message


# ----------------------------------------------------------------------
# Entries and changes
# ----------------------------------------------------------------------


def entry_to_wire(entry: ResultEntry) -> Dict[str, Any]:
    return {
        "score": entry.score,
        "rid": entry.record.rid,
        "attrs": list(entry.record.attrs),
        "time": entry.record.time,
    }


def entry_from_wire(payload: Dict[str, Any]) -> ResultEntry:
    try:
        return ResultEntry(
            float(payload["score"]),
            StreamRecord(
                int(payload["rid"]),
                tuple(float(value) for value in payload["attrs"]),
                float(payload["time"]),
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed wire entry: {exc}") from None


def change_to_wire(change: ResultChange) -> Dict[str, Any]:
    spec = {
        "qid": change.qid,
        "cause": change.cause,
        "added": [entry_to_wire(entry) for entry in change.added],
        "removed": [entry_to_wire(entry) for entry in change.removed],
        "top": [entry_to_wire(entry) for entry in change.top],
    }
    if change.bound is not None:
        # Only a contracted query's cycle changes certify a bound;
        # every other delta omits the key.
        spec["bound"] = change.bound
    return spec


def change_from_wire(payload: Dict[str, Any]) -> ResultChange:
    try:
        bound = payload.get("bound")
        return ResultChange(
            qid=int(payload["qid"]),
            added=[entry_from_wire(e) for e in payload["added"]],
            removed=[entry_from_wire(e) for e in payload["removed"]],
            top=[entry_from_wire(e) for e in payload["top"]],
            cause=str(payload["cause"]),
            bound=None if bound is None else float(bound),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed wire change: {exc}") from None


def entries_from_wire(payload: List[Dict[str, Any]]) -> List[ResultEntry]:
    return [entry_from_wire(item) for item in payload]


def entries_to_wire(entries: List[ResultEntry]) -> List[Dict[str, Any]]:
    return [entry_to_wire(entry) for entry in entries]


# ----------------------------------------------------------------------
# Query specifications
# ----------------------------------------------------------------------


WireQuery = Union[TopKQuery, ThresholdQuery]


def _wire_weights(query: WireQuery) -> List[float]:
    function = query.function
    if not isinstance(function, LinearFunction):
        raise ProtocolError(
            f"only LinearFunction preferences are wire-serialisable; "
            f"{type(function).__name__} is not"
        )
    return list(function.weights)


def query_to_wire(query: object) -> Dict[str, Any]:
    if isinstance(query, ThresholdQuery):
        return {
            "kind": "threshold",
            "weights": _wire_weights(query),
            "threshold": query.threshold,
            "label": query.label,
        }
    if isinstance(query, TopKQuery):
        if type(query) is not TopKQuery:
            raise ProtocolError(
                f"{type(query).__name__} is not wire-serialisable "
                "(supported kinds: topk, threshold)"
            )
        spec = {
            "kind": "topk",
            "weights": _wire_weights(query),
            "k": query.k,
            "label": query.label,
        }
        accuracy = getattr(query, "accuracy", None)
        if accuracy is not None:
            spec["accuracy"] = {
                "epsilon": float(accuracy.epsilon),
                "delta": float(accuracy.delta),
            }
        return spec
    raise ProtocolError(
        f"unsupported query type {type(query).__name__}"
    )


def query_from_wire(payload: Dict[str, Any]) -> WireQuery:
    try:
        kind = payload.get("kind", "topk")
        weights = [float(value) for value in payload["weights"]]
        label = str(payload.get("label", ""))
        if kind == "topk":
            query = TopKQuery(
                LinearFunction(weights),
                k=int(payload["k"]),
                label=label,
            )
            accuracy = payload.get("accuracy")
            if accuracy is not None:
                query.accuracy = Accuracy(
                    float(accuracy["epsilon"]),
                    float(accuracy.get("delta", 0.01)),
                )
            return query
        if kind == "threshold":
            return ThresholdQuery(
                LinearFunction(weights),
                threshold=float(payload["threshold"]),
                label=label,
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed wire query: {exc}") from None
    raise ProtocolError(f"unknown query kind {kind!r}")


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------


def error_to_wire(exc: BaseException) -> Dict[str, str]:
    return {"type": type(exc).__name__, "message": str(exc)}


def raise_from_wire(payload: Optional[Dict[str, Any]]) -> NoReturn:
    """Re-raise a server-side error client-side, mapping the repro
    error taxonomy back onto the local exception classes."""
    from repro.core.errors import QueryError, StreamError

    payload = payload or {}
    kind = payload.get("type", "ServerError")
    message = payload.get("message", "unknown server error")
    if kind == "QueryError":
        raise QueryError(message)
    if kind == "StreamError":
        raise StreamError(message)
    if kind == "ProtocolError":
        raise ProtocolError(message)
    raise ServiceError(f"{kind}: {message}")


class ServiceError(ReproError):
    """Server-side failure with no more specific local class."""
