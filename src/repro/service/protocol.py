"""Line-delimited JSON wire protocol of the serving runtime, revision 2.

One message per line (``\\n``-terminated UTF-8 JSON object). Three
message shapes travel the socket:

**Requests** (client → server)::

    {"id": 7, "op": "add_query", "query": {"kind": "topk",
     "weights": [1.0, 2.0], "k": 10, "label": "leaders"}}

**Responses** (server → client; ``id`` echoes the request)::

    {"id": 7, "ok": true, "qid": 3, "result": [ENTRY, ...]}
    {"id": 7, "ok": false, "error": {"type": "QueryError",
     "message": "unknown or terminated query id 3 (...)"}}

**Events** (server → client, unsolicited; one per delivered change)::

    {"event": "change", "sub": 2, "ts": 1721923200.125,
     "qid": 3, "cause": "register",
     "added": [ENTRY, ...], "removed": [ENTRY, ...],
     "top": [ENTRY, ...]}                                  (full)
    {"event": "change", "sub": 2, "ts": 1721923200.145,
     "qid": 3, "cause": "cycle",
     "added": [[score, rid, time, attr, ...], ...],
     "removed": [rid, ...]}                                (delta)
    {"event": "closed", "sub": 2}

where ``ENTRY`` is ``{"score": float, "rid": int, "attrs": [float,
...], "time": float}`` and ``ts`` is the server's ``time.time()``
stamp taken when the change entered the subscriber's delivery queue
(latency = client receipt time − ts, meaningful on one host).

**Full and delta events.** A subscription's first event of a query,
its first after a ``drop_oldest`` drop, and every event whose cause
may rescore the entries a client holds (``register``, ``update``,
``resume``, ``resync``) are *full*: they carry ``top``. Every other
event (``cycle`` and ``cancel``) is a *delta* against the ``top``
the client already holds for that query: no ``top``, ``added`` as
rows that always carry their record, ``removed`` as record ids. The
client rebuilds the full :class:`~repro.core.results.ResultChange`
with :func:`repro.core.results.rebuild_change`, the rebuild the shard
coordinator uses; a delta its cache cannot apply is a
:class:`ProtocolError`, never a silently wrong ``top``.

**Exactness over the wire.** Scores and attributes are IEEE-754
doubles; Python's JSON encoder emits ``repr``-faithful floats and the
decoder parses them back to the identical double, so a rebuilt remote
change is *bitwise* equal to the server's — the same parity contract
the in-process subscription layer pins.

**Hostile input.** Every line is parsed by :func:`decode_object`, the
one guarded JSON decoder the shard codec's frame headers share: NaN,
``Infinity`` and overflowing literals such as ``1e999`` are refused,
and so is nesting past the interpreter's recursion limit — each as a
:class:`ProtocolError`, which the server answers without closing the
connection.

Only :class:`~repro.core.scoring.LinearFunction` preferences cross the
wire (a weights list); arbitrary callables are not serialisable and
are rejected with :class:`ProtocolError`. Supported query kinds:
``topk`` and ``threshold``; ``k``, the weights and the threshold reach
the query constructors exactly as sent, so the service refuses what
the in-process facade refuses. A top-k spec may carry an optional
``"accuracy": {"epsilon", "delta"}`` contract
(:class:`~repro.core.queries.Accuracy`), and a change event an
optional ``"bound"`` — the certified relative rank error of that
change, ``0.0`` on a contracted query's cycle changes; both keys are
simply absent otherwise.
"""

from __future__ import annotations

import json
from math import isfinite
from typing import Any, Dict, List, NoReturn, Optional, Union

from repro.core.errors import ProtocolError, ReproError
from repro.core.queries import Accuracy, ThresholdQuery, TopKQuery
from repro.core.results import ResultChange, ResultEntry, rebuild_change
from repro.core.scoring import LinearFunction
from repro.core.tuples import StreamRecord

#: protocol revision, exchanged both ways in the ``hello`` op; a peer
#: speaking another one is refused there.
PROTOCOL_VERSION = 2

#: change causes that never rescore an entry the client holds, so they
#: may cross as deltas once the subscription has primed the query. A
#: rescoring change removes and re-adds a record under its new score,
#: which :func:`~repro.core.results.rebuild_change` refuses as a
#: repeated record id; ``update``, ``resume`` and ``resync`` (which
#: may fold either into its span) therefore travel full.
DELTA_CAUSES = frozenset({"cycle", "cancel"})


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


def _decode_float(text: str) -> float:
    value = float(text)  # "1e999" is valid JSON and parses to inf
    if not isfinite(value):
        raise ProtocolError(f"non-finite float {text!r}")
    return value


def _decode_constant(name: str) -> float:
    raise ProtocolError(f"non-finite float {name!r}")


_DECODER = json.JSONDecoder(
    parse_float=_decode_float, parse_constant=_decode_constant
)


def decode_object(raw: bytes, what: str) -> Dict[str, Any]:
    """UTF-8 JSON bytes → dict, or :class:`ProtocolError`.

    The one guarded decoder of both wires (service lines here, shard
    frame headers in :mod:`repro.transport.codec`): no float in the
    result is NaN or infinite, and nesting deeper than the
    interpreter's recursion limit, an integer past the str → int digit
    limit or bad UTF-8 is refused instead of escaping as
    ``RecursionError`` / ``ValueError``.
    """
    try:
        message = _DECODER.decode(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"undecodable {what}: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"{what} is not an object: {type(message).__name__}"
        )
    return message


def decode_line(line: bytes) -> Dict[str, Any]:
    """One received line → message dict."""
    return decode_object(line, "protocol line")


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


_NUMBERS = (float, int)


def _fields_from_wire(score: Any, rid: Any, time: Any, attrs: Any) -> ResultEntry:
    """Wire fields → an entry; a bool, text or other non-number where
    a number belongs is a :class:`ProtocolError` (``float("nan")`` of
    a string would otherwise slip past the guarded decoder)."""
    values = (score, time, *attrs)
    if type(rid) is not int or not all(
        type(value) in _NUMBERS for value in values
    ):
        raise ProtocolError(
            f"malformed wire entry: score {score!r}, rid {rid!r}, "
            f"time {time!r}, attrs {attrs!r}"
        )
    return ResultEntry(
        float(score), StreamRecord(rid, tuple(map(float, attrs)), float(time))
    )


def entry_from_wire(payload: Dict[str, Any]) -> ResultEntry:
    try:
        return _fields_from_wire(
            payload["score"], payload["rid"], payload["time"], payload["attrs"]
        )
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed wire entry: {exc!r}") from None


def change_to_wire(change: ResultChange, full: bool = True) -> Dict[str, Any]:
    """A change → its event fields: full (with ``top`` and entry
    objects) or a delta against the ``top`` the client holds."""
    if full:
        spec = {
            "qid": change.qid,
            "cause": change.cause,
            "added": [entry_to_wire(entry) for entry in change.added],
            "removed": [entry_to_wire(entry) for entry in change.removed],
            "top": [entry_to_wire(entry) for entry in change.top],
        }
    else:
        spec = {
            "qid": change.qid,
            "cause": change.cause,
            "added": [
                [score, record.rid, record.time, *record.attrs]
                for score, record in change.added
            ],
            "removed": [entry[1].rid for entry in change.removed],
        }
    if change.bound is not None:
        # Only a contracted query's cycle changes certify a bound;
        # every other change omits the key.
        spec["bound"] = change.bound
    return spec


def _row_from_wire(row: List[Any]) -> ResultEntry:
    score, rid, time, *attrs = row
    return _fields_from_wire(score, rid, time, attrs)


def change_from_wire(
    payload: Dict[str, Any], held: Dict[int, List[ResultEntry]]
) -> ResultChange:
    """One change event → the full change; ``held`` maps each query
    the subscription has primed to the ``top`` its last event left.

    A full event (it carries ``top``) primes ``held``; a delta is
    rebuilt against it by :func:`~repro.core.results.rebuild_change`.
    ``held`` forgets a query at its ``cancel``. Anything malformed, or
    a delta ``held`` cannot apply, is a :class:`ProtocolError`, and
    ``held`` is left as it was.
    """
    try:
        qid, cause = payload["qid"], payload["cause"]
        bound = payload.get("bound")
        if (
            type(qid) is not int
            or type(cause) is not str
            or not (bound is None or type(bound) is float)
        ):
            raise ProtocolError(
                f"malformed wire change: qid {qid!r}, cause {cause!r}, "
                f"bound {bound!r}"
            )
        if "top" in payload:
            change = ResultChange(
                qid=qid,
                added=[entry_from_wire(e) for e in payload["added"]],
                removed=[entry_from_wire(e) for e in payload["removed"]],
                top=[entry_from_wire(e) for e in payload["top"]],
                cause=cause,
                bound=bound,
            )
        else:
            cached = held.get(qid)
            if cached is None:
                raise ProtocolError(
                    f"a delta of query {qid} arrived before any full "
                    "event primed it"
                )
            removed = payload["removed"]
            if not all(type(rid) is int for rid in removed):
                raise ProtocolError(f"malformed removed ids {removed!r}")
            change = rebuild_change(
                qid,
                cached,
                [_row_from_wire(row) for row in payload["added"]],
                removed,
                cause,
                bound,
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed wire change: {exc!r}") from None
    if cause == "cancel":
        held.pop(qid, None)
    else:
        held[qid] = change.top
    return change


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
    """A query spec → the query, with ``k``, the weights and the
    threshold passed on exactly as sent: ``check_k``,
    :class:`~repro.core.scoring.LinearFunction` and
    :class:`~repro.core.queries.ThresholdQuery` refuse what they
    refuse in process (``"k": 2.5`` or ``true`` is a ``QueryError``,
    not a silent ``k=2`` or ``k=1``)."""
    try:
        kind = payload.get("kind", "topk")
        weights = payload["weights"]
        if not isinstance(weights, list):
            raise ProtocolError(f"weights must be a list, got {weights!r}")
        label = str(payload.get("label", ""))
        if kind == "topk":
            query = TopKQuery(
                LinearFunction(weights), k=payload["k"], label=label
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
                threshold=payload["threshold"],
                label=label,
            )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ProtocolError(f"malformed wire query: {exc!r}") from None
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
