"""Hostile input at the service socket, both ways.

Toward the server: the shard codec's hostile-frame cases
(``tests/transport/test_codec.py::TestHostileFrames``) as protocol
lines sent to a real :class:`MonitorServer`. Each gets a typed error
reply and the connection stays open — a ping on the same socket still
answers.

Toward the client: a scripted stand-in server feeds
:class:`MonitorClient` malformed events and deltas it cannot apply.
The stream they were meant for ends with ``ProtocolError`` (every
stream, for a line that does not decode at all); requests keep
working. A peer of another protocol revision is refused at ``hello``
in both directions.
"""

import json
import socket
import threading

import pytest

from repro.core.engine import StreamMonitor
from repro.core.window import CountBasedWindow
from repro.service import MonitorClient, MonitorServer, protocol


@pytest.fixture(scope="module")
def server():
    monitor = StreamMonitor(
        2, CountBasedWindow(40), algorithm="tma", cells_per_axis=4
    )
    served = MonitorServer(monitor)
    served.start()
    with MonitorClient(*served.address) as client:
        client.process([[0.25, 0.5], [0.75, 0.125], [0.5, 0.5]])
        client.add_query(weights=[1.0, 1.0], k=2)
    yield served
    served.stop()
    monitor.close()


class RawConnection:
    """A socket speaking lines, with no client library in between."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30)
        self.rfile = self.sock.makefile("rb")

    def send(self, line: bytes) -> dict:
        self.sock.sendall(line + b"\n")
        reply = self.rfile.readline()
        assert reply, "the server closed the connection"
        return json.loads(reply)

    def close(self):
        self.rfile.close()
        self.sock.close()


@pytest.fixture
def raw(server):
    connection = RawConnection(server.address)
    yield connection
    connection.close()


def assert_still_open(raw):
    reply = raw.send(b'{"id":99,"op":"ping"}')
    assert reply == {"id": 99, "ok": True, "pong": True}


NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999"]

CARRIERS = [
    '{"id":1,"op":"process","rows":[[BAD,0.5]]}',
    '{"id":1,"op":"add_query","query":{"kind":"topk","k":2,'
    '"weights":[0.5,BAD]}}',
    '{"id":1,"op":"update","qid":1,"k":null,"weights":[BAD,1.0]}',
    '{"id":1,"op":"ping","extra":{"nested":[BAD]}}',
]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("carrier", CARRIERS)
def test_non_finite_floats_get_a_protocol_error(raw, carrier, bad):
    reply = raw.send(carrier.replace("BAD", bad).encode())
    assert reply["ok"] is False
    assert reply["error"]["type"] == "ProtocolError"
    assert "non-finite" in reply["error"]["message"]
    assert_still_open(raw)


@pytest.mark.parametrize(
    "line",
    [
        b"[" * 5000 + b"]" * 5000,  # nesting past the recursion limit
        b'{"op":' + b"[" * 100_000,
        b'{"id":1,"op":"ping","qid":' + b"9" * 5000 + b"}",
        b"\xff\xfe{}",  # not UTF-8
        b"[1]",  # not an object
        b'{"op":"ping"} trailing',
        b"",
    ],
    ids=["deep-5000", "deep-100000", "long-int", "utf8", "array",
         "trailing", "empty"],
)
def test_undecodable_lines_get_a_protocol_error(raw, line):
    reply = raw.send(line)
    assert reply["id"] is None
    assert reply["ok"] is False
    assert reply["error"]["type"] == "ProtocolError"
    assert_still_open(raw)


@pytest.mark.parametrize(
    "query, kind",
    [
        ('{"weights":[1.0,1.0],"k":2.5}', "QueryError"),
        ('{"weights":[1.0,1.0],"k":true}', "QueryError"),
        ('{"weights":[1.0,1.0],"k":"2"}', "QueryError"),
        ('{"weights":[1.0,1.0],"k":1e400}', "ProtocolError"),
        ('{"weights":[1.0,' + "9" * 400 + '],"k":2}', "QueryError"),
        ('{"kind":"threshold","weights":[1.0,1.0],"threshold":"x"}',
         "QueryError"),
        ('{"weights":"1.0","k":2}', "ProtocolError"),
        ('{"weights":[true,1.0],"k":2}', "QueryError"),
        ('[1.0]', "ProtocolError"),
    ],
)
def test_query_specs_get_the_in_process_refusal(raw, server, query, kind):
    before = len(server.monitor.query_table)
    reply = raw.send(
        b'{"id":5,"op":"add_query","query":' + query.encode() + b"}"
    )
    assert reply["ok"] is False
    assert reply["error"]["type"] == kind
    assert len(server.monitor.query_table) == before
    assert_still_open(raw)


@pytest.fixture
def two_queries():
    """A fresh server holding queries 0 and 1 (``true`` and ``1.9``
    would coerce onto query 1)."""
    monitor = StreamMonitor(
        2, CountBasedWindow(40), algorithm="tma", cells_per_axis=4
    )
    served = MonitorServer(monitor)
    served.start()
    with MonitorClient(*served.address) as client:
        client.process([[0.25, 0.5], [0.75, 0.125], [0.5, 0.5]])
        client.add_query(weights=[1.0, 1.0], k=2)
        client.add_query(weights=[1.0, 0.5], k=1)
    connection = RawConnection(served.address)
    yield served, connection
    connection.close()
    served.stop()
    monitor.close()


@pytest.mark.parametrize(
    "op", ["result", "update", "pause", "resume", "cancel", "subscribe"]
)
@pytest.mark.parametrize("qid", [b"true", b"1.9", b'"1"', b"null"])
def test_a_qid_that_is_not_an_int_is_refused(two_queries, op, qid):
    """The query ops take the qid the client sent; a bool, a float or a
    string is a ``QueryError``, never coerced onto query 1."""
    served, raw = two_queries
    before = [
        (handle.qid, handle.state, handle.query.k)
        for handle in served.monitor.handles()
    ]
    reply = raw.send(
        b'{"id":7,"op":"' + op.encode() + b'","qid":' + qid + b',"k":3}'
    )
    if op == "subscribe" and qid == b"null":
        assert reply["ok"] is True  # no qid: the monitor-wide stream
        return
    assert reply["ok"] is False
    assert reply["error"]["type"] == "QueryError"
    assert "query id must be an integer" in reply["error"]["message"]
    assert [
        (handle.qid, handle.state, handle.query.k)
        for handle in served.monitor.handles()
    ] == before
    assert_still_open(raw)


@pytest.mark.parametrize("hello", [b'{"id":1,"op":"hello"}',
                                   b'{"id":1,"op":"hello","protocol":1}',
                                   b'{"id":1,"op":"hello","protocol":"2"}'])
def test_the_server_refuses_another_revision(raw, hello):
    reply = raw.send(hello)
    assert reply["ok"] is False
    assert reply["error"]["type"] == "ProtocolError"
    assert "revision" in reply["error"]["message"]
    reply = raw.send(b'{"id":2,"op":"hello","protocol":2}')
    assert reply["ok"] is True and reply["protocol"] == 2


# ----------------------------------------------------------------------
# The client against a scripted server
# ----------------------------------------------------------------------


class ScriptedServer:
    """Answers ``hello`` with ``revision``, ``subscribe`` with the
    next sub id followed by ``events[sub]`` (raw lines), and any other
    op with an empty success; records every request it reads."""

    def __init__(self, revision=protocol.PROTOCOL_VERSION, events=None):
        self.revision = revision
        self.events = events or {}
        self.requests = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _ = self._listener.accept()
        subs = 0
        with conn, conn.makefile("rb") as rfile:
            for line in rfile:
                request = json.loads(line)
                self.requests.append(request)
                reply = {"id": request["id"], "ok": True}
                out = []
                if request["op"] == "hello":
                    reply["protocol"] = self.revision
                elif request["op"] == "subscribe":
                    subs += 1
                    reply.update(sub=subs, policy="block", maxlen=8)
                    out = self.events.get(subs, [])
                elif request["op"] == "ping":
                    reply["pong"] = True
                conn.sendall(
                    b"".join(
                        [protocol.encode_line(reply)]
                        + [event + b"\n" for event in out]
                    )
                )

    def close(self):
        self._listener.close()


def event(sub, **fields):
    return protocol.encode_line(
        {"event": "change", "sub": sub, "ts": 0.0, **fields}
    )[:-1]


ENTRY = {"score": 0.5, "rid": 1, "attrs": [0.25, 0.25], "time": 0.0}


def full(sub):
    return event(sub, qid=1, cause="register", added=[ENTRY], removed=[],
                 top=[ENTRY])


@pytest.mark.parametrize("revision", [1, None, "2"])
def test_the_client_refuses_another_revision(revision):
    scripted = ScriptedServer(revision=revision)
    try:
        with pytest.raises(protocol.ProtocolError, match="revision"):
            MonitorClient(*scripted.address, timeout=10)
        assert scripted.requests[0]["protocol"] == protocol.PROTOCOL_VERSION
    finally:
        scripted.close()


HOSTILE_EVENTS = {
    "delta before full": [
        event(1, qid=1, cause="cycle", added=[], removed=[1]),
    ],
    "removes an unheld rid": [
        full(1), event(1, qid=1, cause="cycle", added=[], removed=[7]),
    ],
    "adds a held rid": [
        full(1),
        event(1, qid=1, cause="cycle", added=[[0.5, 1, 0.0, 0.25, 0.25]],
              removed=[]),
    ],
    "short row": [
        full(1), event(1, qid=1, cause="cycle", added=[[0.5]], removed=[]),
    ],
    "text score": [
        full(1),
        event(1, qid=1, cause="cycle", added=[["nan", 2, 0.0, 0.5, 0.5]],
              removed=[]),
    ],
    "float qid": [event(1, qid=1.0, cause="register", added=[], removed=[],
                        top=[])],
    "missing removed": [full(1), event(1, qid=1, cause="cycle", added=[])],
    "non-finite score": [
        full(1),
        b'{"event":"change","sub":1,"qid":1,"cause":"cycle",'
        b'"added":[[Infinity,2,0.0,0.5,0.5]],"removed":[]}',
    ],
    "deep nesting": [full(1), b"[" * 5000 + b"]" * 5000],
}


@pytest.mark.parametrize("name", sorted(HOSTILE_EVENTS))
def test_an_event_the_client_cannot_apply_ends_its_stream(name):
    scripted = ScriptedServer(events={1: HOSTILE_EVENTS[name]})
    client = MonitorClient(*scripted.address, timeout=10)
    try:
        stream = client.subscribe()
        changes = []
        with pytest.raises(protocol.ProtocolError):
            while True:
                change = stream.get(timeout=10)
                assert change is not None, "the stream ended without error"
                changes.append(change)
        assert stream.closed
        # Every change before the bad event came through, rebuilt.
        assert [c.top for c in changes] == [
            [protocol.entry_from_wire(ENTRY)]
        ] * (len(HOSTILE_EVENTS[name]) - 1)
        # The error stays: a later get raises it again.
        with pytest.raises(protocol.ProtocolError):
            stream.get(timeout=1)
        # The connection still serves requests, and the stream was
        # unsubscribed server-side.
        assert client.ping()
        assert any(
            request["op"] == "unsubscribe" and request["sub"] == 1
            for request in scripted.requests
        )
    finally:
        client.close()
        scripted.close()


def test_an_undecodable_line_ends_every_stream():
    scripted = ScriptedServer(events={2: [full(2), b"{not json"]})
    client = MonitorClient(*scripted.address, timeout=10)
    try:
        first = client.subscribe()
        second = client.subscribe()
        assert second.get(timeout=10).cause == "register"
        for stream in (first, second):
            with pytest.raises(protocol.ProtocolError, match="undecodable"):
                stream.get(timeout=10)
        assert client.ping()
    finally:
        client.close()
        scripted.close()
