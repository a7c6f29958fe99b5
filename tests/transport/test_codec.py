"""Round trips and corruption guards for the TCP shard codec.

The codec must carry the worker RPC protocol's exact internal shapes
across a socket with every float64 bit intact (the precondition for
bitwise remote-shard parity) and treat malformed frames as protocol
errors, never as allocation requests or silent truncation.
"""

import json
import math
import struct
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.memory import SpaceBreakdown
from repro.core.scoring import LinearFunction, QuadraticFunction
from repro.core.tuples import StreamRecord
from repro.core.window import RecordStore
from repro.service.protocol import ProtocolError
from repro.transport import codec
from repro.transport.snapshot import decode_cycle

from tests.conftest import arrival_columns, store_holding


def make_records(rows, start_rid=0, start_time=0.0):
    return [
        StreamRecord(start_rid + index, tuple(row), start_time + index)
        for index, row in enumerate(rows)
    ]


def body_of(frame):
    body = frame[codec.HEADER_BYTES:]
    assert codec.body_length(frame[: codec.HEADER_BYTES]) == len(body)
    return body


def roundtrip_request(command, payload):
    frame = codec.frame_message(codec.encode_request(command, payload))
    return codec.decode_request(codec.decode_body(body_of(frame)))


def roundtrip_reply(command, payload):
    frame = codec.frame_message(codec.encode_reply(command, payload))
    return codec.decode_reply(command, codec.decode_body(body_of(frame)))


def raw_body(header, blocks=b""):
    """A frame body spelled by hand (what a hostile peer can write);
    ``header`` is a dict or the header's JSON text itself."""
    text = header if isinstance(header, str) else json.dumps(header)
    head = text.encode("utf-8")
    return struct.pack("<I", len(head)) + head + blocks


class TestFraming:
    def test_protocol_revision(self):
        # Revision 6 is the binary columnar frame with expired ids and
        # (score, rid) reply columns; hosts refuse others.
        assert codec.SHARD_PROTOCOL_VERSION == 6

    def test_frame_grammar(self):
        frame = codec.frame_message(({"op": "ping"}, []))
        head = b'{"op":"ping"}'
        assert frame == (
            struct.pack(">I", 4 + len(head))
            + struct.pack("<I", len(head))
            + head
        )

    def test_blocks_are_declared_and_little_endian(self):
        block = array("d", [1.5, -2.0])
        frame = codec.frame_message(({"op": "x"}, [array("q", [7]), block]))
        header, blocks = codec.decode_body(body_of(frame))
        assert header == {"op": "x"}  # the block table is consumed
        assert blocks == [array("q", [7]), block]
        assert frame.endswith(struct.pack("<q2d", 7, 1.5, -2.0))

    def test_oversized_body_rejected_on_encode(self, monkeypatch):
        monkeypatch.setattr(codec, "MAX_FRAME_BYTES", 16)
        with pytest.raises(ProtocolError, match="frame ceiling"):
            codec.frame_message(({"op": "ping"}, [array("d", [0.0] * 4)]))

    def test_corrupt_header_rejected_on_decode(self):
        huge = (codec.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            codec.body_length(huge)

    def test_decodes_from_any_bytes_like(self):
        frame = codec.frame_message(({"op": "x"}, [array("d", [0.25])]))
        for body in (
            body_of(frame),
            bytearray(body_of(frame)),
            memoryview(frame)[codec.HEADER_BYTES:],
        ):
            assert codec.decode_body(body) == (
                {"op": "x"},
                [array("d", [0.25])],
            )


def decode(payload, held=()):
    """A cycle payload decoded into a store already holding ``held``:
    ``(arrivals, expirations)`` as the store's records."""
    store = store_holding(held) if held else RecordStore(
        len(payload[1][2]) // max(1, len(payload[1][0])) or 2
    )
    arrived, expired = decode_cycle(payload, store)
    return store.records(arrived), store.records(expired)


class TestCycleRequests:
    def test_cycle_deltas_roundtrip_bitwise(self):
        arrivals = make_records(
            [[0.1, 0.2], [0.7071067811865476, 1e-300], [0.0, 1.0]]
        )
        old = make_records([[0.5, 0.5]], start_rid=100)
        frame = codec.encode_cycle_request(arrival_columns(arrivals), [100])
        command, payload = codec.decode_request(
            codec.decode_body(body_of(frame))
        )
        assert command == "cycle"
        got_arrivals, got_expirations = decode(payload, old)
        for got, want in zip(got_arrivals, arrivals):
            assert got.rid == want.rid
            assert got.time == want.time
            for a, b in zip(got.attrs, want.attrs):
                assert a.hex() == b.hex()
        assert got_expirations[0] is old[0]

    def test_one_cycle_encoder(self):
        """``encode_cycle_request`` is the ``cycle`` arm of
        ``encode_request`` applied to the arrivals' columns."""
        arrivals = make_records([[0.25, 0.75], [1.0, 0.0]])
        payload = (
            "cols",
            ([0, 1], [0.0, 1.0], [(0.25, 0.75), (1.0, 0.0)]),
            [9],
        )
        assert codec.encode_cycle_request(arrival_columns(arrivals), [9]) == (
            codec.frame_message(codec.encode_request("cycle", payload))
        )

    def test_cols_snapshot_payload_accepted(self):
        payload = (
            "cols",
            ([0, 1], [0.0, 1.0], [[0.25, 0.75], [1.0, 0.0]]),
            [],
        )
        command, decoded = roundtrip_request("cycle", payload)
        assert command == "cycle"
        assert decoded[0] == "cols"
        arrivals, expirations = decode(decoded)
        assert [r.rid for r in arrivals] == [0, 1]
        assert expirations == []

    def test_expirations_are_one_id_block(self):
        """An expired record's time and attributes never travel: the
        request is the arrival columns plus one int64 id block."""
        header, blocks = codec.encode_request(
            "cycle", ("cols", ([], [], []), [5, 3])
        )
        assert header == {"op": "cycle", "dims": 0}
        assert [block.typecode for block in blocks] == list("qddq")
        assert [list(block) for block in blocks] == [[], [], [], [5, 3]]

    def test_record_columns_never_travel_as_json(self):
        frame = codec.encode_cycle_request(
            arrival_columns(make_records([[0.123456789, 0.5]], start_rid=424242)),
            [515151],
        )
        header_len = struct.unpack_from("<I", frame, 4)[0]
        header = frame[8 : 8 + header_len]
        assert b"424242" not in header and b"0.123456789" not in header
        assert b"515151" not in header

    def test_shm_snapshot_payload_never_crosses_the_wire(self):
        with pytest.raises(ProtocolError):
            codec.encode_request(
                "cycle", ("shm", "psm_name", (2, 2), [0, 1], [0.0, 1.0], [])
            )

    @pytest.mark.parametrize(
        "columns",
        [
            ([1, 2], [0.0], [[0.5]]),  # short times
            ([1], [0.0], [[0.5], [0.25]]),  # long rows
            ([1, 2], [0.0, 1.0], [[0.5], [0.5, 0.25]]),  # ragged rows
        ],
    )
    def test_ragged_columns_rejected_on_encode(self, columns):
        with pytest.raises(ProtocolError, match="ragged"):
            codec.encode_request("cycle", ("cols", columns, []))

    def test_rid_outside_int64_is_a_protocol_error(self):
        record = StreamRecord(2**63, (0.5,), 0.0)
        with pytest.raises(ProtocolError, match="int64"):
            codec.encode_cycle_request(arrival_columns([record]), [])
        with pytest.raises(ProtocolError, match="int64"):
            codec.encode_cycle_request(([], [], []), [2**63])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_attribute_refused_at_encode(self, bad):
        with pytest.raises(ProtocolError, match="non-finite"):
            codec.encode_cycle_request(
                arrival_columns(make_records([[0.5, bad]])), []
            )

    def test_overflowing_sum_of_finite_values_is_accepted(self):
        """The cheap finiteness test (a finite sum) trips on overflow;
        the exact scan behind it must then clear the block."""
        records = make_records([[1.7e308, 1.7e308, -1.7e308]])
        frame = codec.encode_cycle_request(arrival_columns(records), [])
        _, payload = codec.decode_request(codec.decode_body(body_of(frame)))
        assert decode(payload)[0] == records


class TestQueryRequests:
    def test_register_many_roundtrip(self):
        from repro.core.queries import TopKQuery

        queries = []
        for qid, weights in enumerate([[0.6, 0.4], [1.0, 1e-17]]):
            query = TopKQuery(LinearFunction(weights), k=qid + 1)
            query.qid = qid + 10
            queries.append(query)
        command, decoded = roundtrip_request("register_many", queries)
        assert command == "register_many"
        assert [q.qid for q in decoded] == [10, 11]
        assert [q.k for q in decoded] == [1, 2]
        for got, want in zip(decoded, queries):
            for a, b in zip(got.function.weights, want.function.weights):
                assert a.hex() == b.hex()

    def test_quadratic_function_rejected_locally(self):
        from repro.core.queries import TopKQuery

        query = TopKQuery(QuadraticFunction([0.5, 0.5]), k=2)
        query.qid = 3
        with pytest.raises(ProtocolError):
            codec.encode_request("register_many", [query])

    def test_update_roundtrip(self):
        command, decoded = roundtrip_request(
            "update", (7, 4, LinearFunction([0.3, 0.7]))
        )
        assert command == "update"
        qid, k, function = decoded
        assert (qid, k) == (7, 4)
        assert isinstance(function, LinearFunction)
        assert function.weights[1].hex() == (0.7).hex()

    def test_update_spec_only_changes(self):
        _, decoded = roundtrip_request("update", (7, None, None))
        assert decoded == (7, None, None)

    def test_update_quadratic_rejected(self):
        with pytest.raises(ProtocolError):
            codec.encode_request(
                "update", (7, None, QuadraticFunction([0.5, 0.5]))
            )

    def test_unregister_and_bare_ops(self):
        assert roundtrip_request("unregister", 9) == ("unregister", 9)
        for op in ("stats", "space", "ping", "stop"):
            assert roundtrip_request(op, None) == (op, None)

    def test_control_ops_are_header_only_frames(self):
        for command, payload in [
            ("ping", None),
            ("unregister", 3),
            ("configure", {"protocol": codec.SHARD_PROTOCOL_VERSION}),
        ]:
            assert codec.encode_request(command, payload)[1] == []

    def test_unknown_command_rejected(self):
        with pytest.raises(ProtocolError):
            codec.encode_request("fork_bomb", None)
        with pytest.raises(ProtocolError):
            codec.decode_request(({"op": "fork_bomb"}, []))

    @pytest.mark.parametrize("qid", ["7", 7.0, None, True])
    def test_non_integer_qid_rejected(self, qid):
        with pytest.raises(ProtocolError):
            codec.encode_request("unregister", qid)
        with pytest.raises(ProtocolError):
            codec.decode_request(({"op": "unregister", "qid": qid}, []))
        with pytest.raises(ProtocolError):
            codec.decode_request(
                ({"op": "update", "qid": qid, "k": None, "weights": None}, [])
            )


def listed(columns):
    return [list(column) for column in columns]


#: a cycle reply's six columns with nothing in them.
NO_CHANGES = ([], [], [], [], [], [])


class TestReplies:
    def test_cycle_reply_roundtrip(self):
        columns = ([2, 9], [1, 0], [0, 2], [0.123456789012345678], [5], [3, 4])
        status, payload = roundtrip_reply(
            "cycle", (columns, {"arrivals": 4}, None)
        )
        assert status == "ok"
        decoded, counters, metrics = payload
        assert counters == {"arrivals": 4}
        assert metrics is None
        assert listed(decoded) == listed(columns)
        assert decoded[3][0].hex() == columns[3][0].hex()

    def test_cycle_reply_is_six_columns(self):
        """int blocks of qids, added counts and removed counts, plus
        added scores, added rids and removed rids: no top, no record
        time or attributes, no cause, bound or dims."""
        columns = ([4, 3], [1, 0], [1, 0], [0.75], [1], [2])
        header, blocks = codec.encode_reply("cycle", (columns, {}, None))
        assert header == {"ok": True, "counters": {}}
        assert [block.typecode for block in blocks] == list("qqqdqq")
        assert listed(blocks) == listed(columns)

    def test_cycle_reply_carries_metrics_delta(self):
        delta = {
            "counters": {"repro_delivery_dropped_total": 2},
            "gauges": {"repro_transport_inflight_cycles": 0.125},
            "histograms": {
                "repro_phase_traversal_seconds": {
                    "bounds": [0.001, 0.1],
                    "bucket_counts": [3, 1, 0],
                    "sum": 0.0625,
                    "count": 4,
                }
            },
        }
        status, payload = roundtrip_reply(
            "cycle", (NO_CHANGES, {"arrivals": 1}, delta)
        )
        assert status == "ok"
        _, counters, metrics = payload
        assert counters == {"arrivals": 1}
        assert metrics == delta

    def test_register_many_reply_roundtrip(self):
        columns = ([3, 1, 2], [1, 2, 0], [0.25, 1e-300, 0.5], [1, 2, 4])
        status, payload = roundtrip_reply(
            "register_many", (columns, {"topk_computations": 2})
        )
        assert status == "ok"
        decoded, counters = payload
        assert listed(decoded) == listed(columns)
        assert decoded[2][1].hex() == (1e-300).hex()
        assert counters == {"topk_computations": 2}

    def test_update_reply_roundtrip(self):
        columns = ([0.75, 0.5], [2, 4])
        status, (decoded, counters) = roundtrip_reply(
            "update", (columns, {"a": 1})
        )
        assert status == "ok" and counters == {"a": 1}
        assert listed(decoded) == listed(columns)

    def test_entry_replies_carry_no_record_contents(self):
        """Only ``(score, rid)`` pairs: every block of an entry-bearing
        reply is a count, an id or a score."""
        for command, columns in [
            ("register_many", ([1], [1], [0.5], [7])),
            ("update", ([0.5], [7])),
        ]:
            header, blocks = codec.encode_reply(command, (columns, {}))
            assert header == {"ok": True, "counters": {}}
            assert listed(blocks) == listed(columns)

    def test_stats_reply_roundtrip(self):
        status, payload = roundtrip_reply(
            "stats", (({4: 2, 1: 5}, 17), {"influence_checks": 3})
        )
        assert status == "ok"
        (sizes, il_entries), counters = payload
        assert sizes == {1: 5, 4: 2}
        assert il_entries == 17
        assert counters == {"influence_checks": 3}

    def test_space_reply_roundtrip(self):
        breakdown = SpaceBreakdown(
            records=1024, point_lists=96, influence_lists=256
        )
        status, payload = roundtrip_reply("space", breakdown)
        assert status == "ok"
        assert isinstance(payload, SpaceBreakdown)
        assert payload.records == 1024
        assert payload.influence_lists == 256
        assert payload.total == breakdown.total

    def test_ping_and_stop_replies(self):
        assert roundtrip_reply("ping", "pong") == ("ok", "pong")
        assert roundtrip_reply("stop", None) == ("ok", None)

    def test_error_reply_carries_traceback_text(self):
        frame = codec.frame_message(
            codec.encode_error_reply("Traceback ...\nBoom")
        )
        status, payload = codec.decode_reply(
            "cycle", codec.decode_body(body_of(frame))
        )
        assert status == "error"
        assert "Boom" in payload

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_never_crosses_the_wire(self, bad):
        for command, payload in [
            ("cycle", (([2], [1], [0], [bad], [5], []), {}, None)),
            ("register_many", (([2], [1], [bad], [5]), {})),
            ("update", (([bad], [5]), {})),
        ]:
            with pytest.raises(ProtocolError):
                codec.frame_message(codec.encode_reply(command, payload))

    def test_a_column_short_of_the_layout_is_refused_at_decode(self):
        message = codec.encode_reply("cycle", (([], [], [], [], []), {}, None))
        with pytest.raises(ProtocolError, match="expected 'qqqdqq'"):
            codec.decode_reply("cycle", message)


# ----------------------------------------------------------------------
# Round-trip property: every float64 bit pattern that may cross, does
# ----------------------------------------------------------------------

finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         1e-300, 1e300, -1e300, 0.1, 1.7976931348623157e308]
    ),
)
rid_values = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def record_batches(draw):
    """(dims, arrivals, expirations) with one width for both batches."""
    dims = draw(st.integers(min_value=1, max_value=6))
    record = st.builds(
        StreamRecord,
        rid_values,
        st.lists(finite, min_size=dims, max_size=dims).map(tuple),
        finite,
    )
    # A rid names one record (ids are assigned in arrival order).
    batch = st.lists(record, max_size=8, unique_by=lambda item: item.rid)
    return dims, draw(batch), draw(batch)


def hexed(record):
    return (
        record.rid,
        record.time.hex(),
        tuple(value.hex() for value in record.attrs),
    )


def hexed_columns(columns):
    return [
        [getattr(value, "hex", lambda: value)() for value in column]
        for column in columns
    ]


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(record_batches())
    def test_cycle_request_is_bitwise(self, batches):
        _, arrivals, expirations = batches
        frame = codec.encode_cycle_request(
            arrival_columns(arrivals), [record.rid for record in expirations]
        )
        command, payload = codec.decode_request(
            codec.decode_body(memoryview(frame)[codec.HEADER_BYTES:])
        )
        assert command == "cycle"
        got_arrivals, got_expirations = decode(payload, expirations)
        assert list(map(hexed, got_arrivals)) == list(map(hexed, arrivals))
        assert [record.rid for record in got_expirations] == [
            record.rid for record in expirations
        ]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_cycle_reply_is_bitwise(self, data):
        changes = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=2**40),
                    st.lists(st.tuples(finite, rid_values), max_size=5),
                    st.lists(rid_values, max_size=5),
                ),
                max_size=4,
            )
        )
        columns = (
            [qid for qid, _, _ in changes],
            [len(added) for _, added, _ in changes],
            [len(removed) for _, _, removed in changes],
            [score for _, added, _ in changes for score, _ in added],
            [rid for _, added, _ in changes for _, rid in added],
            [rid for _, _, removed in changes for rid in removed],
        )
        status, (decoded, counters, _) = roundtrip_reply(
            "cycle", (columns, {"arrivals": 3}, None)
        )
        assert status == "ok" and counters == {"arrivals": 3}
        assert hexed_columns(decoded) == hexed_columns(columns)


# ----------------------------------------------------------------------
# Hostile frames: every case is a ProtocolError within the call
# ----------------------------------------------------------------------


def doubles(*values):
    return struct.pack(f"<{len(values)}d", *values)


def longs(*values):
    return struct.pack(f"<{len(values)}q", *values)


def cycle_body(ins=1, **overrides):
    """A well-formed cycle request body of ``ins`` two-attribute
    arrivals and no expirations, spelled field by field; ``overrides``
    corrupt its header."""
    header = {
        "op": "cycle",
        "dims": 2,
        "blocks": [["q", ins], ["d", ins], ["d", ins * 2], ["q", 0]],
    }
    header.update(overrides)
    return raw_body(header, longs(*[7] * ins) + doubles(*[0.5] * (ins * 3)))


def reply_body(
    qids=(1,), added=(1,), removed=(0,), scores=(0.5,), rids=(7,),
    gone=(), **overrides,
):
    """A well-formed cycle reply body (one change adding rid 7 by
    default), spelled column by column; ``overrides`` corrupt its
    header."""
    columns = [qids, added, removed, scores, rids, gone]
    header = {
        "ok": True,
        "counters": {},
        "blocks": [
            [typecode, len(column)]
            for typecode, column in zip("qqqdqq", columns)
        ],
    }
    header.update(overrides)
    return raw_body(
        header,
        longs(*qids) + longs(*added) + longs(*removed)
        + doubles(*scores) + longs(*rids) + longs(*gone),
    )


def register_body(qids=(1,), counts=(1,), scores=(0.5,), rids=(7,)):
    columns = [qids, counts, scores, rids]
    header = {
        "ok": True,
        "counters": {},
        "blocks": [
            [typecode, len(column)]
            for typecode, column in zip("qqdq", columns)
        ],
    }
    return raw_body(
        header,
        longs(*qids) + longs(*counts) + doubles(*scores) + longs(*rids),
    )


class TestHostileFrames:
    def test_the_hand_built_bodies_are_well_formed(self):
        command, payload = codec.decode_request(
            codec.decode_body(cycle_body())
        )
        assert command == "cycle"
        assert decode(payload)[0] == [
            StreamRecord(7, (0.5, 0.5), 0.5)
        ]
        for command, body in [
            ("cycle", reply_body()),
            ("register_many", register_body()),
        ]:
            status, _ = codec.decode_reply(command, codec.decode_body(body))
            assert status == "ok"

    @pytest.mark.parametrize(
        "body",
        [
            b"",
            b"\x01\x00",  # truncated header length
            struct.pack("<I", 50) + b'{"op":"ping"}',  # header_len > body
            struct.pack("<I", 2**32 - 1),
            struct.pack("<I", 3) + b"[1]",  # header is not an object
            struct.pack("<I", 4) + b"\xff\xfe{}",  # not UTF-8
            raw_body({"op": "ping"}) + b"\x00",  # trailing garbage
            cycle_body()[:-1],  # truncated block
            cycle_body() + b"\x00" * 8,  # over-long body
        ],
    )
    def test_body_level_corruption(self, body):
        with pytest.raises(ProtocolError):
            codec.decode_body(body)

    @pytest.mark.parametrize(
        "blocks",
        [
            [["d", 10**30]],  # over-runs: never allocated
            [["d", 2**62]],
            [["d", 0]],  # under-runs a body that carries one value
            [["d", 2]],
            [["d", -1]],
            [["d", 1.0]],
            [["d", True]],
            [["d", "1"]],
            [["f", 1]],  # unknown dtype
            [["d"]],
            [["d", 1, 1]],
            ["d", 1],
            "d1",
            {"d": 1},
        ],
    )
    def test_block_table_corruption(self, blocks):
        body = raw_body({"op": "x", "blocks": blocks}, doubles(0.5))
        with pytest.raises(ProtocolError):
            codec.decode_body(body)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_bytes_refused_at_decode(self, bad, position):
        values = [0.5, 0.5, 0.5]
        values[position] = bad
        body = raw_body(
            {"op": "x", "blocks": [["d", 1], ["d", 2]]}, doubles(*values)
        )
        with pytest.raises(ProtocolError, match="non-finite"):
            codec.decode_body(body)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize(
        "header",
        [
            '{"ok":true,"counters":{"arrivals":BAD}}',
            '{"op":"update","qid":1,"k":null,"weights":[BAD,1.0]}',
            '{"op":"register_many","queries":[{"kind":"topk","k":1,'
            '"weights":[0.5,BAD],"qid":1}]}',
            '{"ok":true,"counters":{},"metrics":{"gauges":{"g":BAD}}}',
        ],
    )
    def test_non_finite_header_floats_refused_at_decode(self, header, bad):
        """JSON spells no NaN/inf, but ``json.loads`` reads the bare
        words and overflows ``1e999`` to inf; the header parser must not."""
        with pytest.raises(ProtocolError, match="non-finite"):
            codec.decode_body(raw_body(header.replace("BAD", bad)))

    @pytest.mark.parametrize(
        "header",
        ['{"op":' + "[" * 100_000, '{"op":"ping","qid":' + "9" * 5000 + "}"],
    )
    def test_pathological_header_json_is_a_protocol_error(self, header):
        with pytest.raises(ProtocolError, match="undecodable"):
            codec.decode_body(raw_body(header))

    @pytest.mark.parametrize(
        "body",
        [
            cycle_body(dims=3),  # attrs block is not ins x dims
            cycle_body(dims=0),
            cycle_body(dims=-2),
            cycle_body(dims=2.0),
            cycle_body(dims=None),
            cycle_body(blocks=[["q", 1], ["d", 1], ["d", 2]]),  # 3 of 4
            cycle_body(  # dtypes out of order
                blocks=[["d", 1], ["q", 1], ["d", 2], ["q", 0]]
            ),
            cycle_body(  # two rids, one time
                ins=2, blocks=[["q", 2], ["d", 1], ["d", 5], ["q", 0]]
            ),
            cycle_body(  # the rev-5 expiration columns (ids, times, attrs)
                blocks=[["q", 1], ["d", 1], ["d", 2],
                        ["q", 0], ["d", 0], ["d", 0]]
            ),
            cycle_body(  # expired ids as floats
                blocks=[["q", 1], ["d", 1], ["d", 1], ["d", 1]]
            ),
            raw_body({"op": "fork_bomb"}),
            raw_body({"dims": 2}),
            raw_body({"op": "ping", "blocks": [["d", 1]]}, doubles(0.5)),
            raw_body({"op": "unregister", "qid": "7"}),
            raw_body({"op": "register_many", "queries": [{"kind": "nope"}]}),
        ],
    )
    def test_request_level_corruption(self, body):
        with pytest.raises(ProtocolError):
            codec.decode_request(codec.decode_body(body))

    @pytest.mark.parametrize(
        "body",
        [
            cycle_body(sketch=4),  # the rev-4 sketch tick, no blocks
            raw_body(  # the rev-4 sketch tick with its four int blocks
                {"op": "cycle", "dims": 2, "sketch": 5,
                 "blocks": [["q", 0], ["d", 0], ["d", 0], ["q", 0]]
                 + [["q", 1]] * 4},
                longs(1, 1, 1, 1),
            ),
            raw_body({"op": "sketch"}),  # the rev-4 introspection op
        ],
    )
    def test_rev4_sketch_frames_are_refused(self, body):
        with pytest.raises(ProtocolError):
            codec.decode_request(codec.decode_body(body))

    def test_sketch_is_no_longer_an_op(self):
        with pytest.raises(ProtocolError):
            codec.encode_request("sketch", None)

    @pytest.mark.parametrize(
        "columns",
        [
            {"added": (2,)},  # counts claim more than the columns hold
            {"added": (0,)},  # counts claim fewer
            {"removed": (1,)},  # a removal the rid column lacks
            {"removed": (0,), "gone": (3,)},  # a rid no count claims
            {  # sums right, negative count
                "qids": (1, 2), "added": (2, -1),
                "removed": (0, 0),
            },
            {"removed": (-1,), "gone": ()},
            {"qids": (1, 2)},  # two qids, one count row
            {"scores": (0.5, 0.25)},  # two scores, one added rid
        ],
    )
    def test_change_counts_must_match_the_columns(self, columns):
        with pytest.raises(ProtocolError):
            codec.decode_reply(
                "cycle", codec.decode_body(reply_body(**columns))
            )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"counters": [1, 2]},
            {"counters": {"arrivals": "many"}},
            {"blocks": [["q", 1], ["q", 1], ["q", 1], ["d", 1], ["q", 1]]},
            {  # qids as floats
                "blocks": [["d", 1], ["q", 1], ["q", 1],
                           ["d", 1], ["q", 1], ["q", 0]]
            },
            {  # added rids as floats
                "blocks": [["q", 1], ["q", 1], ["q", 1],
                           ["d", 1], ["d", 1], ["q", 0]]
            },
        ],
    )
    def test_reply_column_corruption(self, overrides):
        with pytest.raises(ProtocolError):
            codec.decode_reply(
                "cycle", codec.decode_body(reply_body(**overrides))
            )

    def test_a_rev5_entry_table_is_refused(self):
        """Rev 5 sent each entry's score, rid, time and attributes and
        the change rows in the header; rev 6 refuses that reply."""
        header = {
            "ok": True, "dims": 1, "counters": {},
            "changes": [[1, "cycle", 1, 0, 1, None]],
            "blocks": [["d", 2], ["q", 2], ["d", 2], ["d", 2]],
        }
        body = raw_body(
            header,
            doubles(0.5, 0.5) + longs(7, 7) + doubles(1.0, 1.0)
            + doubles(0.25, 0.25),
        )
        with pytest.raises(ProtocolError, match="expected 'qqqdqq'"):
            codec.decode_reply("cycle", codec.decode_body(body))

    @pytest.mark.parametrize(
        "columns",
        [
            {"counts": (2,)},
            {"counts": (0,)},
            {"qids": (1, 2), "counts": (-1, 2), "scores": (0.5,)},
            {"qids": (1, 2)},
            {"rids": (7, 8)},
        ],
    )
    def test_register_many_counts_must_match_the_columns(self, columns):
        with pytest.raises(ProtocolError):
            codec.decode_reply(
                "register_many", codec.decode_body(register_body(**columns))
            )

    def test_update_columns_must_pair_up(self):
        body = raw_body(
            {"ok": True, "counters": {}, "blocks": [["d", 2], ["q", 1]]},
            doubles(0.5, 0.25) + longs(7),
        )
        with pytest.raises(ProtocolError, match="ragged"):
            codec.decode_reply("update", codec.decode_body(body))

    def test_header_only_replies_refuse_blocks(self):
        body = raw_body(
            {"ok": True, "counters": {}, "blocks": [["d", 1]]}, doubles(0.5)
        )
        with pytest.raises(ProtocolError):
            codec.decode_reply("unregister", codec.decode_body(body))

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=96))
    def test_random_bytes_never_escape_the_error_type(self, body):
        try:
            message = codec.decode_body(body)
            codec.decode_request(message)
        except ProtocolError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_flipped_byte_never_escapes_the_error_type(self, data):
        """A valid frame with one byte changed decodes to *something* or
        raises ProtocolError — no other exception, on either decoder."""
        frame = bytearray(
            codec.frame_message(
                codec.encode_reply(
                    "cycle",
                    (
                        ([2, 3], [1, 0], [1, 1], [0.5], [5], [4, 6]),
                        {"arrivals": 1},
                        None,
                    ),
                )
            )
        )
        body = frame[codec.HEADER_BYTES:]
        index = data.draw(st.integers(min_value=0, max_value=len(body) - 1))
        body[index] = data.draw(st.integers(min_value=0, max_value=255))
        try:
            codec.decode_reply("cycle", codec.decode_body(body))
        except ProtocolError:
            pass
