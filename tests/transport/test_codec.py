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
from repro.core.results import ResultChange, ResultEntry
from repro.core.scoring import LinearFunction, QuadraticFunction
from repro.core.tuples import StreamRecord
from repro.service.protocol import ProtocolError
from repro.transport import codec
from repro.transport.snapshot import decode_cycle


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
        # Revision 5 is the binary columnar frame without sketch
        # blocks; hosts refuse others.
        assert codec.SHARD_PROTOCOL_VERSION == 5

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


class TestCycleRequests:
    def test_cycle_deltas_roundtrip_bitwise(self):
        arrivals = make_records(
            [[0.1, 0.2], [0.7071067811865476, 1e-300], [0.0, 1.0]]
        )
        expirations = make_records([[0.5, 0.5]], start_rid=100)
        frame = codec.encode_cycle_request(arrivals, expirations)
        command, payload = codec.decode_request(
            codec.decode_body(body_of(frame))
        )
        assert command == "cycle"
        got_arrivals, got_expirations = decode_cycle(payload)
        for got, want in zip(got_arrivals, arrivals):
            assert got.rid == want.rid
            assert got.time == want.time
            for a, b in zip(got.attrs, want.attrs):
                assert a.hex() == b.hex()
        assert [r.rid for r in got_expirations] == [100]

    def test_one_cycle_encoder(self):
        """``encode_cycle_request`` is the ``cycle`` arm of
        ``encode_request`` applied to the records' columns."""
        arrivals = make_records([[0.25, 0.75], [1.0, 0.0]])
        payload = (
            "cols",
            ([0, 1], [0.0, 1.0], [(0.25, 0.75), (1.0, 0.0)]),
            ([], [], []),
        )
        assert codec.encode_cycle_request(arrivals, []) == (
            codec.frame_message(codec.encode_request("cycle", payload))
        )

    def test_cols_snapshot_payload_accepted(self):
        payload = (
            "cols",
            ([0, 1], [0.0, 1.0], [[0.25, 0.75], [1.0, 0.0]]),
            ([], [], []),
        )
        command, decoded = roundtrip_request("cycle", payload)
        assert command == "cycle"
        assert decoded[0] == "cols"
        arrivals, expirations = decode_cycle(decoded)
        assert [r.rid for r in arrivals] == [0, 1]
        assert expirations == []

    def test_record_columns_never_travel_as_json(self):
        frame = codec.encode_cycle_request(
            make_records([[0.123456789, 0.5]], start_rid=424242), []
        )
        header_len = struct.unpack_from("<I", frame, 4)[0]
        header = frame[8 : 8 + header_len]
        assert b"424242" not in header and b"0.123456789" not in header

    def test_shm_snapshot_payload_never_crosses_the_wire(self):
        with pytest.raises(ProtocolError):
            codec.encode_request(
                "cycle", ("shm", "psm_name", (2, 2), [0, 1], [0.0, 1.0],
                          [], [])
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
            codec.encode_request("cycle", ("cols", columns, ([], [], [])))

    def test_mixed_widths_between_batches_rejected(self):
        with pytest.raises(ProtocolError):
            codec.encode_cycle_request(
                make_records([[0.5, 0.5]]), make_records([[0.5]])
            )

    def test_rid_outside_int64_is_a_protocol_error(self):
        record = StreamRecord(2**63, (0.5,), 0.0)
        with pytest.raises(ProtocolError, match="int64"):
            codec.encode_cycle_request([record], [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_attribute_refused_at_encode(self, bad):
        with pytest.raises(ProtocolError, match="non-finite"):
            codec.encode_cycle_request(make_records([[0.5, bad]]), [])

    def test_overflowing_sum_of_finite_values_is_accepted(self):
        """The cheap finiteness test (a finite sum) trips on overflow;
        the exact scan behind it must then clear the block."""
        records = make_records([[1.7e308, 1.7e308, -1.7e308]])
        frame = codec.encode_cycle_request(records, [])
        _, payload = codec.decode_request(codec.decode_body(body_of(frame)))
        assert decode_cycle(payload)[0] == records


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


def make_entry(rid, score):
    return ResultEntry(score, StreamRecord(rid, (score, 1.0 - score), 0.0))


class TestReplies:
    def test_cycle_reply_roundtrip(self):
        entry = make_entry(5, 0.123456789012345678)
        change = ResultChange(
            qid=2, added=[entry], removed=[], top=[entry]
        )
        status, payload = roundtrip_reply(
            "cycle", ({2: change}, {"arrivals": 4}, None)
        )
        assert status == "ok"
        changes, counters, metrics = payload
        assert counters == {"arrivals": 4}
        assert metrics is None
        got = changes[2].top[0]
        assert got.rid == 5
        assert got.score.hex() == entry.score.hex()
        assert got.record.attrs == entry.record.attrs
        assert changes[2].added == [entry] and changes[2].removed == []

    def test_cycle_reply_is_one_entry_table(self):
        first, second = make_entry(1, 0.75), make_entry(2, 0.5)
        changes = {
            4: ResultChange(qid=4, added=[first], removed=[second],
                            top=[first]),
            3: ResultChange(qid=3, top=[first, second], bound=0.0125),
        }
        header, blocks = codec.encode_reply("cycle", (changes, {}, None))
        assert header["changes"] == [
            [3, "cycle", 0, 0, 2, 0.0125],
            [4, "cycle", 1, 1, 1, None],
        ]
        assert [block.typecode for block in blocks] == list("dqdd")
        assert list(blocks[1]) == [1, 2, 1, 2, 1]  # rids, row per entry
        _, (decoded, _, _) = codec.decode_reply("cycle", (header, blocks))
        assert list(decoded) == [3, 4]
        assert decoded[3].bound == 0.0125 and decoded[3].cause == "cycle"
        assert decoded[4].bound is None
        assert decoded[4].removed == [second]

    def test_cycle_reply_carries_metrics_delta(self):
        entry = make_entry(7, 0.5)
        change = ResultChange(qid=1, added=[entry], removed=[], top=[entry])
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
            "cycle", ({1: change}, {"arrivals": 1}, delta)
        )
        assert status == "ok"
        _, counters, metrics = payload
        assert counters == {"arrivals": 1}
        assert metrics == delta

    def test_register_many_reply_roundtrip(self):
        per_qid = {
            3: [make_entry(1, 0.25)],
            1: [make_entry(2, 1e-300), make_entry(4, 0.5)],
            2: [],
        }
        status, payload = roundtrip_reply(
            "register_many", (per_qid, {"topk_computations": 2})
        )
        assert status == "ok"
        decoded, counters = payload
        assert decoded == per_qid
        assert decoded[1][0].score.hex() == (1e-300).hex()
        assert counters == {"topk_computations": 2}

    def test_update_reply_roundtrip(self):
        entries = [make_entry(2, 0.75), make_entry(4, 0.5)]
        status, payload = roundtrip_reply("update", (entries, {"a": 1}))
        assert (status, payload) == ("ok", (entries, {"a": 1}))

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
        scored = ResultChange(
            qid=2, top=[make_entry(5, 0.5)._replace(score=bad)]
        )
        bounded = ResultChange(qid=2, bound=bad)
        for change in (scored, bounded):
            with pytest.raises(ProtocolError):
                codec.frame_message(
                    codec.encode_reply("cycle", ({2: change}, {}, None))
                )


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


def entry_hexed(entry):
    return (entry.score.hex(), hexed(entry.record))


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(record_batches())
    def test_cycle_request_is_bitwise(self, batches):
        _, arrivals, expirations = batches
        frame = codec.encode_cycle_request(arrivals, expirations)
        command, payload = codec.decode_request(
            codec.decode_body(memoryview(frame)[codec.HEADER_BYTES:])
        )
        assert command == "cycle"
        got_arrivals, got_expirations = decode_cycle(payload)
        assert list(map(hexed, got_arrivals)) == list(map(hexed, arrivals))
        assert list(map(hexed, got_expirations)) == list(
            map(hexed, expirations)
        )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_cycle_reply_is_bitwise(self, data):
        _, pool, _ = data.draw(record_batches())
        entries = (
            st.lists(
                st.builds(ResultEntry, finite, st.sampled_from(pool)),
                max_size=5,
            )
            if pool
            else st.just([])
        )
        change = st.builds(
            ResultChange,
            qid=st.integers(min_value=0, max_value=2**40),
            added=entries,
            removed=entries,
            top=entries,
            cause=st.sampled_from(["cycle", "update", "resync"]),
            bound=st.one_of(st.none(), finite),
        )
        changes = {
            item.qid: item for item in data.draw(st.lists(change, max_size=4))
        }
        status, (decoded, counters, _) = roundtrip_reply(
            "cycle", (changes, {"arrivals": 3}, None)
        )
        assert status == "ok" and counters == {"arrivals": 3}
        assert list(decoded) == sorted(changes)
        for qid, want in changes.items():
            got = decoded[qid]
            assert (got.qid, got.cause) == (want.qid, want.cause)
            assert (got.bound is None) == (want.bound is None)
            if want.bound is not None:
                assert got.bound.hex() == want.bound.hex()
            for name in ("added", "removed", "top"):
                assert list(map(entry_hexed, getattr(got, name))) == list(
                    map(entry_hexed, getattr(want, name))
                )


# ----------------------------------------------------------------------
# Hostile frames: every case is a ProtocolError within the call
# ----------------------------------------------------------------------


def doubles(*values):
    return struct.pack(f"<{len(values)}d", *values)


def longs(*values):
    return struct.pack(f"<{len(values)}q", *values)


def cycle_body(ins=1, **overrides):
    """A well-formed cycle request body of ``ins`` two-attribute
    arrivals, spelled field by field; ``overrides`` corrupt its header."""
    header = {
        "op": "cycle",
        "dims": 2,
        "blocks": [["q", ins], ["d", ins], ["d", ins * 2],
                   ["q", 0], ["d", 0], ["d", 0]],
    }
    header.update(overrides)
    return raw_body(header, longs(*[7] * ins) + doubles(*[0.5] * (ins * 3)))


def reply_body(rows, scores=(0.5,), **overrides):
    count = len(scores)
    header = {
        "ok": True,
        "dims": 1,
        "counters": {},
        "changes": rows,
        "blocks": [["d", count], ["q", count], ["d", count], ["d", count]],
    }
    header.update(overrides)
    blocks = (
        doubles(*scores)
        + longs(*range(count))
        + doubles(*[0.0] * count)
        + doubles(*[0.25] * count)
    )
    return raw_body(header, blocks)


class TestHostileFrames:
    def test_the_hand_built_bodies_are_well_formed(self):
        command, payload = codec.decode_request(
            codec.decode_body(cycle_body())
        )
        assert command == "cycle"
        assert decode_cycle(payload)[0] == [StreamRecord(7, (0.5, 0.5), 0.5)]
        rows = [[1, "cycle", 0, 0, 1, None]]
        status, _ = codec.decode_reply(
            "cycle", codec.decode_body(reply_body(rows))
        )
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
            '{"ok":true,"dims":1,"counters":{},'
            '"changes":[[1,"cycle",0,0,0,BAD]]}',  # a change's bound
            '{"op":"update","qid":1,"k":null,"weights":[BAD,1.0]}',
            '{"op":"register_many","queries":[{"kind":"topk","k":1,'
            '"weights":[0.5,BAD],"qid":1}]}',
            '{"ok":true,"dims":1,"counters":{},"changes":[],'
            '"metrics":{"gauges":{"g":BAD}}}',
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
            cycle_body(blocks=[["q", 1], ["d", 1], ["d", 2]]),  # 3 of 6
            cycle_body(  # dtypes out of order
                blocks=[["d", 1], ["q", 1], ["d", 2],
                        ["q", 0], ["d", 0], ["d", 0]]
            ),
            cycle_body(  # two rids, one time
                ins=2,
                blocks=[["q", 2], ["d", 1], ["d", 5],
                        ["q", 0], ["d", 0], ["d", 0]],
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
                 "blocks": [["q", 0], ["d", 0], ["d", 0]] * 2
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
        "rows",
        [
            [[1, "cycle", 0, 0, 2, None]],  # claims more than the table
            [[1, "cycle", 0, 0, 0, None]],  # claims fewer
            [[1, "cycle", 1, 1, -1, None]],  # sums right, negative count
            [[1, "cycle", 0, 0, 1.0, None]],
            [[1, "cycle", 0, 0, "1", None]],
            [["1", "cycle", 0, 0, 1, None]],
            [[1.5, "cycle", 0, 0, 1, None]],
            [[1, "cycle", 0, 0, 1]],  # short row
            [[1, "cycle", 0, 0, 1, "tight"]],
            "nope",
            None,
        ],
    )
    def test_change_rows_must_match_the_entry_table(self, rows):
        with pytest.raises(ProtocolError):
            codec.decode_reply("cycle", codec.decode_body(reply_body(rows)))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"dims": 2},
            {"dims": 0},
            {"dims": "1"},
            {"counters": [1, 2]},
            {"counters": {"arrivals": "many"}},
            {"blocks": [["d", 1], ["q", 1], ["d", 2]]},  # 3 of 4 blocks
            {"blocks": [["q", 1], ["d", 1], ["d", 1], ["d", 1]]},
            {"blocks": [["d", 2], ["q", 1], ["d", 1], ["d", 0]]},  # ragged
        ],
    )
    def test_entry_table_corruption(self, overrides):
        body = reply_body([[1, "cycle", 0, 0, 1, None]], **overrides)
        with pytest.raises(ProtocolError):
            codec.decode_reply("cycle", codec.decode_body(body))

    @pytest.mark.parametrize(
        "times, attrs, ok",
        [
            ((1.0, 1.0), (0.25, 0.25), True),
            ((1.0, 2.0), (0.25, 0.25), False),  # same rid, another time
            ((1.0, 1.0), (0.25, 0.75), False),  # same rid, another row
        ],
    )
    def test_a_repeated_rid_must_repeat_its_record(self, times, attrs, ok):
        """Records are rebuilt once per rid, so a table that gives one
        rid two contents would have one of them silently rewritten."""
        header = {
            "ok": True, "dims": 1, "counters": {},
            "changes": [[1, "cycle", 1, 0, 1, None]],
            "blocks": [["d", 2], ["q", 2], ["d", 2], ["d", 2]],
        }
        body = raw_body(
            header,
            doubles(0.5, 0.5) + longs(7, 7) + doubles(*times) + doubles(*attrs),
        )
        if not ok:
            with pytest.raises(ProtocolError, match="repeats a record id"):
                codec.decode_reply("cycle", codec.decode_body(body))
            return
        _, (changes, _, _) = codec.decode_reply(
            "cycle", codec.decode_body(body)
        )
        assert changes[1].added[0].record is changes[1].top[0].record

    def test_register_many_rows_must_match_the_entry_table(self):
        for results in ([[1, 2]], [[1, 0]], [[1, -1], [2, 2]], [[1.0, 1]]):
            body = reply_body(None, results=results)
            with pytest.raises(ProtocolError):
                codec.decode_reply(
                    "register_many", codec.decode_body(body)
                )

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
                        {2: ResultChange(qid=2, top=[make_entry(5, 0.5)])},
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
