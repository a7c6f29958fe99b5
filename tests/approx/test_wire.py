"""Wire shapes of the approximate tier: protocol and shard codec."""

import pytest

from repro.approx import Accuracy
from repro.core.queries import TopKQuery
from repro.core.results import ResultChange, ResultEntry
from repro.core.scoring import LinearFunction
from repro.core.tuples import RecordFactory
from repro.service.protocol import (
    ProtocolError,
    change_from_wire,
    change_to_wire,
    query_from_wire,
    query_to_wire,
)
from repro.transport import codec


class TestServiceProtocol:
    def test_query_accuracy_round_trip(self):
        query = TopKQuery(LinearFunction([0.25, 0.75]), k=3)
        query.accuracy = Accuracy(epsilon=0.05, delta=0.001)
        spec = query_to_wire(query)
        assert spec["accuracy"] == {"epsilon": 0.05, "delta": 0.001}
        back = query_from_wire(spec)
        assert back.accuracy == query.accuracy
        assert back.k == 3

    def test_uncontracted_query_keeps_v1_shape(self):
        spec = query_to_wire(TopKQuery(LinearFunction([1.0, 1.0]), k=2))
        assert "accuracy" not in spec
        assert query_from_wire(spec).accuracy is None

    def test_change_bound_round_trip(self):
        record = RecordFactory().make((0.5, 0.5))
        entry = ResultEntry(1.0, record)
        change = ResultChange(
            qid=4, added=[entry], top=[entry], cause="approx", bound=0.0125
        )
        spec = change_to_wire(change)
        assert spec["bound"] == 0.0125
        back = change_from_wire(spec)
        assert back.cause == "approx"
        assert back.bound == 0.0125

    def test_exact_change_omits_bound(self):
        change = ResultChange(qid=4, cause="cycle")
        spec = change_to_wire(change)
        assert "bound" not in spec
        assert change_from_wire(spec).bound is None


def sample_delta():
    return {
        "tick": 5,
        "add_cells": [0, 3, 7],
        "add_counts": [2, 1, 2],
        "drop_cells": [1],
        "drop_counts": [3],
    }


def roundtrip_request(command, payload):
    frame = codec.frame_message(codec.encode_request(command, payload))
    return codec.decode_request(codec.decode_body(frame[codec.HEADER_BYTES:]))


class TestShardCodec:
    def test_cycle_with_sketch_round_trip(self):
        arrivals_cols = ([1], [0.0], [[0.5, 0.5]])
        expirations_cols = ([], [], [])
        payload = ("cols", arrivals_cols, expirations_cols, sample_delta())
        command, decoded = roundtrip_request("cycle", payload)
        assert command == "cycle"
        assert decoded[0] == "cols"
        assert decoded[3] == sample_delta()

    def test_cycle_without_sketch_carries_no_sketch_blocks(self):
        payload = ("cols", ([], [], []), ([], [], []))
        header, blocks = codec.encode_request("cycle", payload)
        assert "sketch" not in header
        assert len(blocks) == 6
        command, decoded = roundtrip_request("cycle", payload)
        assert command == "cycle"
        assert len(decoded) == 3

    def test_sketch_columns_are_int64_blocks(self):
        header, blocks = codec.encode_request(
            "cycle", ("cols", ([], [], []), ([], [], []), sample_delta())
        )
        assert header["sketch"] == 5  # the tick; the columns are blocks
        assert [block.typecode for block in blocks[6:]] == list("qqqq")
        assert [list(block) for block in blocks[6:]] == [
            [0, 3, 7], [2, 1, 2], [1], [3]
        ]

    def test_encode_cycle_request_frame(self):
        factory = RecordFactory()
        arrivals = [factory.make((0.1, 0.9))]
        frame = codec.encode_cycle_request(arrivals, [], sample_delta())
        command, decoded = codec.decode_request(
            codec.decode_body(frame[codec.HEADER_BYTES:])
        )
        assert command == "cycle"
        assert decoded[3] == sample_delta()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d.pop("tick"),
            lambda d: d.pop("add_counts"),
            lambda d: d.__setitem__("add_counts", [1]),
            lambda d: d.__setitem__("drop_counts", []),
            lambda d: d.__setitem__("tick", "soon"),
            lambda d: d.__setitem__("add_cells", [0.5, 3, 7]),
            lambda d: d.__setitem__("drop_cells", [2**63]),
        ],
    )
    def test_malformed_sketch_delta_rejected(self, corrupt):
        delta = sample_delta()
        corrupt(delta)
        payload = ("cols", ([], [], []), ([], [], []), delta)
        with pytest.raises(codec.ProtocolError):
            roundtrip_request("cycle", payload)

    def test_sketch_op_is_bare(self):
        assert "sketch" in codec._BARE_OPS
        assert roundtrip_request("sketch", None) == ("sketch", None)

    def test_sketch_reply_round_trip(self):
        state = {
            "mode": "window",
            "tick": 12,
            "window": 80,
            "cells": [[3, [[10, 2], [12, 1]]]],
        }
        reply = codec.encode_reply("sketch", state)
        status, decoded = codec.decode_reply("sketch", reply)
        assert status == "ok"
        assert decoded == state

    def test_configure_round_trip(self):
        command, decoded = roundtrip_request(
            "configure", {"window_capacity": 96}
        )
        assert command == "configure"
        assert decoded == {"window_capacity": 96}

    def test_contracted_query_round_trip(self):
        query = TopKQuery(LinearFunction([0.5, 0.5]), k=2)
        query.accuracy = Accuracy(epsilon=0.1)
        query.qid = 7
        spec = codec.shard_query_to_wire(query)
        back = codec.shard_query_from_wire(spec)
        assert back.qid == 7
        assert back.accuracy == query.accuracy
