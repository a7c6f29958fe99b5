"""Wire-protocol round trips: framing, entries, changes, queries."""

import math
import random

import pytest

from repro.core.errors import QueryError, StreamError
from repro.core.queries import ConstrainedTopKQuery, ThresholdQuery, TopKQuery
from repro.core.regions import Rectangle
from repro.core.results import ResultChange, ResultEntry
from repro.core.scoring import LinearFunction, ProductFunction
from repro.core.tuples import StreamRecord
from repro.service import protocol


def random_entry(rng, rid):
    return ResultEntry(
        rng.random() * rng.choice([1.0, 1e-12, 1e12]),
        StreamRecord(
            rid,
            tuple(rng.random() for _ in range(3)),
            rng.random() * 100,
        ),
    )


class TestFraming:
    def test_line_round_trip(self):
        message = {"id": 3, "op": "ping", "nested": {"a": [1, 2.5]}}
        line = protocol.encode_line(message)
        assert line.endswith(b"\n")
        assert protocol.decode_line(line) == message

    def test_garbage_line_raises(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b"not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b"[1, 2]\n")

    def test_nan_scores_rejected_at_encode(self):
        with pytest.raises(ValueError):
            protocol.encode_line({"score": math.nan})


class TestEntriesAndChanges:
    def test_entry_round_trip_is_bitwise(self):
        rng = random.Random(11)
        for rid in range(50):
            entry = random_entry(rng, rid)
            line = protocol.encode_line(protocol.entry_to_wire(entry))
            rebuilt = protocol.entry_from_wire(protocol.decode_line(line))
            # Bitwise: NamedTuple equality on floats after a full
            # JSON round trip (repr-faithful doubles).
            assert rebuilt == entry
            assert rebuilt.key == entry.key

    def test_change_round_trip(self):
        rng = random.Random(7)
        change = ResultChange(
            qid=9,
            added=[random_entry(rng, 1)],
            removed=[random_entry(rng, 2), random_entry(rng, 3)],
            top=[random_entry(rng, rid) for rid in range(4, 9)],
            cause="resync",
        )
        wire = protocol.change_to_wire(change)
        rebuilt = protocol.change_from_wire(
            protocol.decode_line(protocol.encode_line(wire)), {}
        )
        assert rebuilt == change

    def test_malformed_entry_raises(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.entry_from_wire({"score": 1.0})


class TestQueries:
    def test_topk_round_trip(self):
        query = TopKQuery(
            LinearFunction([0.25, 1.5, -0.75]), k=7, label="leaders"
        )
        rebuilt = protocol.query_from_wire(protocol.query_to_wire(query))
        assert isinstance(rebuilt, TopKQuery)
        assert rebuilt.k == 7
        assert rebuilt.label == "leaders"
        assert rebuilt.function.weights == query.function.weights

    def test_threshold_round_trip(self):
        query = ThresholdQuery(
            LinearFunction([1.0, 1.0]), threshold=1.7, label="alarm"
        )
        rebuilt = protocol.query_from_wire(protocol.query_to_wire(query))
        assert isinstance(rebuilt, ThresholdQuery)
        assert rebuilt.threshold == 1.7

    def test_non_linear_function_rejected(self):
        query = TopKQuery(ProductFunction([0.5, 0.5]), k=3)
        with pytest.raises(protocol.ProtocolError):
            protocol.query_to_wire(query)

    def test_constrained_query_rejected(self):
        query = ConstrainedTopKQuery(
            LinearFunction([1.0, 1.0]),
            k=3,
            constraint=Rectangle((0.0, 0.0), (0.5, 0.5)),
        )
        with pytest.raises(protocol.ProtocolError):
            protocol.query_to_wire(query)

    def test_unknown_kind_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.query_from_wire({"kind": "skyline", "weights": [1.0]})


class TestErrors:
    def test_error_taxonomy_maps_back(self):
        for exc, kind in (
            (QueryError("gone"), QueryError),
            (StreamError("closed"), StreamError),
            (protocol.ProtocolError("bad"), protocol.ProtocolError),
        ):
            with pytest.raises(kind):
                protocol.raise_from_wire(protocol.error_to_wire(exc))

    def test_unknown_error_becomes_service_error(self):
        with pytest.raises(protocol.ServiceError):
            protocol.raise_from_wire(
                {"type": "WeirdError", "message": "boom"}
            )
        with pytest.raises(protocol.ServiceError):
            protocol.raise_from_wire(None)
