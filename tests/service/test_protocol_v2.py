"""Service protocol revision 2: full and delta change events, the
client-side rebuild, the guarded decoder both wires share, and query
specs that reach the constructors exactly as sent.

A change crosses as a *full* event (with ``top``) when the
subscription has not primed its query or its cause may rescore held
entries, and as a *delta* (added rows, removed ids, no ``top``)
otherwise; :func:`protocol.change_from_wire` turns either back into
the full :class:`ResultChange`, bitwise.
"""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import QueryError
from repro.core.queries import ThresholdQuery, TopKQuery
from repro.core.results import ResultChange, ResultEntry, diff_results
from repro.core.results import entries_best_first, merge_changes
from repro.core.tuples import StreamRecord
from repro.service import protocol
from repro.transport import codec

CAUSES = ["cycle", "cycle", "cycle", "resync", "update", "resume", "cancel"]

#: causes whose change may come from a new preference function, so the
#: entries a client holds can change score without leaving the result.
RESCORING = {"resync", "update", "resume"}


def hexed(entries):
    return [(entry.score.hex(), entry.record) for entry in entries]


def assert_same_change(got, want):
    assert (got.qid, got.cause, got.bound) == (want.qid, want.cause, want.bound)
    for name in ("added", "removed", "top"):
        assert hexed(getattr(got, name)) == hexed(getattr(want, name)), name


def over_the_wire(change, held, full):
    """Encode as the server does, frame, decode, rebuild."""
    line = protocol.encode_line(
        {
            "event": "change",
            "sub": 1,
            "ts": 0.5,
            **protocol.change_to_wire(change, full=full),
        }
    )
    return protocol.change_from_wire(protocol.decode_line(line), held)


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------

scores = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1.7976931348623157e308]),
)


@st.composite
def change_sequences(draw):
    """Per-query result states drawn over a small pool of records,
    scored by a per-query score map (all scores tied, sometimes) that
    a rescoring cause may redraw; diffed into the change sequence a
    subscription would see, each marked full or delta by the server's
    priming rule plus random forced full events (a drop re-primes)."""
    records = [
        StreamRecord(
            rid,
            tuple(draw(st.lists(scores, min_size=1, max_size=3))),
            draw(scores),
        )
        for rid in range(draw(st.integers(1, 12)))
    ]

    def score_map():
        if draw(st.booleans()):
            tied = draw(scores)
            return {record.rid: tied for record in records}
        return {record.rid: draw(scores) for record in records}

    states, maps = {}, {}
    sequence = []
    for _ in range(draw(st.integers(1, 25))):
        qid = draw(st.integers(0, 2))
        if qid not in states:
            cause = "register"
            maps[qid] = score_map()
        else:
            cause = draw(st.sampled_from(CAUSES))
            if cause in RESCORING and draw(st.booleans()):
                maps[qid] = score_map()
        members = draw(
            st.lists(st.sampled_from(records), unique_by=lambda r: r.rid)
        )
        new = entries_best_first(
            [ResultEntry(maps[qid][record.rid], record) for record in members]
        )
        if cause == "cancel":
            new = []
        bound = draw(st.sampled_from([None, 0.0]))
        change = diff_results(
            qid,
            states.get(qid, []),
            new,
            cause=cause,
            bound=bound,
            rescored=cause in RESCORING,
        )
        sequence.append((change, draw(st.booleans())))
        if cause == "cancel":
            del states[qid], maps[qid]
        else:
            states[qid] = new
    return sequence


@settings(max_examples=300, deadline=None)
@given(change_sequences())
def test_full_and_delta_events_rebuild_every_change_bitwise(sequence):
    held = {}
    primed = set()
    for change, forced_full in sequence:
        full = (
            forced_full
            or change.qid not in primed
            or change.cause not in protocol.DELTA_CAUSES
        )
        rebuilt = over_the_wire(change, held, full)
        assert_same_change(rebuilt, change)
        if change.cause == "cancel":
            primed.discard(change.qid)
            assert change.qid not in held
        else:
            primed.add(change.qid)
            assert hexed(held[change.qid]) == hexed(change.top)


def test_a_coalesced_change_rebuilds_against_what_the_client_holds():
    records = [StreamRecord(rid, (rid / 10,), 0.0) for rid in range(6)]
    entries = [ResultEntry(rid / 10, record) for rid, record in enumerate(records)]
    held_top = entries_best_first(entries[:3])
    older = diff_results(7, held_top, entries_best_first(entries[1:4]))
    newer = diff_results(
        7, older.top, entries_best_first(entries[2:3] + entries[4:6])
    )
    merged = merge_changes(older, newer)
    # The merged change is a delta against the pre-``older`` state.
    rebuilt = over_the_wire(
        ResultChange(7, merged.added, merged.removed, merged.top, "cycle"),
        {7: held_top},
        full=False,
    )
    assert hexed(rebuilt.top) == hexed(newer.top)


def test_a_delta_event_carries_no_top_and_no_attribute_objects():
    record = StreamRecord(3, (0.25, 0.5), 1.5)
    gone = StreamRecord(1, (0.125, 0.75), 1.0)
    change = ResultChange(
        4,
        added=[ResultEntry(0.75, record)],
        removed=[ResultEntry(0.5, gone)],
        top=[ResultEntry(0.75, record)],
    )
    assert protocol.change_to_wire(change, full=False) == {
        "qid": 4,
        "cause": "cycle",
        "added": [[0.75, 3, 1.5, 0.25, 0.5]],
        "removed": [1],
    }
    assert set(protocol.change_to_wire(change)) == {
        "qid", "cause", "added", "removed", "top",
    }


def test_update_and_resync_are_full_causes():
    assert protocol.DELTA_CAUSES == {"cycle", "cancel"}


# ----------------------------------------------------------------------
# The client's v2 event decoder refuses what it cannot apply
# ----------------------------------------------------------------------


def held_state():
    records = {rid: StreamRecord(rid, (rid / 10, 0.5), 0.0) for rid in range(5)}
    return {1: [ResultEntry(rid / 10, records[rid]) for rid in (2, 1)]}


def delta(**fields):
    event = {"qid": 1, "cause": "cycle", "added": [], "removed": []}
    event.update(fields)
    return event


@pytest.mark.parametrize(
    "event, message",
    [
        (delta(qid=9), "before any full event primed it"),
        (delta(removed=[4]), "removes record id 4, which its result"),
        (delta(removed=[2, 2]), "removes record id 2, which its result"),
        (delta(added=[[0.9, 2, 0.0, 0.2, 0.5]]), "repeats a record id"),
        (
            delta(added=[[0.9, 3, 0.0, 0.3, 0.5], [0.8, 3, 0.0, 0.3, 0.5]]),
            "repeats a record id",
        ),
        (
            delta(added=[[0.3, 3, 0.0, 0.3, 0.5], [0.4, 4, 0.0, 0.4, 0.5]]),
            "out of best-first order",
        ),
        (delta(added=[[0.9, 3]]), "malformed wire change"),
        (delta(added=[[0.9, True, 0.0, 0.3]]), "malformed wire entry"),
        (delta(added=[[0.9, 3.0, 0.0, 0.3]]), "malformed wire entry"),
        (delta(added=[["nan", 3, 0.0, 0.3]]), "malformed wire entry"),
        (delta(added=[[0.9, 3, 0.0, "0.3"]]), "malformed wire entry"),
        (delta(added=[[0.9, 3, None, 0.3]]), "malformed wire entry"),
        (delta(added=[{"score": 0.9, "rid": 3}]), "malformed wire"),
        (delta(added=7), "malformed wire change"),
        (delta(removed=[2.0]), "malformed removed ids"),
        (delta(removed=[True]), "malformed removed ids"),
        (delta(removed=[[2]]), "malformed removed ids"),
        (delta(removed=None), "malformed wire change"),
        (delta(qid="1"), "malformed wire change"),
        (delta(qid=True), "malformed wire change"),
        (delta(cause=None), "malformed wire change"),
        (delta(bound="0.0"), "malformed wire change"),
        ({"qid": 1, "cause": "cycle", "added": []}, "malformed wire change"),
        ({"cause": "cycle", "added": [], "removed": []}, "malformed"),
        (
            delta(top=[{"score": "nan", "rid": 3, "attrs": [], "time": 0.0}]),
            "malformed wire entry",
        ),
        (
            delta(top=[{"score": 0.5, "rid": 3, "attrs": "ab", "time": 0.0}]),
            "malformed wire entry",
        ),
        (delta(top=[{"score": 0.5, "rid": 3}]), "malformed wire entry"),
    ],
)
def test_a_delta_the_cache_cannot_apply_is_a_protocol_error(event, message):
    held = held_state()
    snapshot = copy.deepcopy(held)
    with pytest.raises(protocol.ProtocolError, match=message):
        protocol.change_from_wire(event, held)
    assert held == snapshot


# ----------------------------------------------------------------------
# One guarded decoder for both wires
# ----------------------------------------------------------------------


def test_the_shard_codec_uses_the_service_decoder():
    assert codec.decode_object is protocol.decode_object
    assert not hasattr(codec, "_HEADER_DECODER")


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize(
    "line",
    [
        '{"id":1,"op":"process","rows":[[BAD,0.5]]}',
        '{"id":1,"op":"add_query","query":{"weights":[BAD,1.0],"k":3}}',
        '{"event":"change","sub":1,"qid":1,"cause":"cycle",'
        '"added":[[BAD,3,0.0,0.5]],"removed":[]}',
    ],
)
def test_non_finite_floats_are_refused_at_decode(line, bad):
    with pytest.raises(protocol.ProtocolError, match="non-finite"):
        protocol.decode_line(line.replace("BAD", bad).encode())


@pytest.mark.parametrize(
    "line, message",
    [
        (b"[" * 5000 + b"]" * 5000, "undecodable"),
        (b'{"op":' + b"[" * 100_000, "undecodable"),
        (b'{"id":' + b"9" * 5000 + b"}", "undecodable"),
        (b"\xff\xfe{}", "undecodable"),
        (b"not json", "undecodable"),
        (b"[1, 2]", "not an object"),
        (b'"text"', "not an object"),
    ],
)
def test_pathological_lines_are_protocol_errors(line, message):
    with pytest.raises(protocol.ProtocolError, match=message):
        protocol.decode_line(line)


# ----------------------------------------------------------------------
# Query specs reach the constructors exactly as sent
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        {"weights": [1.0, 1.0], "k": 2.5},
        {"weights": [1.0, 1.0], "k": True},
        {"weights": [1.0, 1.0], "k": "3"},
        {"weights": [1.0, 1.0], "k": 0},
        {"weights": [1.0, 10**400], "k": 3},
        {"weights": ["1.0", 1.0], "k": 3},
        {"kind": "threshold", "weights": [1.0, 1.0], "threshold": "1.5"},
        {"kind": "threshold", "weights": [1.0, 1.0], "threshold": False},
        {"kind": "threshold", "weights": [1.0, 1.0], "threshold": 10**400},
    ],
    ids=repr,
)
def test_query_specs_are_refused_as_in_process(spec):
    with pytest.raises(QueryError):
        protocol.query_from_wire(spec)


@pytest.mark.parametrize(
    "spec",
    [{"weights": 1.0, "k": 3}, {"weights": {"a": 1}, "k": 3}, {"k": 3}],
    ids=repr,
)
def test_malformed_query_specs_are_protocol_errors(spec):
    with pytest.raises(protocol.ProtocolError):
        protocol.query_from_wire(spec)


def test_query_specs_keep_their_values():
    topk = protocol.query_from_wire({"weights": [0.5, -2], "k": 4})
    assert isinstance(topk, TopKQuery)
    assert (topk.k, topk.function.weights) == (4, (0.5, -2))
    threshold = protocol.query_from_wire(
        {"kind": "threshold", "weights": [1.0, 1.0], "threshold": 1}
    )
    assert isinstance(threshold, ThresholdQuery)
    assert threshold.threshold == 1 and not math.isnan(threshold.threshold)
