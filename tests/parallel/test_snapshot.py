"""Round-trip tests for the columnar cycle snapshot: arrival columns
travel from the coordinator's record store into the worker's, and
expirations travel as ids and resolve against the worker's store."""

import pytest

from repro.core import batch
from repro.core.tuples import StreamRecord
from repro.core.window import RecordStore
from repro.service.protocol import ProtocolError
from repro.transport import snapshot


def make_records(values, start_rid=0, start_time=0.0):
    return [
        StreamRecord(start_rid + index, tuple(row), start_time + index)
        for index, row in enumerate(values)
    ]


def assert_bitwise_equal(rebuilt, originals):
    assert len(rebuilt) == len(originals)
    for got, want in zip(rebuilt, originals):
        assert got.rid == want.rid
        assert got.time == want.time
        assert got.attrs == want.attrs
        # bitwise, not just ==: the exactness contract of the snapshot
        for a, b in zip(got.attrs, want.attrs):
            assert a.hex() == b.hex()


def columns(records):
    """The arrival columns a coordinator cuts from its store."""
    store = RecordStore(2)
    return store.columns(store.add_records(records))


def encode(records, expired):
    return snapshot.encode_cycle(columns(records), expired)


def holding(records):
    """A worker store already holding ``records``."""
    store = RecordStore(2)
    store.add_records(records)
    return store


def decode(payload, store=None):
    """``(arrivals, expirations)`` as records, read from the store."""
    store = RecordStore(2) if store is None else store
    arrived, expired = snapshot.decode_cycle(payload, store)
    return store.records(arrived), store.records(expired)


def held(store):
    return {rid: store.record_of(rid) for rid in store.index}


class TestRoundTrip:
    def test_roundtrip_default_backend(self):
        arrivals = make_records(
            [[0.1, 0.2], [0.7071067811865476, 1e-300], [0.0, 1.0]]
        )
        old = make_records([[0.5, 0.5]], start_rid=100)
        store = holding(old)
        payload, handle = encode(arrivals, [100])
        try:
            got_arrivals, got_expirations = decode(payload, store)
        finally:
            handle.close()
        assert_bitwise_equal(got_arrivals, arrivals)
        assert got_expirations[0] is old[0]
        # Expired slots stay stored until the worker releases them.
        assert held(store) == {
            record.rid: record for record in old + arrivals
        }

    def test_roundtrip_pickled_columns(self, monkeypatch):
        """The pure-Python payload path, forced regardless of backend."""
        monkeypatch.setattr(batch, "np", None)
        arrivals = make_records([[0.25, 0.75], [1.0, 0.0]])
        payload, handle = encode(arrivals, [])
        assert payload[0] == "cols"
        got_arrivals, got_expirations = decode(payload)
        handle.close()
        assert_bitwise_equal(got_arrivals, arrivals)
        assert got_expirations == []

    def test_empty_cycle_uses_plain_payload(self):
        payload, handle = snapshot.encode_cycle(([], [], []), [])
        assert payload == ("cols", ([], [], []), [])
        arrivals, expirations = decode(payload)
        handle.close()
        assert arrivals == [] and expirations == []

    def test_expirations_travel_as_ids(self):
        old = make_records([[0.9, 0.1], [0.3, 0.3]])
        store = holding(old)
        payload, handle = snapshot.encode_cycle(([], [], []), [1, 0])
        try:
            assert payload == ("cols", ([], [], []), [1, 0])
            got_arrivals, got_expirations = decode(payload, store)
        finally:
            handle.close()
        assert got_arrivals == []
        assert got_expirations == [old[1], old[0]]

    def test_a_record_may_expire_in_the_cycle_that_inserts_it(self):
        """The update model can delete a record in its inserting batch:
        arrivals enter the store before expirations resolve, and the
        expired slot is the ingested one."""
        arrivals = make_records([[0.5, 0.5], [0.25, 0.75]], start_rid=7)
        store = RecordStore(2)
        payload, handle = encode(arrivals, [8])
        arrived, expired = snapshot.decode_cycle(payload, store)
        handle.close()
        assert expired == arrived[1:]
        store.release(expired)
        assert list(store.index) == [7]

    @pytest.mark.parametrize("expired", [[5], [0, 0]])
    def test_an_unknown_expired_id_names_the_rid(self, expired):
        store = holding(make_records([[0.5, 0.5]]))
        payload, _ = snapshot.encode_cycle(([], [], []), expired)
        with pytest.raises(ProtocolError, match=f"record id {expired[-1]} "):
            decode(payload, store)
        assert list(store.index) == [0]  # refused before any change

    def test_unknown_payload_rejected(self):
        with pytest.raises(ValueError):
            decode(("garbage",))


@pytest.mark.skipif(batch.np is None, reason="NumPy backend only")
class TestSharedMemory:
    @pytest.fixture(autouse=True)
    def any_size_shares(self, monkeypatch):
        """Drop the size threshold so small fixtures take the shm path."""
        monkeypatch.setattr(snapshot, "SHM_MIN_BYTES", 0)

    def test_shared_payload_selected(self):
        arrivals = make_records([[0.1, 0.9]])
        payload, handle = encode(arrivals, [3])
        try:
            # the segment holds arrival rows only; ids ride the header
            assert payload[0] == "shm"
            assert payload[2:] == ((1, 2), [0], [0.0], [3])
        finally:
            handle.close()

    def test_small_payload_skips_shared_memory(self, monkeypatch):
        """Below the threshold, pickled columns beat shm setup costs."""
        monkeypatch.setattr(snapshot, "SHM_MIN_BYTES", 16384)
        arrivals = make_records([[0.1, 0.9]])
        payload, handle = encode(arrivals, [])
        assert payload[0] == "cols"
        got, _ = decode(payload)
        handle.close()
        assert_bitwise_equal(got, arrivals)

    def test_large_payload_takes_shared_memory(self, monkeypatch):
        monkeypatch.setattr(snapshot, "SHM_MIN_BYTES", 16384)
        arrivals = make_records([[0.5, 0.5]] * 1024)  # 16 KiB of attrs
        payload, handle = encode(arrivals, [])
        try:
            assert payload[0] == "shm"
            got, _ = decode(payload)
            assert_bitwise_equal(got, arrivals)
        finally:
            handle.close()

    def test_handle_close_unlinks_segment(self):
        from multiprocessing import shared_memory

        arrivals = make_records([[0.1, 0.9], [0.2, 0.8]])
        payload, handle = encode(arrivals, [])
        name = payload[1]
        decode(payload)  # reader attach/detach
        handle.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_decode_many_times_before_close(self):
        """Broadcast semantics: every worker decodes the same payload."""
        arrivals = make_records([[0.4, 0.6]])
        payload, handle = encode(arrivals, [])
        try:
            for _ in range(4):
                got, _ = decode(payload)
                assert_bitwise_equal(got, arrivals)
        finally:
            handle.close()
