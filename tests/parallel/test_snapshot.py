"""Round-trip tests for the columnar cycle snapshot."""

import pytest

from repro.core import batch
from repro.core.tuples import StreamRecord
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


class TestRoundTrip:
    def test_roundtrip_default_backend(self):
        arrivals = make_records(
            [[0.1, 0.2], [0.7071067811865476, 1e-300], [0.0, 1.0]]
        )
        expirations = make_records([[0.5, 0.5]], start_rid=100)
        payload, handle = snapshot.encode_cycle(arrivals, expirations)
        try:
            got_arrivals, got_expirations = snapshot.decode_cycle(payload)
        finally:
            handle.close()
        assert_bitwise_equal(got_arrivals, arrivals)
        assert_bitwise_equal(got_expirations, expirations)

    def test_roundtrip_pickled_columns(self, monkeypatch):
        """The pure-Python payload path, forced regardless of backend."""
        monkeypatch.setattr(batch, "np", None)
        arrivals = make_records([[0.25, 0.75], [1.0, 0.0]])
        payload, handle = snapshot.encode_cycle(arrivals, [])
        assert payload[0] == "cols"
        got_arrivals, got_expirations = snapshot.decode_cycle(payload)
        handle.close()
        assert_bitwise_equal(got_arrivals, arrivals)
        assert got_expirations == []

    def test_empty_cycle_uses_plain_payload(self):
        payload, handle = snapshot.encode_cycle([], [])
        assert payload[0] == "cols"
        arrivals, expirations = snapshot.decode_cycle(payload)
        handle.close()
        assert arrivals == [] and expirations == []

    def test_expirations_only(self):
        expirations = make_records([[0.9, 0.1], [0.3, 0.3]])
        payload, handle = snapshot.encode_cycle([], expirations)
        try:
            got_arrivals, got_expirations = snapshot.decode_cycle(payload)
        finally:
            handle.close()
        assert got_arrivals == []
        assert_bitwise_equal(got_expirations, expirations)

    def test_unknown_payload_rejected(self):
        with pytest.raises(ValueError):
            snapshot.decode_cycle(("garbage",))


@pytest.mark.skipif(batch.np is None, reason="NumPy backend only")
class TestSharedMemory:
    @pytest.fixture(autouse=True)
    def any_size_shares(self, monkeypatch):
        """Drop the size threshold so small fixtures take the shm path."""
        monkeypatch.setattr(snapshot, "SHM_MIN_BYTES", 0)

    def test_shared_payload_selected(self):
        arrivals = make_records([[0.1, 0.9]])
        payload, handle = snapshot.encode_cycle(arrivals, [])
        try:
            assert payload[0] == "shm"
        finally:
            handle.close()

    def test_small_payload_skips_shared_memory(self, monkeypatch):
        """Below the threshold, pickled columns beat shm setup costs."""
        monkeypatch.setattr(snapshot, "SHM_MIN_BYTES", 16384)
        arrivals = make_records([[0.1, 0.9]])
        payload, handle = snapshot.encode_cycle(arrivals, [])
        assert payload[0] == "cols"
        got, _ = snapshot.decode_cycle(payload)
        handle.close()
        assert_bitwise_equal(got, arrivals)

    def test_large_payload_takes_shared_memory(self, monkeypatch):
        monkeypatch.setattr(snapshot, "SHM_MIN_BYTES", 16384)
        arrivals = make_records([[0.5, 0.5]] * 1024)  # 16 KiB of attrs
        payload, handle = snapshot.encode_cycle(arrivals, [])
        try:
            assert payload[0] == "shm"
            got, _ = snapshot.decode_cycle(payload)
            assert_bitwise_equal(got, arrivals)
        finally:
            handle.close()

    def test_handle_close_unlinks_segment(self):
        from multiprocessing import shared_memory

        arrivals = make_records([[0.1, 0.9], [0.2, 0.8]])
        payload, handle = snapshot.encode_cycle(arrivals, [])
        name = payload[1]
        snapshot.decode_cycle(payload)  # reader attach/detach
        handle.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_decode_many_times_before_close(self):
        """Broadcast semantics: every worker decodes the same payload."""
        arrivals = make_records([[0.4, 0.6]])
        payload, handle = snapshot.encode_cycle(arrivals, [])
        try:
            for _ in range(4):
                got, _ = snapshot.decode_cycle(payload)
                assert_bitwise_equal(got, arrivals)
        finally:
            handle.close()
