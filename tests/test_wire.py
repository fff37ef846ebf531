"""Tests for the length-prefixed shard wire protocol (repro.service.wire)."""

import socket
import struct
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import (
    DeviceFailedError,
    ShardUnavailableError,
    WireProtocolError,
)
from repro.core.hashing import KeyDigest, clear_digest_cache, to_key_bytes
from repro.core.results import DeleteResult, InsertResult, LookupResult, ServedFrom
from repro.service import wire
from repro.workloads.workload import OpKind


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


def craft_frame(version: int, frame_type: int, seq: int, payload: bytes) -> bytes:
    """A raw v2 frame with a *valid* CRC, for byte-level tampering tests."""
    covered = struct.pack("<BBI", version, frame_type, seq) + payload
    return struct.pack("<I", len(covered) + 4) + struct.pack("<I", zlib.crc32(covered)) + covered


class ByteSock:
    """An in-memory socket double: serves a byte string, then EOF.

    Lets the fuzz tests run thousands of ``recv_frame`` calls without a
    socketpair per mutation."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._pos = 0

    def recv(self, size: int) -> bytes:
        chunk = self._data[self._pos : self._pos + size]
        self._pos += len(chunk)
        return chunk


class TestFraming:
    def test_roundtrip(self, pair):
        left, right = pair
        wire.send_frame(left, wire.FRAME_CONTROL_REQUEST, b"payload-bytes", seq=42)
        frame_type, seq, payload = wire.recv_frame(right)
        assert frame_type == wire.FRAME_CONTROL_REQUEST
        assert seq == 42
        assert payload == b"payload-bytes"

    def test_default_seq_is_zero(self, pair):
        left, right = pair
        wire.send_frame(left, wire.FRAME_CONTROL_REQUEST, b"")
        _, seq, _ = wire.recv_frame(right)
        assert seq == 0

    def test_multiple_frames_stay_delimited(self, pair):
        left, right = pair
        for index in range(5):
            wire.send_frame(left, wire.FRAME_BATCH_REQUEST, b"x" * index, seq=index)
        for index in range(5):
            _, seq, payload = wire.recv_frame(right)
            assert seq == index
            assert payload == b"x" * index

    def test_truncated_frame_raises_typed_error(self, pair):
        """A peer dying mid-frame surfaces as TruncatedFrameError, not a hang."""
        left, right = pair
        full = craft_frame(wire.WIRE_VERSION, wire.FRAME_BATCH_REQUEST, 0, b"y" * 90)
        assert struct.unpack_from("<I", full)[0] == 100  # 10-byte overhead + payload
        left.sendall(full[:30])  # length promises 100 body bytes; send 26
        left.close()
        with pytest.raises(wire.TruncatedFrameError, match="26 of 100"):
            wire.recv_frame(right)

    def test_eof_before_any_bytes_is_truncated(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(wire.TruncatedFrameError, match="0 of 4"):
            wire.recv_frame(right)

    def test_oversized_length_prefix_rejected(self, pair):
        """A corrupt length prefix must fail fast, not attempt a 4 GiB recv."""
        left, right = pair
        left.sendall(struct.pack("<I", wire.MAX_FRAME_BYTES + 1))
        with pytest.raises(wire.OversizedFrameError):
            wire.recv_frame(right)

    def test_oversized_send_rejected(self, pair):
        left, _right = pair

        class Huge(bytes):
            def __len__(self):
                return wire.MAX_FRAME_BYTES + 1

        with pytest.raises(wire.OversizedFrameError):
            wire.send_frame(left, wire.FRAME_BATCH_REQUEST, Huge())

    def test_wrong_version_rejected(self, pair):
        left, right = pair
        left.sendall(craft_frame(wire.WIRE_VERSION + 1, wire.FRAME_BATCH_REQUEST, 0, b""))
        with pytest.raises(WireProtocolError, match="version"):
            wire.recv_frame(right)

    def test_unknown_frame_type_rejected(self, pair):
        left, right = pair
        left.sendall(craft_frame(wire.WIRE_VERSION, 99, 0, b""))
        with pytest.raises(WireProtocolError, match="frame type"):
            wire.recv_frame(right)

    def test_body_shorter_than_preamble_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack("<I", 1) + b"z")
        with pytest.raises(WireProtocolError, match="too short"):
            wire.recv_frame(right)

    def test_corrupt_payload_raises_corrupt_frame_error(self, pair):
        left, right = pair
        frame = bytearray(craft_frame(wire.WIRE_VERSION, wire.FRAME_BATCH_REQUEST, 3, b"abcdef"))
        frame[-2] ^= 0x10  # one bit, deep in the payload
        left.sendall(bytes(frame))
        with pytest.raises(wire.CorruptFrameError, match="CRC"):
            wire.recv_frame(right)

    def test_corrupt_preamble_is_crc_not_version_error(self, pair):
        """The CRC covers the preamble, so a flipped version byte is reported
        as corruption (retryable) rather than a version mismatch (fatal)."""
        left, right = pair
        frame = bytearray(craft_frame(wire.WIRE_VERSION, wire.FRAME_BATCH_REQUEST, 0, b"pp"))
        frame[8] ^= 0x04  # the version byte (after 4-byte length + 4-byte crc)
        left.sendall(bytes(frame))
        with pytest.raises(wire.CorruptFrameError):
            wire.recv_frame(right)

    def test_corrupt_frame_error_is_wire_protocol_error(self):
        assert issubclass(wire.CorruptFrameError, WireProtocolError)


def _sample_frames():
    """One realistic frame of every type, for the tamper/fuzz sweeps."""
    digest = KeyDigest(b"fingerprint-xyz")
    digest.digest(7)
    request = wire.encode_batch_request(
        1.25,
        [
            (OpKind.INSERT, digest, b"value-bytes"),
            (OpKind.LOOKUP, b"plain-key", b""),
            (OpKind.DELETE, KeyDigest(b"dead"), b""),
        ],
    )
    response = wire.encode_batch_response(
        [
            LookupResult(b"k1", b"v1", 0.125, ServedFrom.BUFFER, 1, 2, 0),
            InsertResult(b"k2", 0.25, flushed=True, flush_latency_ms=1.5),
            DeleteResult(b"k3", 0.5, removed_from_buffer=True),
        ],
        wire.ERR_DEVICE_FAILED,
        "DeviceFailedError: boom",
        12.5,
        3.25,
    )
    control = wire.encode_control({"op": "fault", "mode": "crash", "kwargs": {"n": 3}})
    return [
        (wire.FRAME_BATCH_REQUEST, request),
        (wire.FRAME_BATCH_RESPONSE, response),
        (wire.FRAME_CONTROL_REQUEST, control),
        (wire.FRAME_CONTROL_RESPONSE, control),
    ]


class TestWireFuzz:
    """Adversarial bytes must always surface as *typed* wire errors.

    The contract under fuzz is: any single-byte flip or truncation, anywhere
    in any frame type, decodes to a WireProtocolError subclass (or decodes
    successfully when the flip lands in dead space) — never a raw
    struct.error, UnicodeDecodeError, IndexError or MemoryError.
    """

    @pytest.mark.parametrize("frame_type,payload", _sample_frames())
    def test_single_byte_flips_always_typed(self, frame_type, payload):
        frame = craft_frame(wire.WIRE_VERSION, frame_type, 5, payload)
        for position in range(len(frame)):
            for mask in (0x01, 0x80, 0xFF):
                mutated = bytearray(frame)
                mutated[position] ^= mask
                try:
                    kind, _seq, decoded = wire.recv_frame(ByteSock(bytes(mutated)))
                except WireProtocolError:
                    continue  # typed: exactly what the contract demands
                # A flip that still framed correctly must be caught (or be a
                # no-op) by the payload decoders — also without raw errors.
                try:
                    if kind == wire.FRAME_BATCH_REQUEST:
                        wire.decode_batch_request(decoded)
                    elif kind == wire.FRAME_BATCH_RESPONSE:
                        wire.decode_batch_response(decoded)
                    else:
                        wire.decode_control(decoded)
                except WireProtocolError:
                    pass

    @pytest.mark.parametrize("frame_type,payload", _sample_frames())
    def test_truncations_always_typed(self, frame_type, payload):
        frame = craft_frame(wire.WIRE_VERSION, frame_type, 5, payload)
        for cut in range(len(frame)):
            with pytest.raises(WireProtocolError):
                wire.recv_frame(ByteSock(frame[:cut]))

    @pytest.mark.parametrize("frame_type,payload", _sample_frames())
    def test_payload_mutations_never_raise_raw_errors(self, frame_type, payload):
        """Even *past* the CRC (an attacker or a memory flip on the far side
        of the checksum), the payload decoders are fully bounds-checked."""
        decoders = {
            wire.FRAME_BATCH_REQUEST: wire.decode_batch_request,
            wire.FRAME_BATCH_RESPONSE: wire.decode_batch_response,
            wire.FRAME_CONTROL_REQUEST: wire.decode_control,
            wire.FRAME_CONTROL_RESPONSE: wire.decode_control,
        }
        decode = decoders[frame_type]
        for cut in range(len(payload)):
            try:
                decode(payload[:cut])
            except WireProtocolError:
                pass
        for position in range(len(payload)):
            mutated = bytearray(payload)
            mutated[position] ^= 0xFF
            try:
                decode(bytes(mutated))
            except WireProtocolError:
                pass


class TestFramingProperties:
    @given(
        frame_type=st.sampled_from(
            [
                wire.FRAME_BATCH_REQUEST,
                wire.FRAME_BATCH_RESPONSE,
                wire.FRAME_CONTROL_REQUEST,
                wire.FRAME_CONTROL_RESPONSE,
            ]
        ),
        seq=st.integers(min_value=0, max_value=2**32 - 1),
        payload=st.binary(max_size=512),
    )
    def test_crc_framing_roundtrip(self, frame_type, seq, payload):
        """Every (type, seq, payload) survives the CRC framing bit-exactly."""
        sent = []

        class Capture:
            def sendall(self, data):
                sent.append(bytes(data))

        wire.send_frame(Capture(), frame_type, payload, seq=seq)
        assert len(sent) == 1  # one frame, one write (the chaos layer relies on it)
        got_type, got_seq, got_payload = wire.recv_frame(ByteSock(sent[0]))
        assert (got_type, got_seq, got_payload) == (frame_type, seq, payload)

    @given(
        payload=st.binary(max_size=128),
        position=st.integers(min_value=0, max_value=10_000),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_any_single_bit_flip_is_detected(self, payload, position, bit):
        """CRC-32 detects every single-bit error; flips in the length prefix
        fall out as truncation/oversize/short-body errors — all typed."""
        frame = bytearray(craft_frame(wire.WIRE_VERSION, wire.FRAME_BATCH_REQUEST, 9, payload))
        frame[position % len(frame)] ^= 1 << bit
        with pytest.raises(WireProtocolError):
            wire.recv_frame(ByteSock(bytes(frame)))


class TestErrorCodes:
    def test_none_is_silent(self):
        wire.raise_for_code(wire.ERR_NONE, "")

    def test_device_failed(self):
        with pytest.raises(DeviceFailedError, match="boom"):
            wire.raise_for_code(wire.ERR_DEVICE_FAILED, "boom")

    def test_shard_unavailable(self):
        with pytest.raises(ShardUnavailableError, match="gone"):
            wire.raise_for_code(wire.ERR_SHARD_UNAVAILABLE, "gone")

    def test_unexpected_maps_to_wire_protocol_error(self):
        with pytest.raises(WireProtocolError):
            wire.raise_for_code(wire.ERR_UNEXPECTED, "worker exploded")


class TestBatchRequest:
    def test_roundtrip_preserves_ops_keys_and_memoised_digests(self):
        clear_digest_cache()  # decoding interns keys in this process's cache
        digest = KeyDigest(b"fingerprint-1")
        digest.digest(7)
        digest.digest(1234567)
        operations = [
            (OpKind.INSERT, digest, b"value-bytes"),
            (OpKind.LOOKUP, b"plain-key", b""),
            (OpKind.DELETE, KeyDigest(b"dead"), b""),
            (OpKind.UPDATE, b"k2", b"\x00\xff" * 8),
        ]
        payload = wire.encode_batch_request(1.25, operations)
        advance_ms, decoded = wire.decode_batch_request(payload)
        assert advance_ms == 1.25
        assert [(k, d.data, v) for k, d, v in decoded] == [
            (OpKind.INSERT, b"fingerprint-1", b"value-bytes"),
            (OpKind.LOOKUP, b"plain-key", b""),
            (OpKind.DELETE, b"dead", b""),
            (OpKind.UPDATE, b"k2", b"\x00\xff" * 8),
        ]
        # The memoised seeded digests ride along bit-exactly (hash-once
        # across the process boundary).
        assert sorted(digest.memoised()) == [7, 1234567]
        assert decoded[0][1].memoised() == digest.memoised()

    @pytest.mark.parametrize(
        "key", [5, 0x0102, "abc", "héllo", memoryview(b"mv-key"), bytearray(b"ba-key")]
    )
    def test_any_key_type_travels_as_its_canonical_bytes(self, key):
        """Regression: ``bytes(5)`` is five NUL bytes and ``bytes("abc")``
        raises; the wire must carry what every other boundary looks up."""
        payload = wire.encode_batch_request(0.0, [(OpKind.LOOKUP, key, b"")])
        ((_kind, decoded, _value),) = wire.decode_batch_request(payload)[1]
        assert decoded.data == to_key_bytes(key)

    def test_unknown_op_code_rejected(self):
        payload = struct.pack("<dI", 0.0, 1) + struct.pack("<B", 200)
        with pytest.raises(WireProtocolError, match="operation code"):
            wire.decode_batch_request(payload)

    def test_truncated_value_rejected(self):
        payload = wire.encode_batch_request(0.0, [(OpKind.INSERT, b"key", b"value")])
        with pytest.raises(WireProtocolError, match="truncated"):
            wire.decode_batch_request(payload[:-2])


class TestBatchResponse:
    def roundtrip(self, results, error_code=wire.ERR_NONE, message=""):
        payload = wire.encode_batch_response(results, error_code, message, 12.5, 3.25)
        return wire.decode_batch_response(payload)

    def test_lookup_results_roundtrip_every_served_from(self):
        originals = [
            LookupResult(b"k1", b"v1", 0.123456789, ServedFrom.BUFFER),
            LookupResult(b"k2", b"v2", 1.5, ServedFrom.INCARNATION, 3, 2, 1),
            LookupResult(b"k3", None, 0.25, ServedFrom.DELETED),
            LookupResult(b"k4", None, 0.75, ServedFrom.MISSING, 4, 4, 4),
        ]
        decoded, code, message, clock_ms, busy_ms = self.roundtrip(originals)
        assert decoded == originals  # dataclass equality: every field, bit-exact
        assert (code, message) == (wire.ERR_NONE, "")
        assert (clock_ms, busy_ms) == (12.5, 3.25)

    def test_insert_and_delete_results_roundtrip(self):
        originals = [
            InsertResult(b"k", 0.1 + 0.2, flushed=True, flush_latency_ms=7.7,
                         incarnations_tried=2, flash_writes=5, flash_reads=3),
            InsertResult(b"k2", 0.001),
            DeleteResult(b"gone", 0.5, removed_from_buffer=True),
            DeleteResult(b"gone2", 1.0 / 3.0),
        ]
        decoded, _, _, _, _ = self.roundtrip(originals)
        assert decoded == originals

    def test_float_fields_survive_bit_exactly(self):
        """Latencies feed the bit-identical contract; doubles must not drift."""
        awkward = 1.0000000000000002  # one ulp above 1.0
        decoded, _, _, clock_ms, _ = wire.decode_batch_response(
            wire.encode_batch_response(
                [InsertResult(b"k", awkward)], wire.ERR_NONE, "", awkward, 0.0
            )
        )
        assert decoded[0].latency_ms == awkward
        assert clock_ms == awkward

    def test_error_code_and_message_roundtrip(self):
        decoded, code, message, _, _ = self.roundtrip(
            [InsertResult(b"k", 1.0)], wire.ERR_DEVICE_FAILED, "DeviceFailedError: dead"
        )
        assert len(decoded) == 1  # truncated result list rides with the error
        assert code == wire.ERR_DEVICE_FAILED
        assert message == "DeviceFailedError: dead"

    def test_unknown_result_record_rejected(self):
        payload = wire.encode_batch_response([], wire.ERR_NONE, "", 0.0, 0.0)
        payload += struct.pack("<BI", 77, 0)
        header = struct.calcsize("<ddBII")
        broken = payload[:header].replace(
            struct.pack("<I", 0), struct.pack("<I", 1), 1
        )
        # Rebuild with result_count=1 pointing at the bogus record.
        clock_ms, busy_ms, code, msg_len, _ = struct.unpack_from("<ddBII", payload)
        broken = struct.pack("<ddBII", clock_ms, busy_ms, code, msg_len, 1) + payload[header:]
        with pytest.raises(WireProtocolError, match="record type"):
            wire.decode_batch_response(broken)

    def test_invalid_utf8_message_rejected(self):
        payload = wire.encode_batch_response([], wire.ERR_UNEXPECTED, "abc", 0.0, 0.0)
        broken = payload.replace(b"abc", b"\xff\xfe\xff")
        with pytest.raises(WireProtocolError, match="message"):
            wire.decode_batch_response(broken)


class TestControlFrames:
    def test_roundtrip(self):
        message = {"op": "fault", "mode": "crash", "kwargs": {"after_n_ios": 3}}
        assert wire.decode_control(wire.encode_control(message)) == message

    def test_malformed_json_rejected(self):
        with pytest.raises(WireProtocolError, match="malformed"):
            wire.decode_control(b"{not json")

    def test_non_object_rejected(self):
        with pytest.raises(WireProtocolError, match="object"):
            wire.decode_control(b"[1, 2, 3]")


class TestKeyDigestWire:
    def test_digest_without_seeds(self):
        clear_digest_cache()
        digest, offset = KeyDigest.from_wire(KeyDigest(b"abc").to_wire())
        assert digest.data == b"abc"
        assert digest.memoised() == {}
        assert offset == 5 + 3

    def test_consecutive_digests_share_buffer(self):
        clear_digest_cache()
        first = KeyDigest(b"one")
        first.digest(1)
        second = KeyDigest(b"two")
        payload = first.to_wire() + second.to_wire()
        a, offset = KeyDigest.from_wire(payload)
        b, end = KeyDigest.from_wire(payload, offset)
        assert (a.data, b.data) == (b"one", b"two")
        assert a.memoised() == first.memoised() == {1: first.digest(1)}
        assert end == len(payload)
