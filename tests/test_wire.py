"""Tests for the length-prefixed shard wire protocol (repro.service.wire)."""

import socket
import struct
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import DeviceFailedError, WireProtocolError
from repro.core.hashing import CLAM_SEEDS, KeyDigest, as_digest, clear_digest_cache, to_key_bytes
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
    """A raw frame with a *valid* CRC, for byte-level tampering tests."""
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

    def test_unexpected_maps_to_wire_protocol_error(self):
        with pytest.raises(WireProtocolError):
            wire.raise_for_code(wire.ERR_UNEXPECTED, "worker exploded")


class TestBatchRequest:
    def test_roundtrip_preserves_ops_keys_and_memoised_digests(self):
        clear_digest_cache()  # decoding interns keys in this process's cache
        mine = as_digest(b"fingerprint-1")
        words = mine.clam_words()
        digest = KeyDigest(b"fingerprint-1")
        digest.digest(7)
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
        # Only the canonical bytes travel: what the receiver has memoised for
        # a key is its own cached digest's, the sender's memo stays behind.
        assert decoded[0][1] is mine
        assert mine.memoised() == dict(zip(CLAM_SEEDS, words))
        assert decoded[1][1] is as_digest(b"plain-key")
        assert len(payload) == 12 + 4 + 8 * 4 + (13 + 9 + 4 + 2) + (11 + 16)

    def test_empty_batch_roundtrip(self):
        payload = wire.encode_batch_request(0.5, [])
        assert payload == struct.pack("<dI", 0.5, 0)
        assert wire.decode_batch_request(payload) == (0.5, [])

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
        payload = struct.pack("<dI", 0.0, 1) + struct.pack("<B", 200) + struct.pack("<II", 0, 0)
        with pytest.raises(WireProtocolError, match="operation code 200"):
            wire.decode_batch_request(payload)

    def test_truncated_value_rejected(self):
        payload = wire.encode_batch_request(0.0, [(OpKind.INSERT, b"key", b"value")])
        with pytest.raises(WireProtocolError, match="truncated"):
            wire.decode_batch_request(payload[:-2])

    def test_announced_count_larger_than_the_payload_rejected(self):
        """A corrupt count must fail on arithmetic, before any allocation."""
        payload = wire.encode_batch_request(0.0, [(OpKind.INSERT, b"key", b"value")])
        for count in (2, 1000, 2**32 - 1):
            broken = struct.pack("<dI", 0.0, count) + payload[12:]
            with pytest.raises(WireProtocolError, match="announced"):
                wire.decode_batch_request(broken)

    def test_length_column_that_overruns_the_blocks_rejected(self):
        payload = bytearray(wire.encode_batch_request(0.0, [(OpKind.INSERT, b"key", b"value")]))
        assert struct.unpack_from("<II", payload, 13) == (3, 5)
        for offset, length in ((13, 4), (17, 6), (17, 2**32 - 1), (13, 2)):
            broken = bytearray(payload)
            struct.pack_into("<I", broken, offset, length)
            with pytest.raises(WireProtocolError, match="length column"):
                wire.decode_batch_request(bytes(broken))


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
        payload = wire.encode_batch_response([DeleteResult(b"k", 0.5)], wire.ERR_NONE, "", 0.0, 0.0)
        header = struct.calcsize("<ddBII")
        assert payload[header] == 2  # the row's record type
        broken = payload[:header] + bytes([77]) + payload[header + 1 :]
        with pytest.raises(WireProtocolError, match="record type 77"):
            wire.decode_batch_response(broken)

    def test_unknown_served_from_code_rejected(self):
        payload = wire.encode_batch_response(
            [LookupResult(b"k", None, 0.5, ServedFrom.MISSING)], wire.ERR_NONE, "", 0.0, 0.0
        )
        header = struct.calcsize("<ddBII")
        broken = payload[: header + 1] + bytes([9]) + payload[header + 2 :]
        with pytest.raises(WireProtocolError, match="served-from code 9"):
            wire.decode_batch_response(broken)

    def test_announced_result_count_larger_than_the_payload_rejected(self):
        payload = wire.encode_batch_response([DeleteResult(b"k", 0.5)], wire.ERR_NONE, "", 0.0, 0.0)
        clock_ms, busy_ms, code, msg_len, _ = struct.unpack_from("<ddBII", payload)
        for count in (2, 2**32 - 1):
            head = struct.pack("<ddBII", clock_ms, busy_ms, code, msg_len, count)
            with pytest.raises(WireProtocolError, match="announced"):
                wire.decode_batch_response(head + payload[len(head) :])

    def test_row_lengths_that_overrun_the_byte_block_rejected(self):
        payload = wire.encode_batch_response(
            [LookupResult(b"key", b"value", 0.5, ServedFrom.BUFFER)], wire.ERR_NONE, "", 0.0, 0.0
        )
        header = struct.calcsize("<ddBII")
        assert struct.unpack_from("<II", payload, header + 3) == (3, 5)
        for offset, length in ((3, 4), (7, 6), (7, 2**32 - 1), (3, 2)):
            broken = bytearray(payload)
            struct.pack_into("<I", broken, header + offset, length)
            with pytest.raises(WireProtocolError, match="byte block"):
                wire.decode_batch_response(bytes(broken))

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


class TestGoldenFrames:
    """Byte-level layout of wire v3, frozen: a change here is a version bump."""

    def test_request_frame_with_all_four_operation_kinds(self):
        payload = wire.encode_batch_request(
            0.5,
            [
                (OpKind.LOOKUP, b"look", b""),
                (OpKind.INSERT, KeyDigest(b"ins"), b"v1"),
                (OpKind.UPDATE, "up", b"value-2"),
                (OpKind.DELETE, 0x64656C, b""),
            ],
        )
        assert payload == (
            struct.pack("<dI", 0.5, 4)  # head: clock advance, operation count
            + bytes([0, 1, 2, 3])  # op-code column
            + struct.pack("<8I", 4, 3, 2, 3, 0, 2, 7, 0)  # key lengths, then value lengths
            + b"lookinsupdel"  # key block: canonical bytes, no digests
            + b"v1value-2"  # value block
        )
        assert [(k, d.data, v) for k, d, v in wire.decode_batch_request(payload)[1]] == [
            (OpKind.LOOKUP, b"look", b""),
            (OpKind.INSERT, b"ins", b"v1"),
            (OpKind.UPDATE, b"up", b"value-2"),
            (OpKind.DELETE, b"del", b""),
        ]

    def test_response_frame_with_every_record_type_and_served_from(self):
        results = [
            LookupResult(b"k0", b"val", 0.25, ServedFrom.BUFFER),
            LookupResult(b"k1", b"", 1.5, ServedFrom.INCARNATION, 3, 2, 1),
            LookupResult(b"k2", None, 0.125, ServedFrom.DELETED),
            LookupResult(b"k3", None, 0.75, ServedFrom.MISSING, 4, 5, 6),
            InsertResult(b"k4", 2.5, True, 7.5, 2, 5, 3),
            DeleteResult(b"k5", 0.5, True),
        ]
        payload = wire.encode_batch_response(results, wire.ERR_DEVICE_FAILED, "boom", 12.5, 3.25)
        row = "<BBBIIddIII"  # type, served, flag, key len, value len, 2 doubles, 3 counters
        assert payload == (
            struct.pack("<ddBII", 12.5, 3.25, wire.ERR_DEVICE_FAILED, 4, 6)
            + b"boom"
            + struct.pack(row, 0, 0, 1, 2, 3, 0.25, 0.0, 0, 0, 0)
            + struct.pack(row, 0, 1, 1, 2, 0, 1.5, 0.0, 3, 2, 1)  # found, empty value
            + struct.pack(row, 0, 2, 0, 2, 0, 0.125, 0.0, 0, 0, 0)
            + struct.pack(row, 0, 3, 0, 2, 0, 0.75, 0.0, 4, 5, 6)
            + struct.pack(row, 1, 0, 1, 2, 0, 2.5, 7.5, 2, 5, 3)
            + struct.pack(row, 2, 0, 1, 2, 0, 0.5, 0.0, 0, 0, 0)
            + b"k0valk1k2k3k4k5"  # byte block: each key, then its value if it has one
        )
        decoded = wire.decode_batch_response(payload)
        assert decoded == (results, wire.ERR_DEVICE_FAILED, "boom", 12.5, 3.25)

    def test_a_v2_frame_is_refused_by_version(self, pair):
        left, right = pair
        assert wire.WIRE_VERSION == 3
        v2_lookup = struct.pack("<dI", 0.0, 1) + struct.pack("<BIB", 0, 3, 0) + b"key" + bytes(4)
        left.sendall(craft_frame(2, wire.FRAME_BATCH_REQUEST, 1, v2_lookup))
        with pytest.raises(WireProtocolError, match="unsupported wire version 2"):
            wire.recv_frame(right)
