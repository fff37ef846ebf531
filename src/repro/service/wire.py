"""Length-prefixed binary wire protocol between the cluster and shard workers.

The process-per-shard deployment (:mod:`repro.service.parallel`) puts each
shard's CLAM behind a socket; this module defines the only bytes that cross
that boundary.  Every frame is::

    <u32 length> <u32 crc32> <u8 version> <u8 frame-type> <u32 seq> <payload...>

with all integers little-endian and all simulated-time floats as IEEE-754
doubles (``<d``), so clocks and latencies survive the round trip bit-exactly
— the bit-identical results contract of the parallel cluster depends on it.
The length prefix counts everything after itself (checksum, preamble, and
payload); the CRC-32 covers everything after the checksum field, so a flipped
bit anywhere in the version, type, sequence number, or payload surfaces as a
typed :class:`CorruptFrameError` instead of a garbage decode.  The sequence
number lets a request/response peer discard stale frames (duplicates injected
by a lossy transport, or the late answer to a request it already gave up on)
without desynchronising the stream.

Frame types:

``BATCH_REQUEST``
    A clock advance (the dispatch/routing cost the parent accrued against the
    shard's mirrored clock) plus an ordered list of operations.  Keys travel
    as :meth:`repro.core.hashing.KeyDigest.to_wire` payloads: the key bytes
    plus any CLAM words the sender already computed (never the ring word,
    which only the routing side uses).  The receiver resolves each key
    through its own digest cache, so it hashes a key once per residency
    there, however many operations on it arrive.
``BATCH_RESPONSE``
    The per-operation result records (in request order, possibly truncated if
    the shard's device failed mid-batch), a typed error code for the first
    failure, and the worker clock's reading plus the batch's busy time.
``CONTROL_REQUEST`` / ``CONTROL_RESPONSE``
    Low-rate management traffic (counters, telemetry snapshots, fault
    injection, clean shutdown) as a JSON object — none of it is hot-path.

Error codes map worker-side exceptions back onto the service layer's typed
errors: ``ERR_DEVICE_FAILED`` re-raises as
:class:`~repro.core.errors.DeviceFailedError` (feeding replica failover and
hinted handoff exactly like an in-process device crash) and
``ERR_SHARD_UNAVAILABLE`` as
:class:`~repro.core.errors.ShardUnavailableError`.  Malformed frames raise
:class:`~repro.core.errors.WireProtocolError` subclasses:
:class:`TruncatedFrameError` when the peer hangs up mid-frame (how a killed
worker announces itself), :class:`OversizedFrameError` when a length prefix
exceeds :data:`MAX_FRAME_BYTES` (corruption or a desynchronised stream must
not turn into an attempted multi-gigabyte allocation), and
:class:`CorruptFrameError` when a frame's CRC-32 does not match its bytes.
The payload decoders are bounds-checked end to end: any flip or truncation a
fuzzer can produce decodes to a typed ``WireProtocolError`` subclass, never
a raw ``struct.error`` or ``UnicodeDecodeError``.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.errors import DeviceFailedError, ShardUnavailableError, WireProtocolError
from repro.core.hashing import KeyDigest, as_digest
from repro.core.results import DeleteResult, InsertResult, LookupResult, ServedFrom
from repro.workloads.workload import OpKind

__all__ = [
    "ERR_DEVICE_FAILED",
    "ERR_NONE",
    "ERR_SHARD_UNAVAILABLE",
    "ERR_UNEXPECTED",
    "FRAME_BATCH_REQUEST",
    "FRAME_BATCH_RESPONSE",
    "FRAME_CONTROL_REQUEST",
    "FRAME_CONTROL_RESPONSE",
    "MAX_FRAME_BYTES",
    "WIRE_VERSION",
    "CorruptFrameError",
    "OversizedFrameError",
    "TruncatedFrameError",
    "decode_batch_request",
    "decode_batch_response",
    "decode_control",
    "encode_batch_request",
    "encode_batch_response",
    "encode_control",
    "raise_for_code",
    "recv_frame",
    "send_frame",
]

#: Protocol version carried in every frame; bumped on any layout change.
#: v2 added the CRC-32 checksum and the per-frame sequence number.
WIRE_VERSION = 2

#: Hard ceiling on one frame's body.  Generously above any real batch (the
#: executor sub-batches per shard) while small enough that a corrupt length
#: prefix fails fast instead of exhausting memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

FRAME_BATCH_REQUEST = 1
FRAME_BATCH_RESPONSE = 2
FRAME_CONTROL_REQUEST = 3
FRAME_CONTROL_RESPONSE = 4

_FRAME_TYPES = (
    FRAME_BATCH_REQUEST,
    FRAME_BATCH_RESPONSE,
    FRAME_CONTROL_REQUEST,
    FRAME_CONTROL_RESPONSE,
)

#: Typed error codes carried in batch responses.
ERR_NONE = 0
ERR_DEVICE_FAILED = 1
ERR_SHARD_UNAVAILABLE = 2
ERR_UNEXPECTED = 3

_OP_CODES: Dict[OpKind, int] = {
    OpKind.LOOKUP: 0,
    OpKind.INSERT: 1,
    OpKind.UPDATE: 2,
    OpKind.DELETE: 3,
}
_CODE_OPS: Dict[int, OpKind] = {code: kind for kind, code in _OP_CODES.items()}

_SERVED_CODES: Dict[ServedFrom, int] = {
    ServedFrom.BUFFER: 0,
    ServedFrom.INCARNATION: 1,
    ServedFrom.DELETED: 2,
    ServedFrom.MISSING: 3,
}
_CODE_SERVED: Dict[int, ServedFrom] = {code: served for served, code in _SERVED_CODES.items()}

_RESULT_LOOKUP = 0
_RESULT_INSERT = 1
_RESULT_DELETE = 2

_HEADER = struct.Struct("<I")
_CRC = struct.Struct("<I")
#: version byte, frame-type byte, u32 sequence number.
_PREAMBLE = struct.Struct("<BBI")

ResultRecord = Union[LookupResult, InsertResult, DeleteResult]


class TruncatedFrameError(WireProtocolError):
    """Raised when the stream ends mid-frame — the peer died or hung up."""


class OversizedFrameError(WireProtocolError):
    """Raised when a length prefix exceeds :data:`MAX_FRAME_BYTES`."""


class CorruptFrameError(WireProtocolError):
    """Raised when a frame's CRC-32 does not match its bytes.

    Framing itself is intact (the length prefix was sane and the full body
    arrived), so the stream is still synchronised: the receiver may discard
    the frame and keep serving, and a request/response client may retry."""


def raise_for_code(code: int, message: str):
    """Re-raise a worker-reported error code as its typed exception."""
    if code == ERR_NONE:
        return
    if code == ERR_DEVICE_FAILED:
        raise DeviceFailedError(message)
    if code == ERR_SHARD_UNAVAILABLE:
        raise ShardUnavailableError(message)
    raise WireProtocolError(message or f"worker reported error code {code}")


# -- Framing ------------------------------------------------------------------------


def send_frame(sock, frame_type: int, payload: bytes, seq: int = 0) -> None:
    """Write one length-prefixed, checksummed frame to a connected socket."""
    body_len = len(payload) + _CRC.size + _PREAMBLE.size
    if body_len > MAX_FRAME_BYTES:
        raise OversizedFrameError(f"refusing to send {body_len}-byte frame (max {MAX_FRAME_BYTES})")
    covered = _PREAMBLE.pack(WIRE_VERSION, frame_type, seq) + payload
    sock.sendall(_HEADER.pack(body_len) + _CRC.pack(zlib.crc32(covered)) + covered)


def _recv_exact(sock, size: int) -> bytes:
    chunks: List[bytes] = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            got = size - remaining
            raise TruncatedFrameError(f"stream ended after {got} of {size} frame bytes")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock) -> Tuple[int, int, bytes]:
    """Read one frame; returns ``(frame_type, seq, payload)``.

    Raises :class:`TruncatedFrameError` on EOF mid-frame (including EOF after
    a partial length prefix), :class:`OversizedFrameError` on a length prefix
    past :data:`MAX_FRAME_BYTES`, :class:`CorruptFrameError` on a CRC-32
    mismatch (checked before the version and type bytes, which the checksum
    covers), and :class:`WireProtocolError` on a version or frame-type byte
    this implementation does not speak.
    """
    (body_len,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if body_len > MAX_FRAME_BYTES:
        raise OversizedFrameError(f"frame length {body_len} exceeds limit {MAX_FRAME_BYTES}")
    if body_len < _CRC.size + _PREAMBLE.size:
        raise WireProtocolError(f"frame body of {body_len} bytes is too short for a preamble")
    body = _recv_exact(sock, body_len)
    (expected_crc,) = _CRC.unpack_from(body)
    covered = body[_CRC.size :]
    actual_crc = zlib.crc32(covered)
    if actual_crc != expected_crc:
        raise CorruptFrameError(
            f"frame CRC mismatch (expected {expected_crc:#010x}, computed {actual_crc:#010x})"
        )
    version, frame_type, seq = _PREAMBLE.unpack_from(covered)
    if version != WIRE_VERSION:
        raise WireProtocolError(f"unsupported wire version {version} (speaking {WIRE_VERSION})")
    if frame_type not in _FRAME_TYPES:
        raise WireProtocolError(f"unknown frame type {frame_type}")
    return frame_type, seq, covered[_PREAMBLE.size :]


# -- Bounds-checked decoding helpers ------------------------------------------------


def _unpack(fmt: struct.Struct, payload: bytes, offset: int) -> tuple:
    """``Struct.unpack_from`` that raises a typed error on a short buffer."""
    try:
        return fmt.unpack_from(payload, offset)
    except struct.error as error:
        raise WireProtocolError(f"frame payload truncated: {error}") from error


def _take(payload: bytes, offset: int, size: int) -> Tuple[bytes, int]:
    """Slice ``size`` bytes at ``offset``, raising if the payload is short."""
    end = offset + size
    if size < 0 or end > len(payload):
        raise WireProtocolError(
            f"frame payload truncated: wanted {size} bytes at offset {offset}, "
            f"have {len(payload)} total"
        )
    return bytes(payload[offset:end]), end


_BATCH_REQ_HEAD = struct.Struct("<dI")
_OP_CODE = struct.Struct("<B")
_VALUE_LEN = struct.Struct("<I")
_RESULT_HEAD = struct.Struct("<BI")
_LOOKUP_TAIL = struct.Struct("<BIdBIII")
_INSERT_TAIL = struct.Struct("<dBdIII")
_DELETE_TAIL = struct.Struct("<dB")
_BATCH_RESP_HEAD = struct.Struct("<ddBII")


# -- Batch requests -----------------------------------------------------------------


def _encode_key(key) -> bytes:
    """Any key as a digest wire payload."""
    return (key if type(key) is KeyDigest else as_digest(key)).to_wire()


def encode_batch_request(advance_ms: float, operations: Sequence[Tuple[OpKind, object, bytes]]):
    """Encode ``(kind, key, value)`` triples plus the pending clock advance."""
    parts = [_BATCH_REQ_HEAD.pack(advance_ms, len(operations))]
    for kind, key, value in operations:
        value_bytes = bytes(value)
        parts.append(_OP_CODE.pack(_OP_CODES[kind]))
        parts.append(_encode_key(key))
        parts.append(_VALUE_LEN.pack(len(value_bytes)))
        parts.append(value_bytes)
    return b"".join(parts)


def decode_batch_request(payload: bytes) -> Tuple[float, List[Tuple[OpKind, KeyDigest, bytes]]]:
    """Inverse of :func:`encode_batch_request`."""
    advance_ms, count = _unpack(_BATCH_REQ_HEAD, payload, 0)
    offset = _BATCH_REQ_HEAD.size
    operations: List[Tuple[OpKind, KeyDigest, bytes]] = []
    for _ in range(count):
        (op_code,) = _unpack(_OP_CODE, payload, offset)
        kind = _CODE_OPS.get(op_code)
        if kind is None:
            raise WireProtocolError(f"unknown operation code {op_code}")
        try:
            digest, offset = KeyDigest.from_wire(payload, offset + 1)
        except (struct.error, ValueError) as error:
            raise WireProtocolError(f"malformed key digest: {error}") from error
        (value_len,) = _unpack(_VALUE_LEN, payload, offset)
        value, offset = _take(payload, offset + _VALUE_LEN.size, value_len)
        operations.append((kind, digest, value))
    return advance_ms, operations


# -- Batch responses ----------------------------------------------------------------


def _encode_result(result: ResultRecord) -> bytes:
    if isinstance(result, LookupResult):
        value = result.value
        head = _RESULT_HEAD.pack(_RESULT_LOOKUP, len(result.key)) + result.key
        tail = _LOOKUP_TAIL.pack(
            1 if value is not None else 0,
            len(value) if value is not None else 0,
            result.latency_ms,
            _SERVED_CODES[result.served_from],
            result.flash_reads,
            result.incarnations_checked,
            result.false_positive_reads,
        )
        return head + tail + (value if value is not None else b"")
    if isinstance(result, InsertResult):
        return (
            _RESULT_HEAD.pack(_RESULT_INSERT, len(result.key))
            + result.key
            + _INSERT_TAIL.pack(
                result.latency_ms,
                1 if result.flushed else 0,
                result.flush_latency_ms,
                result.incarnations_tried,
                result.flash_writes,
                result.flash_reads,
            )
        )
    if isinstance(result, DeleteResult):
        return (
            _RESULT_HEAD.pack(_RESULT_DELETE, len(result.key))
            + result.key
            + _DELETE_TAIL.pack(result.latency_ms, 1 if result.removed_from_buffer else 0)
        )
    raise WireProtocolError(f"cannot serialise result type {type(result).__name__}")


def _decode_result(payload: bytes, offset: int) -> Tuple[ResultRecord, int]:
    record_type, key_len = _unpack(_RESULT_HEAD, payload, offset)
    key, offset = _take(payload, offset + _RESULT_HEAD.size, key_len)
    if record_type == _RESULT_LOOKUP:
        has_value, value_len, latency_ms, served_code, flash_reads, incarnations, fp_reads = (
            _unpack(_LOOKUP_TAIL, payload, offset)
        )
        offset += _LOOKUP_TAIL.size
        value: Optional[bytes] = None
        if has_value:
            value, offset = _take(payload, offset, value_len)
        served = _CODE_SERVED.get(served_code)
        if served is None:
            raise WireProtocolError(f"unknown served-from code {served_code}")
        return (
            LookupResult(key, value, latency_ms, served, flash_reads, incarnations, fp_reads),
            offset,
        )
    if record_type == _RESULT_INSERT:
        latency_ms, flushed, flush_latency_ms, tried, writes, reads = _unpack(
            _INSERT_TAIL, payload, offset
        )
        offset += _INSERT_TAIL.size
        return (
            InsertResult(key, latency_ms, bool(flushed), flush_latency_ms, tried, writes, reads),
            offset,
        )
    if record_type == _RESULT_DELETE:
        latency_ms, removed = _unpack(_DELETE_TAIL, payload, offset)
        offset += _DELETE_TAIL.size
        return DeleteResult(key, latency_ms, bool(removed)), offset
    raise WireProtocolError(f"unknown result record type {record_type}")


def encode_batch_response(
    results: Sequence[ResultRecord],
    error_code: int,
    error_message: str,
    clock_ms: float,
    busy_ms: float,
) -> bytes:
    """Encode results (request order, truncated at the first failure) + status."""
    message_bytes = error_message.encode("utf-8")
    parts = [
        _BATCH_RESP_HEAD.pack(clock_ms, busy_ms, error_code, len(message_bytes), len(results)),
        message_bytes,
    ]
    for result in results:
        parts.append(_encode_result(result))
    return b"".join(parts)


def decode_batch_response(payload: bytes) -> Tuple[List[ResultRecord], int, str, float, float]:
    """Inverse of :func:`encode_batch_response`.

    Returns ``(results, error_code, error_message, clock_ms, busy_ms)``.
    """
    clock_ms, busy_ms, error_code, message_len, result_count = _unpack(
        _BATCH_RESP_HEAD, payload, 0
    )
    message_bytes, offset = _take(payload, _BATCH_RESP_HEAD.size, message_len)
    try:
        message = message_bytes.decode("utf-8")
    except UnicodeDecodeError as error:
        raise WireProtocolError(f"malformed error message: {error}") from error
    results: List[ResultRecord] = []
    for _ in range(result_count):
        result, offset = _decode_result(payload, offset)
        results.append(result)
    return results, error_code, message, clock_ms, busy_ms


# -- Control frames -----------------------------------------------------------------


def encode_control(message: Dict[str, object]) -> bytes:
    """Encode a control message (JSON keeps this extensible off the hot path)."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8")


def decode_control(payload: bytes) -> Dict[str, object]:
    """Inverse of :func:`encode_control`."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireProtocolError(f"malformed control frame: {error}") from error
    if not isinstance(message, dict):
        raise WireProtocolError("control frame must decode to a JSON object")
    return message
