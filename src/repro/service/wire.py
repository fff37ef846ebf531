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

``BATCH_REQUEST`` / ``BATCH_RESPONSE``
    One sub-batch and its answer, columnar since v3 — a field of every
    operation travels together, so either side packs and unpacks a column
    with one call instead of a record with several::

        request   head         <d advance_ms> <u32 count>
                  op codes     column: count x u8
                  lengths      column: count x u32 key lengths, then as many value lengths
                  keys         block: canonical key bytes, concatenated
                  values       block: value bytes, concatenated
        response  head         <d clock_ms> <d busy_ms> <u8 error> <u32 message len> <u32 count>
                  message      UTF-8, the first failure's
                  result rows  column: count x 39-byte fixed-width rows (``_RESULT_ROW``)
                  bytes        block: each row's key, then its value if it has one

    ``advance_ms`` is the dispatch/routing cost the parent accrued against
    the shard's mirrored clock; results come back in request order, possibly
    truncated if the shard's device failed mid-batch, with the worker clock's
    reading and the batch's busy time.  What stopped travelling in v3 is the
    ``(seed, digest)`` pairs a key used to carry: the receiver resolves every
    key through its own digest cache (:func:`decode_batch_request`), so it
    hashes a key once per residency there however many operations on it
    arrive; a routing parent never had CLAM words to send, and a sender that
    has them would pay a packing pass to save the receiver one traversal.
    The public codecs are :func:`encode_batch_request` ``(advance_ms,
    [(kind, key, value), ...])``, :func:`decode_batch_request` ``(payload)``,
    :func:`encode_batch_response` ``(results, error_code, error_message,
    clock_ms, busy_ms)`` and :func:`decode_batch_response` ``(payload)``.
``CONTROL_REQUEST`` / ``CONTROL_RESPONSE``
    Low-rate management traffic (counters, telemetry snapshots, fault
    injection, a migration's key scan, clean shutdown) as a JSON object —
    none of it is hot-path.

Error codes map worker-side exceptions back onto the service layer's typed
errors: ``ERR_DEVICE_FAILED`` re-raises as
:class:`~repro.core.errors.DeviceFailedError` (feeding replica failover and
hinted handoff exactly like an in-process device crash).  Malformed frames raise
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

from repro.core.errors import DeviceFailedError, WireProtocolError
from repro.core.hashing import KeyDigest, as_digest, key_data
from repro.core.results import DeleteResult, InsertResult, LookupResult, ServedFrom
from repro.workloads.workload import OpKind

__all__ = [
    "ERR_DEVICE_FAILED",
    "ERR_NONE",
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
#: v2 added the CRC-32 checksum and the per-frame sequence number; v3 made
#: batch payloads columnar and stopped shipping key digests.
WIRE_VERSION = 3

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

#: Typed error codes carried in batch responses (wire values: never renumbered).
ERR_NONE = 0
ERR_DEVICE_FAILED = 1
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
_BATCH_RESP_HEAD = struct.Struct("<ddBII")
#: One result of any type: record type, served-from code (lookups), a flag
#: (lookup: its value follows its key in the byte block; insert: flushed;
#: delete: removed from the buffer), key length, value length, ``latency_ms``,
#: ``flush_latency_ms`` (inserts), then three counters — ``flash_reads``,
#: ``incarnations_checked``, ``false_positive_reads`` of a lookup;
#: ``incarnations_tried``, ``flash_writes``, ``flash_reads`` of an insert.
_RESULT_ROW = struct.Struct("<BBBIIddIII")


# -- Batch requests -----------------------------------------------------------------


def encode_batch_request(advance_ms: float, operations: Sequence[Tuple[OpKind, object, bytes]]):
    """Encode ``(kind, key, value)`` triples plus the pending clock advance."""
    codes = bytearray()
    keys: List[bytes] = []
    values: List[bytes] = []
    for kind, key, value in operations:
        codes.append(_OP_CODES[kind])
        keys.append(key.data if type(key) is KeyDigest else key_data(key))
        values.append(value if type(value) is bytes else bytes(value))
    lengths = struct.pack("<%dI" % (2 * len(keys)), *map(len, keys), *map(len, values))
    return b"".join([_BATCH_REQ_HEAD.pack(advance_ms, len(keys)), codes, lengths, *keys, *values])


def decode_batch_request(payload: bytes) -> Tuple[float, List[Tuple[OpKind, KeyDigest, bytes]]]:
    """Inverse of :func:`encode_batch_request`.

    Every key is resolved through :func:`~repro.core.hashing.as_digest`, so
    the receiving process hashes it once per residency in its digest cache,
    not once per operation received.
    """
    advance_ms, count = _unpack(_BATCH_REQ_HEAD, payload, 0)
    lengths_at = _BATCH_REQ_HEAD.size + count
    offset = lengths_at + 8 * count  # two u32 lengths per operation
    if offset > len(payload):
        raise WireProtocolError(
            f"frame payload truncated: {count} operations announced in {len(payload)} bytes"
        )
    codes = payload[_BATCH_REQ_HEAD.size : lengths_at]
    kinds = [*map(_CODE_OPS.get, codes)]
    if None in kinds:
        raise WireProtocolError(f"unknown operation code {codes[kinds.index(None)]}")
    pieces: List[bytes] = []  # every key, then every value
    for size in struct.unpack_from("<%dI" % (2 * count), payload, lengths_at):
        end = offset + size
        pieces.append(payload[offset:end])
        offset = end
    # Slices past the end come back short instead of raising, so one check
    # after the walk covers every key and value.
    if offset != len(payload):
        raise WireProtocolError(
            f"frame payload truncated or overlong: the length column ends the blocks at "
            f"offset {offset}, have {len(payload)} total"
        )
    return advance_ms, [*zip(kinds, map(as_digest, pieces[:count]), pieces[count:])]


# -- Batch responses ----------------------------------------------------------------


def encode_batch_response(
    results: Sequence[ResultRecord],
    error_code: int,
    error_message: str,
    clock_ms: float,
    busy_ms: float,
) -> bytes:
    """Encode results (request order, truncated at the first failure) + status."""
    message_bytes = error_message.encode("utf-8")
    pack = _RESULT_ROW.pack
    rows: List[bytes] = []
    block: List[bytes] = []
    for result in results:
        record = type(result)
        key = result.key
        block.append(key)
        size = len(key)
        latency_ms = result.latency_ms
        if record is LookupResult:
            value = result.value
            found = value is not None
            if found:
                block.append(value)
            served = _SERVED_CODES[result.served_from]
            checked = result.incarnations_checked
            counters = (result.flash_reads, checked, result.false_positive_reads)
            value_len = len(value) if found else 0
            row = pack(_RESULT_LOOKUP, served, found, size, value_len, latency_ms, 0.0, *counters)
        elif record is InsertResult:
            counters = (result.incarnations_tried, result.flash_writes, result.flash_reads)
            flush_ms = result.flush_latency_ms
            row = pack(_RESULT_INSERT, 0, result.flushed, size, 0, latency_ms, flush_ms, *counters)
        elif record is DeleteResult:
            removed = result.removed_from_buffer
            row = pack(_RESULT_DELETE, 0, removed, size, 0, latency_ms, 0.0, 0, 0, 0)
        else:
            raise WireProtocolError(f"cannot serialise result type {record.__name__}")
        rows.append(row)
    head = _BATCH_RESP_HEAD.pack(clock_ms, busy_ms, error_code, len(message_bytes), len(rows))
    return b"".join([head, message_bytes, *rows, *block])


def decode_batch_response(payload: bytes) -> Tuple[List[ResultRecord], int, str, float, float]:
    """Inverse of :func:`encode_batch_response`.

    Returns ``(results, error_code, error_message, clock_ms, busy_ms)``.
    """
    clock_ms, busy_ms, error_code, message_len, result_count = _unpack(
        _BATCH_RESP_HEAD, payload, 0
    )
    message_bytes, rows_at = _take(payload, _BATCH_RESP_HEAD.size, message_len)
    try:
        message = message_bytes.decode("utf-8")
    except UnicodeDecodeError as error:
        raise WireProtocolError(f"malformed error message: {error}") from error
    offset = rows_at + _RESULT_ROW.size * result_count
    if offset > len(payload):
        raise WireProtocolError(
            f"frame payload truncated: {result_count} results announced in {len(payload)} bytes"
        )
    results: List[ResultRecord] = []
    append = results.append
    for (
        record_type,
        served_code,
        flag,
        key_len,
        value_len,
        latency_ms,
        flush_ms,
        first,
        second,
        third,
    ) in _RESULT_ROW.iter_unpack(payload[rows_at:offset]):
        end = offset + key_len
        key = payload[offset:end]
        offset = end
        if record_type == _RESULT_LOOKUP:
            value: Optional[bytes] = None
            if flag:
                offset = end + value_len
                value = payload[end:offset]
            served = _CODE_SERVED.get(served_code)
            if served is None:
                raise WireProtocolError(f"unknown served-from code {served_code}")
            append(LookupResult(key, value, latency_ms, served, first, second, third))
        elif record_type == _RESULT_INSERT:
            append(InsertResult(key, latency_ms, bool(flag), flush_ms, first, second, third))
        elif record_type == _RESULT_DELETE:
            append(DeleteResult(key, latency_ms, bool(flag)))
        else:
            raise WireProtocolError(f"unknown result record type {record_type}")
    # Slices past the end come back short instead of raising, so one check
    # after the walk covers every row's key and value.
    if offset != len(payload):
        raise WireProtocolError(
            f"frame payload truncated or overlong: the result rows end the byte block at "
            f"offset {offset}, have {len(payload)} total"
        )
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
