"""Deterministic network-fault injection for the process-per-shard cluster.

:mod:`repro.flashsim.faults` gives every simulated *device* a seeded,
scriptable failure dial; this module is its twin for the *network hop*
between the parent and a shard worker.  A :class:`ChaosTransport` wraps the
parent side of the worker socketpair and perturbs whole frames in flight —
drop, delay, duplicate, reorder, byte-corrupt, and hang — on a seeded
schedule, so every gray-failure scenario the RPC plane claims to survive can
be replayed bit-for-bit from a seed.

The transport is frame-aware but protocol-agnostic: it never decodes
payloads.  On the send side one ``sendall`` call is one frame (that is how
:func:`repro.service.wire.send_frame` writes); on the receive side it reads
whole frames off the real socket using the same length prefix the wire layer
uses, applies at most one fault per frame, and serves the surviving bytes
through a normal ``recv`` interface.  :class:`RemoteShard` therefore runs
completely unmodified on top of it — which is the point: the deadline,
retry, hedge and circuit-breaker machinery is exercised by the very code
path production uses.

Fault semantics (one fault per frame, chosen by a single seeded draw):

``drop``
    The frame vanishes.  A dropped request is never executed; a dropped
    response leaves the worker idle and the parent waiting — either way the
    parent's per-request deadline expires and its retry resends the same
    sequence number.
``delay``
    The frame is delivered after ``delay_ms`` of real wall-clock sleep —
    enough to trip hedged reads (and deadlines, if ``delay_ms`` exceeds
    them) without losing anything.
``duplicate``
    The frame is delivered twice.  The receiver's sequence-number check
    discards the stale copy.
``reorder``
    The frame is held and delivered after the *next* frame in the same
    direction (or on the next pump if no frame follows, so nothing is held
    forever).
``corrupt``
    One byte after the length prefix is flipped, so framing stays
    synchronised and the receiver sees a typed
    :class:`~repro.service.wire.CorruptFrameError` from the CRC-32 check —
    the retryable corruption case.  (A flipped *length prefix* desynchronises
    the stream entirely; that failure mode is the hang fault's territory,
    and the wire layer's oversize/truncation guards cover it in tests.)
``hang``
    The transport wedges: every later send is swallowed and every receive
    blocks out its timeout then raises ``TimeoutError``, exactly like a
    worker that stopped scheduling mid-conversation.  Only
    :meth:`ChaosTransport.heal` (or removing the transport) un-wedges it.

Every injection invokes the ``on_inject`` callback — the cluster wires that
to a ``chaos_injected`` event in its :class:`~repro.telemetry.events.EventLog`
— so a chaos run's full fault history is replayable *and* auditable.
"""

from __future__ import annotations

import random
import socket
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.errors import ConfigurationError

__all__ = [
    "CHAOS_FAULTS",
    "ChaosSchedule",
    "ChaosTransport",
    "derive_seed",
]

#: Every fault a schedule can inject, in the order the seeded draw maps them.
CHAOS_FAULTS = ("drop", "delay", "duplicate", "reorder", "corrupt", "hang")

_LEN_PREFIX = struct.Struct("<I")

#: Ceiling on how long a hung transport sleeps per receive before raising —
#: keeps a missing deadline from turning a test into a multi-minute stall.
_MAX_HANG_SLEEP_S = 1.0


@dataclass(frozen=True)
class ChaosSchedule:
    """A seeded probability mix plus an exact per-frame script.

    Rates are per-frame probabilities (one seeded draw decides each frame's
    fate, so a schedule replays identically from the same seed); ``script``
    pins specific frames — keyed by the transport's monotonically increasing
    frame index, counted across both directions — to specific faults,
    overriding the rates for those frames.  ``none`` in a script entry
    forces a frame through untouched.
    """

    drop_rate: float = 0.0
    delay_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    hang_rate: float = 0.0
    #: Wall-clock delay applied by the ``delay`` fault.
    delay_ms: float = 20.0
    #: Exact overrides: frame index -> fault name (or ``"none"``).
    script: Dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        rates = (
            self.drop_rate,
            self.delay_rate,
            self.duplicate_rate,
            self.reorder_rate,
            self.corrupt_rate,
            self.hang_rate,
        )
        if any(rate < 0.0 for rate in rates) or sum(rates) > 1.0:
            raise ConfigurationError(
                "chaos rates must be non-negative and sum to at most 1.0 "
                f"(got {rates})"
            )
        if self.delay_ms < 0.0:
            raise ConfigurationError(f"delay_ms must be non-negative (got {self.delay_ms})")
        for index, fault in self.script.items():
            if fault != "none" and fault not in CHAOS_FAULTS:
                raise ConfigurationError(f"unknown scripted fault {fault!r} at frame {index}")

    @property
    def total_rate(self) -> float:
        return (
            self.drop_rate
            + self.delay_rate
            + self.duplicate_rate
            + self.reorder_rate
            + self.corrupt_rate
            + self.hang_rate
        )

    def pick(self, rng: random.Random, frame_index: int) -> Optional[str]:
        """The fault for one frame: script first, then one seeded draw."""
        scripted = self.script.get(frame_index)
        if scripted is not None:
            return None if scripted == "none" else scripted
        if self.total_rate <= 0.0:
            return None
        draw = rng.random()
        threshold = 0.0
        for fault, rate in zip(
            CHAOS_FAULTS,
            (
                self.drop_rate,
                self.delay_rate,
                self.duplicate_rate,
                self.reorder_rate,
                self.corrupt_rate,
                self.hang_rate,
            ),
        ):
            threshold += rate
            if draw < threshold:
                return fault
        return None


class ChaosTransport:
    """A fault-injecting wrapper around the parent side of a worker socket.

    Duck-types the small socket surface :class:`~repro.service.parallel.
    RemoteShard` uses — ``sendall``/``recv``/``settimeout``/``gettimeout``/
    ``close`` — so it can be slid under an existing proxy (and
    slid back out) without the proxy noticing.  See the module docstring for
    the fault taxonomy; determinism comes from one ``random.Random(seed)``
    consuming exactly one draw per unscripted frame.
    """

    def __init__(
        self,
        sock: socket.socket,
        schedule: ChaosSchedule,
        seed: int = 0,
        on_inject: Optional[Callable[[str, str, int], None]] = None,
    ) -> None:
        #: The real socket underneath (used to unwrap on ``clear_chaos``).
        self.raw = sock
        self.schedule = schedule
        self.seed = seed
        self._rng = random.Random(seed)
        self._on_inject = on_inject
        self._frames = 0  # frames seen, both directions (script key space)
        self._injected = 0
        self._hung = False
        self._eof = False
        self._rx_buffer = bytearray()  # fault-processed bytes ready to serve
        self._rx_held: Optional[bytes] = None  # a reordered inbound frame
        self._tx_held: Optional[bytes] = None  # a reordered outbound frame

    # -- Introspection -----------------------------------------------------------------

    @property
    def injected_faults(self) -> int:
        """How many faults this transport has injected so far."""
        return self._injected

    def heal(self) -> None:
        """Un-wedge a hung transport (frames swallowed while hung stay lost)."""
        self._hung = False

    # -- Fault selection ---------------------------------------------------------------

    def _next_fault(self, direction: str) -> Optional[str]:
        index = self._frames
        self._frames += 1
        fault = self.schedule.pick(self._rng, index)
        if fault is not None:
            self._injected += 1
            if self._on_inject is not None:
                self._on_inject(fault, direction, index)
        return fault

    @staticmethod
    def _corrupt(frame: bytes, rng: random.Random) -> bytes:
        """Flip one byte after the length prefix (framing stays intact)."""
        if len(frame) <= _LEN_PREFIX.size:  # pragma: no cover - frames always have bodies
            return frame
        position = rng.randrange(_LEN_PREFIX.size, len(frame))
        mutated = bytearray(frame)
        mutated[position] ^= 1 << rng.randrange(8)
        return bytes(mutated)

    # -- Send side ---------------------------------------------------------------------

    def sendall(self, data: bytes) -> None:
        """Send one frame (the wire layer writes each frame in one call)."""
        if self._hung:
            return  # swallowed: the worker never sees it
        frame = bytes(data)
        fault = self._next_fault("send")
        if fault == "drop":
            return
        if fault == "hang":
            self._hung = True
            return
        if fault == "corrupt":
            frame = self._corrupt(frame, self._rng)
        elif fault == "delay":
            time.sleep(self.schedule.delay_ms / 1000.0)
        elif fault == "reorder":
            if self._tx_held is None:
                self._tx_held = frame
                return
            # Already holding one: deliver both rather than stack indefinitely.
        held, self._tx_held = self._tx_held, None
        self.raw.sendall(frame)
        if fault == "duplicate":
            self.raw.sendall(frame)
        if held is not None:
            self.raw.sendall(held)

    # -- Receive side ------------------------------------------------------------------

    def _read_exact(self, size: int) -> bytes:
        chunks: List[bytes] = []
        remaining = size
        while remaining:
            chunk = self.raw.recv(min(remaining, 1 << 20))
            if not chunk:
                # EOF.  Surface any partial bytes so the wire layer raises
                # its own TruncatedFrameError; every later recv is EOF too.
                self._eof = True
                break
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _read_frame(self) -> bytes:
        """One whole frame (length prefix included) off the real socket.

        Returns whatever partial bytes arrived on EOF; may raise
        ``TimeoutError`` from the underlying socket timeout, which callers
        propagate as a deadline expiry.
        """
        prefix = self._read_exact(_LEN_PREFIX.size)
        if len(prefix) < _LEN_PREFIX.size:
            return prefix  # EOF (possibly mid-prefix): pass the bytes through
        (body_len,) = _LEN_PREFIX.unpack(prefix)
        return prefix + self._read_exact(body_len)

    def _pump(self) -> None:
        """Read one frame, apply its fault, append survivors to the buffer."""
        try:
            frame = self._read_frame()
        except (TimeoutError, socket.timeout):
            if self._rx_held is not None:
                # Nothing followed the held frame; deliver it instead of
                # letting a reorder masquerade as a hang.
                self._rx_buffer.extend(self._rx_held)
                self._rx_held = None
                return
            raise
        if self._eof:
            # A hangup is the worker-death signal: deliver it untouched
            # (chaos perturbs traffic, it must never mask a real death).
            self._rx_buffer.extend(frame)
            return
        fault = self._next_fault("recv")
        if fault == "drop":
            return
        if fault == "hang":
            self._hung = True
            return
        if fault == "corrupt":
            frame = self._corrupt(frame, self._rng)
        elif fault == "delay":
            time.sleep(self.schedule.delay_ms / 1000.0)
        elif fault == "reorder":
            if self._rx_held is None:
                self._rx_held = frame
                return
        self._rx_buffer.extend(frame)
        if fault == "duplicate":
            self._rx_buffer.extend(frame)
        if self._rx_held is not None and fault != "reorder":
            self._rx_buffer.extend(self._rx_held)
            self._rx_held = None

    def recv(self, size: int) -> bytes:
        if self._hung:
            timeout = self.gettimeout()
            time.sleep(min(timeout if timeout is not None else 0.01, _MAX_HANG_SLEEP_S))
            raise socket.timeout("chaos transport is hung")
        while not self._rx_buffer:
            if self._eof:
                return b""  # the wire layer turns this into TruncatedFrameError
            self._pump()
            if self._hung:
                return self.recv(size)  # the pump just wedged us
            # A dropped frame leaves the buffer empty; loop and wait for the
            # next one (or for the socket timeout to expire in _pump).
        take = min(size, len(self._rx_buffer))
        data = bytes(self._rx_buffer[:take])
        del self._rx_buffer[:take]
        return data

    # -- Socket passthrough ------------------------------------------------------------

    def settimeout(self, timeout: Optional[float]) -> None:
        self.raw.settimeout(timeout)

    def gettimeout(self) -> Optional[float]:
        return self.raw.gettimeout()

    def close(self) -> None:
        self.raw.close()


def derive_seed(base_seed: int, shard_id: str) -> int:
    """A stable per-shard seed so one cluster seed fans out deterministically."""
    value = base_seed & 0xFFFFFFFF
    for byte in shard_id.encode("utf-8"):
        value = ((value * 1000003) ^ byte) & 0xFFFFFFFFFFFFFFFF
    return value
