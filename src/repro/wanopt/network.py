"""Network subsystem: the WAN link the optimizer transmits over.

The paper's network subsystem simply sends bytes at (close to) link speed
(§8, simplification 2: UDP at link rate with flow/congestion control turned
off), so the model is serialisation delay only: transmitting ``n`` bytes over
a ``b`` Mbps link takes ``8n / b`` microseconds of simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flashsim.clock import SimulationClock


@dataclass(frozen=True)
class TransmissionResult:
    """Outcome of transmitting one object (or burst of bytes)."""

    bytes_sent: int
    duration_ms: float
    completed_at_ms: float


class Link:
    """A WAN link with a fixed capacity in Mbps."""

    def __init__(self, bandwidth_mbps: float, clock: SimulationClock) -> None:
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth_mbps must be positive")
        self.bandwidth_mbps = bandwidth_mbps
        self.clock = clock
        self.bytes_sent = 0
        self.busy_ms = 0.0
        #: When the link has sent everything :meth:`send_overlapped` queued on it.
        self.drained_at_ms = clock.now_ms

    def serialization_delay_ms(self, nbytes: int) -> float:
        """Time to clock ``nbytes`` onto the wire."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        bits = nbytes * 8
        return bits / (self.bandwidth_mbps * 1000.0)  # Mbps = 1000 bits per ms

    def transmit(self, nbytes: int) -> TransmissionResult:
        """Send ``nbytes``, advancing the shared simulation clock."""
        delay = self.serialization_delay_ms(nbytes)
        self.clock.advance(delay)
        self.bytes_sent += nbytes
        self.busy_ms += delay
        return TransmissionResult(
            bytes_sent=nbytes, duration_ms=delay, completed_at_ms=self.clock.now_ms
        )

    def start_idle(self) -> None:
        """Start a pipelined run with nothing queued: the link is free from now."""
        self.drained_at_ms = self.clock.now_ms

    def send_overlapped(self, nbytes: int) -> float:
        """Queue ``nbytes`` that are ready now; returns their serialisation delay.

        Scenario 1 (Figure 9): the link works while the engine moves on, so the
        clock does not advance; the bytes start once the link has drained what
        was queued before, and a run ends at ``max(clock.now_ms, drained_at_ms)``.
        """
        delay = self.serialization_delay_ms(nbytes)
        self.drained_at_ms = max(self.clock.now_ms, self.drained_at_ms) + delay
        self.bytes_sent += nbytes
        self.busy_ms += delay
        return delay
