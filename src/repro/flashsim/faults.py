"""Deterministic fault injection for simulated storage devices.

Every :class:`~repro.flashsim.device.StorageDevice` owns a
:class:`FaultInjector` that is consulted before each I/O.  A healthy injector
is a no-op; a faulted one can

* **crash-stop** the device (every I/O raises
  :class:`~repro.core.errors.DeviceFailedError` until :meth:`heal`),
* inject **intermittent I/O errors** at a configured rate, drawn from a
  seeded RNG so a given ``(seed, error_rate)`` pair always fails the exact
  same sequence of I/Os,
* **degrade** the device, multiplying and/or padding each operation's latency
  without failing it (a sick-but-alive replica), or
* arm a deterministic **power cut** (:meth:`crash_after_n_ios`): the n-th
  subsequent I/O unit is interrupted *mid-operation*.  The injector then
  transitions into :attr:`FaultMode.TORN_WRITE` (power failed during a page
  write — the page is left partially programmed and fails its CRC),
  :attr:`FaultMode.INTERRUPTED_ERASE` (power failed during a block erase —
  the block reads as erased-dirty until re-erased) or
  :attr:`FaultMode.POWER_LOST` (any other I/O), and every later I/O raises
  like a crash-stop.  Devices consume the countdown through
  :meth:`consume_io_units` at page granularity, so *every* I/O boundary —
  including each page inside a streaming write and each block erase — is a
  reachable crash point for the recovery test sweep.  Durable side effects
  of the interrupted operation are modeled by the device itself (see
  :mod:`repro.flashsim.persistent`).

The injector is the mechanism underneath shard failure in the service layer:
:meth:`repro.service.cluster.ClusterService.fail_shard` crashes a shard's
devices, the replicated read/write paths observe the resulting
``DeviceFailedError``\\ s, and
:meth:`~repro.service.rebalance.KeyMigrator.recover` re-replicates what the
dead shard owned.  Everything is deterministic under seed control, so failure
experiments replay exactly.
"""

from __future__ import annotations

import enum
import random
from typing import Optional

from repro.core.errors import DeviceFailedError


class FaultMode(enum.Enum):
    """Operating state of a :class:`FaultInjector`."""

    HEALTHY = "healthy"
    CRASHED = "crashed"
    IO_ERRORS = "io-errors"
    DEGRADED = "degraded"
    #: Power was cut mid-page-write; the page is torn (fails CRC on reopen).
    TORN_WRITE = "torn-write"
    #: Power was cut mid-block-erase; the block is erased-dirty until re-erased.
    INTERRUPTED_ERASE = "interrupted-erase"
    #: Power was cut between I/Os (or during a read, which has no side effect).
    POWER_LOST = "power-lost"

    # Identity hash (members are singletons): ``Enum.__hash__`` is a
    # Python-level function, and ``is_crashed`` runs once per CLAM operation.
    __hash__ = object.__hash__


#: Bound once: enum member access goes through the metaclass on every read,
#: and the healthy test below runs once per simulated I/O.
_HEALTHY = FaultMode.HEALTHY

#: Modes in which the device refuses every I/O until healed/reopened.
_DEAD_MODES = frozenset(
    {FaultMode.CRASHED, FaultMode.TORN_WRITE, FaultMode.INTERRUPTED_ERASE, FaultMode.POWER_LOST}
)


class FaultInjector:
    """Per-device fault state consulted before every simulated I/O.

    Parameters
    ----------
    device_name:
        Used only in exception messages, so failures name the device.
    seed:
        Seed for the intermittent-error RNG; the same seed and error rate
        reproduce the same sequence of failed I/Os.
    """

    def __init__(self, device_name: str = "device", seed: int = 0) -> None:
        self.device_name = device_name
        self._seed = seed
        self._rng = random.Random(seed)
        self.mode = FaultMode.HEALTHY
        self.error_rate = 0.0
        self.latency_multiplier = 1.0
        self.extra_latency_ms = 0.0
        #: I/Os refused with :class:`DeviceFailedError` (crash or injected).
        self.faulted_ios = 0
        #: I/Os that went through while the device was degraded.
        self.degraded_ios = 0
        #: Remaining I/O units until the armed power cut fires (None = unarmed);
        #: ``StorageDevice.read_page`` tests it inline, once per page read.
        self._power_countdown: Optional[int] = None

    # -- State transitions -----------------------------------------------------

    def crash(self) -> None:
        """Crash-stop: every subsequent I/O raises until :meth:`heal`."""
        self.mode = FaultMode.CRASHED

    def inject_errors(self, error_rate: float, seed: Optional[int] = None) -> None:
        """Fail a deterministic ``error_rate`` fraction of subsequent I/Os."""
        if not 0.0 < error_rate <= 1.0:
            raise ValueError("error_rate must be in (0, 1]")
        if seed is not None:
            self._seed = seed
        self._rng = random.Random(self._seed)
        self.error_rate = error_rate
        self.mode = FaultMode.IO_ERRORS

    def degrade(self, latency_multiplier: float = 1.0, extra_latency_ms: float = 0.0) -> None:
        """Slow the device down without failing it."""
        if latency_multiplier < 1.0:
            raise ValueError("latency_multiplier must be >= 1")
        if extra_latency_ms < 0.0:
            raise ValueError("extra_latency_ms must be non-negative")
        self.latency_multiplier = latency_multiplier
        self.extra_latency_ms = extra_latency_ms
        self.mode = FaultMode.DEGRADED

    def crash_after_n_ios(self, n: int) -> None:
        """Arm a deterministic power cut interrupting the ``n``-th I/O unit.

        ``n`` counts device I/O units from now: page reads and writes are one
        unit each, a streaming read/write of ``k`` pages is ``k`` units (so a
        cut can land on any page inside it), a block erase is one unit.  The
        unit the countdown lands on is interrupted *mid-operation* with
        :class:`~repro.core.errors.PowerLossError` — partially applied, on
        devices that model torn pages — and the injector stays dead (every
        later I/O raises) until :meth:`heal` or, for file-backed devices, a
        reopen of the underlying file.
        """
        if n < 1:
            raise ValueError("n must be at least 1")
        self._power_countdown = n

    def consume_io_units(self, units: int, kind: str = "read") -> Optional[int]:
        """Advance the power-cut countdown by ``units``; called by devices.

        Returns ``None`` while power stays on.  When the armed countdown
        expires inside this operation, returns the 0-based unit index at
        which power failed (the caller applies partial effects up to that
        index and raises :class:`~repro.core.errors.PowerLossError`), and the
        injector transitions to the power-off mode matching ``kind``
        (``"write"`` → :attr:`FaultMode.TORN_WRITE`, ``"erase"`` →
        :attr:`FaultMode.INTERRUPTED_ERASE`, else
        :attr:`FaultMode.POWER_LOST`).
        """
        remaining = self._power_countdown
        if remaining is None:
            return None
        if remaining > units:
            self._power_countdown = remaining - units
            return None
        self._power_countdown = None
        if kind == "write":
            self.mode = FaultMode.TORN_WRITE
        elif kind == "erase":
            self.mode = FaultMode.INTERRUPTED_ERASE
        else:
            self.mode = FaultMode.POWER_LOST
        return remaining - 1

    @property
    def power_cut_armed(self) -> bool:
        """Whether a :meth:`crash_after_n_ios` countdown is pending."""
        return self._power_countdown is not None

    def heal(self) -> None:
        """Return to healthy operation (counters are preserved)."""
        self.mode = FaultMode.HEALTHY
        self.error_rate = 0.0
        self.latency_multiplier = 1.0
        self.extra_latency_ms = 0.0
        self._power_countdown = None

    # -- Introspection ---------------------------------------------------------

    @property
    def is_crashed(self) -> bool:
        """Whether the device is dead (crash-stopped or powered off).

        A power-cut device (any of the three power-off modes) refuses I/O
        exactly like a crash-stopped one; the distinct modes only record *how*
        it died, which recovery inspects to model the interrupted operation.
        """
        return self.mode in _DEAD_MODES

    # -- The hook devices call -------------------------------------------------

    def check(self, latency_ms: float) -> float:
        """Gate one I/O: raise on a fault, else return the (possibly inflated)
        latency the operation should cost.

        Called by :class:`~repro.flashsim.device.StorageDevice` with the
        fault-free latency of the operation about to run.
        """
        if self.mode is _HEALTHY:
            return latency_ms
        if self.mode in _DEAD_MODES:
            self.faulted_ios += 1
            raise DeviceFailedError(
                f"device {self.device_name!r} is dead ({self.mode.value})"
            )
        if self.mode is FaultMode.IO_ERRORS:
            if self._rng.random() < self.error_rate:
                self.faulted_ios += 1
                raise DeviceFailedError(
                    f"device {self.device_name!r} returned an injected I/O error"
                )
            return latency_ms
        # DEGRADED: sick but alive.
        self.degraded_ios += 1
        return latency_ms * self.latency_multiplier + self.extra_latency_ms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(device={self.device_name!r}, mode={self.mode.value!r}, "
            f"faulted={self.faulted_ios})"
        )
