"""Simulated clock shared by storage devices and applications.

All device latencies are expressed in *simulated milliseconds*.  A single
:class:`SimulationClock` instance is shared by every device participating in
an experiment so that, e.g., a WAN optimizer can interleave network
serialisation delay with index I/O delay on one time line.

A charge must be finite and non-negative.  :meth:`SimulationClock.advance`
checks it for any caller.  ``SuperTable.lookup`` / ``insert`` (whose costs
are fixed constants of :mod:`repro.core.config`) and
``StorageDevice.read_page`` (which checks each latency inline) add to
``_now_ms`` in place instead, to save the call: the very addition ``advance``
makes, in the same order, so every reading keeps its bits.
"""

from __future__ import annotations

_INF = float("inf")


class SimulationClock:
    """A monotonically advancing clock measured in simulated milliseconds.

    The clock starts at 0 and only ever moves forward.  Devices call
    :meth:`advance` with the latency of each I/O; applications may also
    advance it directly to model computation or network transmission time.
    """

    __slots__ = ("_now_ms",)

    def __init__(self) -> None:
        self._now_ms = 0.0

    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now_ms

    def advance(self, delta_ms: float) -> float:
        """Advance the clock by ``delta_ms`` milliseconds and return the new time.

        Negative, NaN and infinite increments are rejected: time never flows backwards.
        """
        if not 0.0 <= delta_ms < _INF:
            raise ValueError(f"cannot advance clock by {delta_ms!r}: not finite and non-negative")
        self._now_ms += delta_ms
        return self._now_ms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulationClock(now_ms={self._now_ms:.3f})"


class ClockEnsemble:
    """Read-only aggregate view over several independent :class:`SimulationClock`\\ s.

    A sharded service runs each shard on its own device and therefore its own
    clock; the shards operate *in parallel*, so the cluster-level notion of
    elapsed time is the slowest member (``now_ms`` is the max), while the total
    work performed is the sum of member times (``busy_ms``).  The ensemble
    satisfies the same ``now_ms`` reading interface as a single
    clock, which lets :class:`repro.workloads.runner.WorkloadRunner` report a
    simulated duration for a whole cluster unchanged.

    Ensemble time is monotonic across membership changes: removing a member
    (a decommissioned shard) retires its final time into a floor rather than
    letting ``now_ms``/``busy_ms`` rewind — simulated time never flows
    backwards, exactly as with a single :class:`SimulationClock`.
    """

    __slots__ = ("_clocks", "_retired")

    def __init__(self) -> None:
        self._clocks = []
        self._retired = []

    @property
    def now_ms(self) -> float:
        """Cluster time: the furthest-ahead clock ever observed (parallel shards)."""
        return max(
            [0.0]
            + [clock.now_ms for clock in self._clocks]
            + [clock.now_ms for clock in self._retired]
        )

    @property
    def busy_ms(self) -> float:
        """Total simulated work over every member clock, past members included."""
        return sum(clock.now_ms for clock in self._clocks) + sum(
            clock.now_ms for clock in self._retired
        )

    @property
    def skew_ms(self) -> float:
        """Spread between the fastest and slowest member (load imbalance)."""
        if not self._clocks:
            return 0.0
        times = [clock.now_ms for clock in self._clocks]
        return max(times) - min(times)

    def add(self, clock: SimulationClock) -> None:
        """Start aggregating one more clock (e.g. a newly added shard).

        A previously retired clock that rejoins is simply moved back to the
        live set, so its work is never double-counted in :attr:`busy_ms`.
        """
        if not hasattr(clock, "now_ms"):
            raise TypeError("ClockEnsemble members must expose now_ms")
        if clock in self._retired:
            self._retired.remove(clock)
        self._clocks.append(clock)

    def remove(self, clock: SimulationClock) -> None:
        """Stop aggregating ``clock`` (e.g. a decommissioned shard).

        The member is retired rather than forgotten so that ``now_ms`` and
        ``busy_ms`` stay monotonic across the removal.
        """
        self._clocks.remove(clock)
        self._retired.append(clock)

    def __len__(self) -> int:
        return len(self._clocks)

    def __iter__(self):
        return iter(self._clocks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClockEnsemble(members={len(self._clocks)}, now_ms={self.now_ms:.3f})"
