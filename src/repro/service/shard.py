"""The one interface every shard of a cluster presents.

A shard is a CLAM (or :class:`~repro.core.recovery.DurableCLAM`) with a
private simulated clock.  The cluster reaches it through one surface,
whichever side of a process boundary it lives on:

``clock``
    the shard's time line, advanced by dispatch overheads and device work;
``send_batch(operations, extra_advance_ms)`` / ``recv_batch(probe_timeout_ms)``
    the scatter and gather halves of one sub-batch, the latter returning
    ``(results, error_code, message, busy_ms)`` — the only way the cluster
    reads or writes a shard, client batches and its own maintenance alike;
``live_keys()``
    every key the shard still owes, the scan a migration seeds its queues from;
``counters()``, ``telemetry_registry()``, ``recovery_report``
    reporting;
``inject_fault(mode, fault_kwargs)``, ``heal()``, ``close()``
    fault drills and lifecycle.

:class:`LocalShard` implements it in-process;
:class:`~repro.service.parallel.RemoteShard` implements it over a socket to
a worker process that is itself a :class:`LocalShard` served by
:func:`apply_batch` — so both deployments run the same per-operation loop on
the same kind of clock, which is what keeps their results bit-identical.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.clam import CLAM
from repro.core.config import CLAMConfig
from repro.core.errors import ConfigurationError, DeviceFailedError
from repro.core.recovery import CrashRecoveryReport, DurableCLAM
from repro.flashsim.clock import SimulationClock
from repro.service import wire
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.workload import OpKind

__all__ = ["BatchAnswer", "LocalShard", "apply_batch"]

#: One sub-batch's answer: results (request order, truncated at the first
#: device failure), a ``wire.ERR_*`` code, its message, and the shard time the
#: operations took.
BatchAnswer = Tuple[List[object], int, str, float]


def apply_batch(
    clam: CLAM, advance_ms: float, operations: Sequence[Tuple[OpKind, object, bytes]]
) -> BatchAnswer:
    """Run ``(kind, key, value)`` triples against one shard's CLAM, in order.

    ``advance_ms`` (dispatch and routing overhead accrued by the caller) is
    charged to the shard's clock first.  A
    :class:`~repro.core.errors.DeviceFailedError` stops the loop and is
    reported as ``wire.ERR_DEVICE_FAILED`` with the results so far; anything
    else is a bug and propagates.
    """
    clock = clam.clock
    if advance_ms:
        clock.advance(advance_ms)
    started_ms = clock.now_ms
    results: List[object] = []
    error_code = wire.ERR_NONE
    message = ""
    # Bound once per batch: a member read off the enum class resolves through
    # its metaclass, and a method read off the CLAM builds a bound method.
    LOOKUP, INSERT, UPDATE, DELETE = OpKind.LOOKUP, OpKind.INSERT, OpKind.UPDATE, OpKind.DELETE
    lookup, insert, update, delete = clam.lookup, clam.insert, clam.update, clam.delete
    try:
        for kind, key, value in operations:
            if kind is LOOKUP:
                results.append(lookup(key))
            elif kind is INSERT:
                results.append(insert(key, value))
            elif kind is UPDATE:
                results.append(update(key, value))
            elif kind is DELETE:
                results.append(delete(key))
            else:
                raise ValueError(f"unknown operation kind {kind!r}")
    except DeviceFailedError as error:
        error_code = wire.ERR_DEVICE_FAILED
        message = f"{type(error).__name__}: {error}"
    return results, error_code, message, clock.now_ms - started_ms


class LocalShard:
    """An in-process shard: the interface above around one CLAM.

    A sub-batch runs when its answer is gathered, not when it is sent, so the
    executor's ``shard.batch`` span encloses its operations' CLAM and device spans.
    """

    def __init__(
        self,
        shard_id: str,
        config: CLAMConfig,
        storage: str,
        data_path: Optional[str] = None,
    ) -> None:
        if storage == "persistent":
            # Reopening an existing file recovers it; the stored superblock
            # config wins over ``config`` in that case.
            existing = os.path.exists(data_path) and os.path.getsize(data_path) > 0
            self.clam: CLAM = DurableCLAM(
                data_path,
                config=None if existing else config,
                clock=SimulationClock(),
                name=shard_id,
            )
        else:
            self.clam = CLAM(config, storage=storage, clock=SimulationClock())
        self.shard_id = shard_id
        self.clock = self.clam.clock
        self.counters = self.clam.counters
        self._pending: Optional[Sequence[Tuple[OpKind, object, bytes]]] = None

    def send_batch(
        self, operations: Sequence[Tuple[OpKind, object, bytes]], extra_advance_ms: float = 0.0
    ) -> None:
        self.clock.advance(extra_advance_ms)
        self._pending = operations

    def recv_batch(self, probe_timeout_ms: Optional[float] = None) -> BatchAnswer:
        """Run the pending sub-batch (a local answer never stalls, so the
        hedge window is ignored)."""
        operations, self._pending = self._pending, None
        return apply_batch(self.clam, 0.0, operations)

    def live_keys(self) -> List[bytes]:
        """Every key a lookup would find, sorted: the buffers and the FIFO
        window's incarnations (one sequential flash read each, counted in
        ``flash_reads``), lazy deletes applied; refused by the fault gate."""
        self.clam._check_available()
        pages = sum(h.num_pages for t in self.clam.tables for h in t.incarnation_handles)
        self.clam.stats.flash_reads += pages
        return sorted(self.clam.snapshot_items())

    def telemetry_registry(self) -> Optional[MetricsRegistry]:
        return self.clam.telemetry

    @property
    def recovery_report(self) -> Optional[CrashRecoveryReport]:
        """The CLAM's crash-recovery report (persistent shards only)."""
        return getattr(self.clam, "recovery_report", None)

    def inject_fault(self, mode: str, fault_kwargs: Dict[str, object]) -> None:
        """Plant one fault mode on every device of the shard."""
        for device in self.clam.devices:
            if mode == "crash":
                device.faults.crash()
            elif mode == "io-errors":
                device.faults.inject_errors(**fault_kwargs)
            elif mode == "degraded":
                device.faults.degrade(**fault_kwargs)
            elif mode == "power-cut":
                device.faults.crash_after_n_ios(int(fault_kwargs.get("after_n_ios", 1)))
            else:
                raise ConfigurationError(f"unknown fault mode {mode!r}")

    def heal(self) -> None:
        for device in self.clam.devices:
            device.faults.heal()

    @property
    def closed(self) -> bool:
        return isinstance(self.clam, DurableCLAM) and self.clam.closed

    def close(self) -> None:
        """Flush, checkpoint and unmap a persistent CLAM (idempotent; a
        volatile one has nothing to release)."""
        if isinstance(self.clam, DurableCLAM):
            self.clam.close()
