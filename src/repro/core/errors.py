"""Exception types raised by the BufferHash / CLAM core.

A full buffer is not among them: :meth:`repro.core.buffer.Buffer.put` refuses
with ``False`` and the super table flushes.
"""

from __future__ import annotations


class BufferHashError(Exception):
    """Base class for all BufferHash errors."""


class ConfigurationError(BufferHashError):
    """Raised when a CLAM configuration is inconsistent
    (e.g. buffer larger than a flash partition, zero incarnations)."""


class KeyTooLargeError(BufferHashError):
    """Raised when a key or value does not fit in an incarnation page slot."""


class PageFormatError(BufferHashError):
    """Raised when an incarnation page image is not in the layout this build
    reads (see :mod:`repro.core.incarnation`) — in practice a page written in
    the row-wise format 1.  A durable file of another format is refused
    earlier, when its superblock is read."""


class DeviceFailedError(BufferHashError):
    """Raised when an I/O reaches a simulated device that has crash-stopped or
    is deterministically injecting errors (see :mod:`repro.flashsim.faults`)."""


class PowerLossError(DeviceFailedError):
    """Raised when a simulated power cut interrupts an I/O mid-operation.

    Armed via :meth:`repro.flashsim.faults.FaultInjector.crash_after_n_ios`;
    the interrupted operation may leave durable side effects behind (a torn
    page that fails its CRC, a half-erased block) on devices that model them
    (see :mod:`repro.flashsim.persistent`).  Subclasses
    :class:`DeviceFailedError` so the service layer's failure handling treats
    a power-cut shard exactly like a crash-stopped one."""


class TornPageError(BufferHashError):
    """Raised when reading a page whose on-media frame fails its CRC check —
    either a write was interrupted mid-page (torn write) or the containing
    block's erase was interrupted (the block reads as erased-dirty until it
    is erased again).  Only file-backed devices can produce this; recovery
    (:mod:`repro.core.recovery`) discards such pages instead of reading them."""


class ShardUnavailableError(BufferHashError):
    """Raised by the service layer when an operation has no live replica left
    to run on — every shard in the key's preference list is failed or has been
    removed from the cluster (see :mod:`repro.service.cluster`)."""


class WireProtocolError(BufferHashError):
    """Raised when a frame on the shard wire protocol cannot be decoded —
    version mismatch, unknown frame type, a length prefix past the frame
    size limit, or a worker-side failure with no finer-grained error code
    (see :mod:`repro.service.wire`)."""


class WorkerDiedError(DeviceFailedError):
    """Raised when the process hosting a shard dies mid-conversation (EOF or
    a broken pipe on its socket).  Subclasses :class:`DeviceFailedError` so
    the cluster's replica failover, hinted handoff and health accounting
    treat a dead worker exactly like a crash-stopped device."""


class WorkerStalledError(DeviceFailedError):
    """Raised when a shard worker misses its per-request deadline — the
    process is (or may still be) alive but hung, wedged mid-frame, or stuck
    behind a lossy transport, and every bounded retry has been exhausted.

    The gray-failure twin of :class:`WorkerDiedError`: a hang must not become
    a parent-process hang, so the :class:`~repro.service.parallel.RemoteShard`
    proxy opens its circuit (refusing further frames until the supervisor
    restarts the worker) and raises this.  Subclasses
    :class:`DeviceFailedError` so replica failover, hinted handoff and the
    kill/restart supervisor treat a stalled worker exactly like a dead one."""


class ClusterCloseError(BufferHashError):
    """Raised by ``ClusterService.close()`` after attempting to close *every*
    shard when one or more of them failed to close.  Carries the per-shard
    failures so no error is silently dropped and no later shard's file handle
    is leaked because an earlier shard raised."""

    def __init__(self, failures) -> None:
        self.failures = list(failures)
        detail = "; ".join(
            f"{shard_id}: {type(error).__name__}: {error}" for shard_id, error in self.failures
        )
        super().__init__(f"failed to close {len(self.failures)} shard(s): {detail}")
