"""Process-per-shard deployment of the cluster service.

Everything else in this repository runs in one Python thread over simulated
clocks — correct and deterministic, but capped at one core no matter how many
shards the cluster has.  :class:`ParallelClusterService` is the escape hatch:
each shard's CLAM (or :class:`~repro.core.recovery.DurableCLAM` when
``storage="persistent"``) runs in its **own worker process** behind the
length-prefixed binary protocol of :mod:`repro.service.wire`, and the batch
executor's per-shard fanout becomes a true scatter/gather — every worker
chews on its sub-batch concurrently while the parent waits.

The bit-identical results contract
----------------------------------
The in-process :class:`~repro.service.cluster.ClusterService` stays the
default deterministic test path.  The parallel deployment runs the same
cluster code and the same :class:`~repro.service.batch.BatchExecutor` —
only *how a shard is built* differs: a :class:`RemoteShard` proxy instead of
a :class:`~repro.service.shard.LocalShard`.  Each worker is itself a
``LocalShard`` served by the shared :func:`~repro.service.shard.apply_batch`
loop on the same kind of private
:class:`~repro.flashsim.clock.SimulationClock`, advanced by exactly the
amounts an in-process shard's would be (the parent mirrors each worker clock
and ships accrued advances inside batch frames).
Operation results, per-shard counters and simulated clocks are therefore
**bit-identical** between the two modes; ``tests/test_parallel_cluster.py``
enforces the contract and ``benchmarks/bench_parallel_cluster.py`` ratchets
it in CI.

Failure model
-------------
A worker that dies (killed, OOM, crashed interpreter) surfaces as
:class:`~repro.core.errors.WorkerDiedError` — a
:class:`~repro.core.errors.DeviceFailedError` subclass — at the next frame,
so every existing layer treats it like a crash-stopped device: the batch
executor fails the sub-batch over to the next live replica, the cluster's
error counters mark the shard down, missed writes become hinted handoffs,
and with ``replication_factor >= 2`` no acknowledged write is lost.  The
supervisor half (:meth:`ParallelClusterService.check_workers` /
:meth:`~ParallelClusterService.restart_worker`) detects dead workers, feeds
them into that same health machinery and respawns them; a persistent shard's
replacement worker reopens the backing file and runs CLAM crash recovery.

Workers are forked, not spawned: sockets and configs are inherited instead
of pickled, and a fork start is ~10x cheaper.  This is a
POSIX-only deployment mode — the deterministic in-process cluster remains
the portable default.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import CLAMConfig
from repro.core.errors import (
    BufferHashError,
    ConfigurationError,
    DeviceFailedError,
    WireProtocolError,
    WorkerDiedError,
    WorkerStalledError,
)
from repro.core.recovery import CrashRecoveryReport
from repro.service import wire
from repro.service.chaos import ChaosSchedule, ChaosTransport, derive_seed
from repro.service.cluster import ClusterService
from repro.service.shard import BatchAnswer, LocalShard, apply_batch
from repro.telemetry import trace as _trace
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.workload import OpKind

__all__ = [
    "DEFAULT_REQUEST_DEADLINE_MS",
    "DEFAULT_RETRY_BACKOFF_CAP_MS",
    "DEFAULT_RETRY_BACKOFF_MS",
    "DEFAULT_RETRY_LIMIT",
    "ParallelClusterService",
    "RemoteShard",
]

#: Per-request deadline: how long the parent waits for one worker response
#: before treating the attempt as stalled.  Generous — healthy workers on a
#: socketpair answer in microseconds, so this only fires for genuine hangs.
DEFAULT_REQUEST_DEADLINE_MS = 30_000.0

#: Bounded idempotent retries after a timed-out or corrupted response (the
#: request is resent with the *same* sequence number, so a late answer to an
#: earlier attempt is recognised and discarded, never mis-matched).
DEFAULT_RETRY_LIMIT = 2

#: Exponential backoff between retries, capped so a retry burst under chaos
#: stays well inside one deadline.
DEFAULT_RETRY_BACKOFF_MS = 5.0
DEFAULT_RETRY_BACKOFF_CAP_MS = 50.0

#: Worker exit codes (beyond 0 = clean and the usual -signal values):
#: a desynchronised wire stream, and an unexpected socket error.
WORKER_EXIT_DESYNC = 2
WORKER_EXIT_SOCKET_ERROR = 3


class _MirrorClock:
    """The parent's mirror of one worker's :class:`SimulationClock`.

    The in-process executor charges dispatch/routing overhead to the shard's
    clock *before* the shard runs; in process mode the shard's real clock
    lives in the worker, so the parent accrues those advances here as
    *pending* milliseconds, ships them inside the next batch frame (the
    worker applies them before executing) and folds each worker response's
    clock reading back in.  ``now_ms`` therefore tracks the worker clock
    exactly at every frame boundary, which is what keeps the cluster's
    :class:`~repro.flashsim.clock.ClockEnsemble` readings bit-identical to
    the in-process deployment's.
    """

    __slots__ = ("_now_ms", "_pending_ms")

    def __init__(self) -> None:
        self._now_ms = 0.0
        self._pending_ms = 0.0

    @property
    def now_ms(self) -> float:
        return self._now_ms + self._pending_ms

    @property
    def now_s(self) -> float:
        return self.now_ms / 1000.0

    def advance(self, delta_ms: float) -> float:
        if delta_ms < 0:
            raise ValueError(f"cannot advance clock by negative amount {delta_ms!r}")
        self._pending_ms += delta_ms
        return self.now_ms

    def consume_pending_ms(self) -> float:
        """Pending advances to ship with the next frame (folded into now)."""
        pending = self._pending_ms
        self._now_ms += pending
        self._pending_ms = 0.0
        return pending

    def sync(self, worker_now_ms: float) -> None:
        """Adopt a worker clock reading (monotonic: never rewinds)."""
        if worker_now_ms > self._now_ms:
            self._now_ms = worker_now_ms


# -- Worker process -----------------------------------------------------------------


def _handle_batch(shard: LocalShard, payload: bytes) -> bytes:
    """Execute one batch frame against the worker's shard."""
    advance_ms, operations = wire.decode_batch_request(payload)
    try:
        results, error_code, message, busy_ms = apply_batch(shard, advance_ms, operations)
    except Exception as error:  # surfaced to the parent as a typed code
        results, error_code, busy_ms = [], wire.ERR_UNEXPECTED, 0.0
        message = f"{type(error).__name__}: {error}"
    return wire.encode_batch_response(results, error_code, message, shard.clock.now_ms, busy_ms)


def _handle_control(shard: LocalShard, request: Dict[str, object]) -> Dict[str, object]:
    """Low-rate management requests (everything except batches and close)."""
    op = request.get("op")
    if op == "ping":
        return {"ok": True, "pid": os.getpid()}
    if op == "counters":
        return {"ok": True, "counters": shard.counters()}
    if op == "telemetry":
        registry = shard.telemetry_registry()
        snapshot = registry.snapshot(include_buckets=True) if registry is not None else None
        return {"ok": True, "telemetry": snapshot}
    if op == "cpu_time":
        return {"ok": True, "cpu_s": time.process_time()}
    if op == "fault":
        try:
            shard.inject_fault(str(request.get("mode")), dict(request.get("kwargs") or {}))
        except BufferHashError as error:
            return {"ok": False, "error": str(error)}
        return {"ok": True}
    if op == "heal":
        shard.heal()
        return {"ok": True}
    if op == "recovery_report":
        report = shard.recovery_report
        return {"ok": True, "report": report.to_dict() if report is not None else None}
    if op == "live_keys":  # directed work: the parent's advances first, its clock back
        shard.clock.advance(request["advance_ms"])
        try:
            keys, code, message = [key.hex() for key in shard.live_keys()], wire.ERR_NONE, ""
        except DeviceFailedError as error:
            keys, code, message = [], wire.ERR_DEVICE_FAILED, f"{type(error).__name__}: {error}"
        return {
            "ok": True, "keys": keys, "code": code, "error": message, "clock": shard.clock.now_ms
        }
    return {"ok": False, "error": f"unknown control op {op!r}"}


def _send_fatal(conn: socket.socket, error: Exception) -> None:
    """Best-effort dying words: tell the parent *why* the worker is exiting.

    Sent with sequence number 0 (no request maps to it); the parent's
    response matcher special-cases control frames carrying a ``fatal`` key
    so the reason survives even though the sequence number is stale.
    """
    note = {"ok": False, "fatal": type(error).__name__, "error": str(error)}
    try:
        wire.send_frame(conn, wire.FRAME_CONTROL_RESPONSE, wire.encode_control(note))
    except OSError:  # the stream is already gone; exiting is all that is left
        pass


def _worker_main(conn: socket.socket, shard_id: str, *spec) -> None:
    """Entry point of one shard worker: a :class:`LocalShard` behind a socket.

    ``spec`` is the cluster's ``_shard_spec``, so the worker builds exactly
    the shard the in-process deployment would.

    The worker owns a private simulated clock and a (forked) copy of the
    config; nothing is shared with the parent except the socket.  The loop
    exits on a clean ``close`` control frame or when the parent hangs up
    (EOF), and a persistent CLAM is always closed on the way out so an
    orphaned worker still checkpoints its file.

    Malformed traffic is survived or reported, never amplified: a frame that
    fails its CRC is discarded (framing is intact — the parent's deadline and
    retry path resends it), while a desynchronised stream (garbage length
    prefix or preamble) is unrecoverable, so the worker sends a fatal control
    frame naming the error and exits with :data:`WORKER_EXIT_DESYNC`.
    Genuine socket errors exit with :data:`WORKER_EXIT_SOCKET_ERROR` instead
    of masquerading as a clean parent hang-up.
    """
    _trace.ACTIVE = None  # the parent's tracer must not leak across the fork
    shard: Optional[LocalShard] = None
    exit_code = 0
    try:
        try:
            shard = LocalShard(shard_id, *spec)
        except Exception as error:  # tell the parent why the build failed
            hello = {"ok": False, "error": f"{type(error).__name__}: {error}"}
            wire.send_frame(conn, wire.FRAME_CONTROL_RESPONSE, wire.encode_control(hello))
            return
        wire.send_frame(
            conn,
            wire.FRAME_CONTROL_RESPONSE,
            # A reopened persistent CLAM has charged its recovery scan already.
            wire.encode_control({"ok": True, "pid": os.getpid(), "clock": shard.clock.now_ms}),
        )
        while True:
            try:
                frame_type, seq, payload = wire.recv_frame(conn)
            except wire.CorruptFrameError:
                # Framing held (sane length, full body) but the bytes are
                # damaged.  Dropping the frame keeps the stream synchronised;
                # the parent's deadline expires and its retry resends.
                continue
            except wire.TruncatedFrameError:
                break  # parent hung up: the clean shutdown path
            except wire.WireProtocolError as error:
                # Desynchronised stream (corrupt length prefix, bad preamble,
                # oversized frame): nothing after this point can be framed.
                _send_fatal(conn, error)
                exit_code = WORKER_EXIT_DESYNC
                break
            except (ConnectionResetError, BrokenPipeError):
                break  # parent died: equivalent to a hang-up
            except OSError as error:
                _send_fatal(conn, error)
                exit_code = WORKER_EXIT_SOCKET_ERROR
                break
            try:
                if frame_type == wire.FRAME_BATCH_REQUEST:
                    response = _handle_batch(shard, payload)
                    wire.send_frame(conn, wire.FRAME_BATCH_RESPONSE, response, seq=seq)
                elif frame_type == wire.FRAME_CONTROL_REQUEST:
                    request = wire.decode_control(payload)
                    if request.get("op") == "close":
                        reply: Dict[str, object] = {"ok": True}
                        try:
                            shard.close()
                        except Exception as error:
                            reply = {"ok": False, "error": f"{type(error).__name__}: {error}"}
                        wire.send_frame(
                            conn, wire.FRAME_CONTROL_RESPONSE, wire.encode_control(reply), seq=seq
                        )
                        break
                    reply = _handle_control(shard, request)
                    wire.send_frame(
                        conn, wire.FRAME_CONTROL_RESPONSE, wire.encode_control(reply), seq=seq
                    )
                else:  # pragma: no cover - recv_frame validates frame types
                    break
            except OSError:
                break  # parent vanished mid-response
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        if shard is not None:
            try:
                shard.close()
            except Exception:  # pragma: no cover - dead device at exit
                pass
    if exit_code:
        sys.exit(exit_code)


# -- Parent-side shard proxy --------------------------------------------------------


class RemoteShard:
    """Parent-side proxy for one shard worker process.

    Implements the shard interface of :mod:`repro.service.shard` over the
    wire: batches as one frame each way (the ``HashIndex`` methods are
    one-operation batch frames, so they share that path and its clock
    policy), everything else as control frames.  On top of the interface it
    exposes what only a process has: ``pid``, ``alive``, ``kill()``,
    ``cpu_seconds()``.

    Transport failures (EOF, broken pipe) mark the proxy dead and raise
    :class:`~repro.core.errors.WorkerDiedError` so callers handle a dead
    worker exactly like a crash-stopped device.  Gray failures are bounded
    too: every request carries a deadline (``request_deadline_ms``) enforced
    with socket timeouts, a timed-out or CRC-corrupted response is retried
    up to ``retry_limit`` times with capped exponential backoff (the resend
    reuses the request's sequence number, so a late answer to an earlier
    attempt is discarded rather than mis-matched), and once retries are
    exhausted the proxy opens its circuit — marks itself dead and raises
    :class:`~repro.core.errors.WorkerStalledError` — so a hung worker feeds
    the exact same supervisor/replication machinery as a dead one.
    """

    def __init__(
        self,
        shard_id: str,
        ctx,
        config: CLAMConfig,
        storage: str,
        data_path: Optional[str] = None,
        request_deadline_ms: float = DEFAULT_REQUEST_DEADLINE_MS,
        retry_limit: int = DEFAULT_RETRY_LIMIT,
        retry_backoff_ms: float = DEFAULT_RETRY_BACKOFF_MS,
        on_event: Optional[Callable[..., None]] = None,
    ) -> None:
        if request_deadline_ms <= 0:
            raise ConfigurationError("request_deadline_ms must be positive")
        if retry_limit < 0:
            raise ConfigurationError("retry_limit must be non-negative")
        self.shard_id = shard_id
        self.request_deadline_ms = float(request_deadline_ms)
        self.retry_limit = int(retry_limit)
        self.retry_backoff_ms = float(retry_backoff_ms)
        #: RPC-resilience event hook: ``on_event(kind, **attributes)`` fires
        #: for ``rpc_timeout`` / ``rpc_retry`` / ``worker_stalled``.  The
        #: cluster wires it to its EventLog and per-shard counters.
        self.on_event = on_event
        self.clock = _MirrorClock()
        self._ctx = ctx
        #: What the worker builds its :class:`LocalShard` from (every respawn).
        self._spec = (config, storage, data_path)
        self._sock: Optional[socket.socket] = None
        self.process = None
        self._dead = False
        self._closed = False
        self._seq = 0
        self._inflight: Optional[Tuple[int, int, bytes]] = None
        self._spawn()

    def _spawn(self) -> None:
        parent_sock, child_sock = socket.socketpair()
        self.process = self._ctx.Process(
            target=_worker_main,
            args=(child_sock, self.shard_id, *self._spec),
            name=f"clam-worker-{self.shard_id}",
            daemon=True,
        )
        self.process.start()
        child_sock.close()
        self._sock = parent_sock
        self._dead = False
        self._closed = False
        self._seq = 0
        self._inflight = None
        hello = wire.decode_control(self._recv_plain(wire.FRAME_CONTROL_RESPONSE))
        if not hello.get("ok"):
            self.process.join(timeout=10.0)
            raise ConfigurationError(
                f"worker for shard {self.shard_id!r} failed to start: {hello.get('error')}"
            )
        self.clock.sync(hello["clock"])

    # -- Liveness ----------------------------------------------------------------------

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    @property
    def alive(self) -> bool:
        """Whether the worker process can still serve frames."""
        return (
            not self._dead
            and not self._closed
            and self.process is not None
            and self.process.is_alive()
        )

    # -- Transport ---------------------------------------------------------------------

    def _mark_dead(self, error: Exception, action: str) -> WorkerDiedError:
        self._dead = True
        return WorkerDiedError(
            f"worker for shard {self.shard_id!r} died ({action}: {type(error).__name__}: {error})"
        )

    def _event(self, kind: str, **attributes) -> None:
        if self.on_event is not None:
            self.on_event(kind, **attributes)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _send(self, frame_type: int, payload: bytes, seq: int) -> None:
        if self._sock is None or self._dead or self._closed:
            raise WorkerDiedError(f"worker for shard {self.shard_id!r} is not running")
        try:
            wire.send_frame(self._sock, frame_type, payload, seq=seq)
        except OSError as error:
            raise self._mark_dead(error, "send") from error

    def _recv_plain(self, expected_type: int) -> bytes:
        """Blocking receive with no sequence matching — the hello handshake
        only (a persistent worker may legitimately spend a while in crash
        recovery before it can greet)."""
        if self._sock is None:
            raise WorkerDiedError(f"worker for shard {self.shard_id!r} is not running")
        try:
            frame_type, _seq, payload = wire.recv_frame(self._sock)
        except (wire.TruncatedFrameError, OSError) as error:
            raise self._mark_dead(error, "recv") from error
        if frame_type != expected_type:
            raise WireProtocolError(
                f"worker for shard {self.shard_id!r} sent frame type {frame_type}, "
                f"expected {expected_type}"
            )
        return payload

    def _recv_matching(self, expected_type: int, seq: int, timeout_s: float) -> bytes:
        """One response frame with the right sequence number, within a deadline.

        Stale frames — duplicates injected by the transport, or late answers
        to a request an earlier attempt (or an abandoned hedge) already gave
        up on — are silently discarded; a control frame carrying a ``fatal``
        key is the worker's dying words and raises
        :class:`~repro.core.errors.WorkerDiedError` with the reported reason
        regardless of its sequence number.  Raises ``TimeoutError`` when the
        deadline expires and :class:`~repro.service.wire.CorruptFrameError`
        on a CRC mismatch; both are the caller's retry currency.  EOF and
        genuine socket errors mark the proxy dead.
        """
        if self._sock is None:
            raise WorkerDiedError(f"worker for shard {self.shard_id!r} is not running")
        sock = self._sock
        deadline = time.monotonic() + timeout_s
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise socket.timeout(
                        f"no response from shard {self.shard_id!r} within {timeout_s * 1000:g} ms"
                    )
                sock.settimeout(remaining)
                try:
                    frame_type, frame_seq, payload = wire.recv_frame(sock)
                except (wire.TruncatedFrameError, OSError) as error:
                    if isinstance(error, TimeoutError):
                        raise
                    raise self._mark_dead(error, "recv") from error
                if frame_type == wire.FRAME_CONTROL_RESPONSE and frame_seq != seq:
                    try:
                        note = wire.decode_control(payload)
                    except WireProtocolError:
                        continue  # stale and unreadable: drop it
                    if note.get("fatal"):
                        error = WireProtocolError(
                            f"worker reported fatal {note.get('fatal')}: {note.get('error')}"
                        )
                        raise self._mark_dead(error, "fatal") from error
                    continue  # stale control response from an abandoned request
                if frame_seq != seq:
                    continue  # duplicate or late answer to an earlier attempt
                if frame_type != expected_type:
                    raise WireProtocolError(
                        f"worker for shard {self.shard_id!r} sent frame type {frame_type}, "
                        f"expected {expected_type}"
                    )
                return payload
        finally:
            try:
                sock.settimeout(None)
            except OSError:  # pragma: no cover - socket died mid-conversation
                pass

    def _await_response(
        self,
        seq: int,
        frame_type: int,
        payload: bytes,
        expected_type: int,
        timeout_s: Optional[float] = None,
        attempts: Optional[int] = None,
    ) -> bytes:
        """Deadline + bounded-retry response wait (the request was already sent).

        Retryable failures — a missed deadline, a corrupted response — resend
        the identical frame (same sequence number: operations are idempotent
        re-sends, and a late original answer is discarded by the matcher).
        Exhausting the budget opens the circuit: the proxy is marked dead so
        the supervisor restarts the worker, and the caller gets
        :class:`~repro.core.errors.WorkerStalledError` (deadline) or
        :class:`~repro.core.errors.WorkerDiedError` (unrecoverable
        corruption), both :class:`~repro.core.errors.DeviceFailedError`
        subclasses feeding replica failover and hinted handoff.
        """
        timeout_s = self.request_deadline_ms / 1000.0 if timeout_s is None else timeout_s
        attempts = self.retry_limit + 1 if attempts is None else attempts
        backoff_s = self.retry_backoff_ms / 1000.0
        cap_s = DEFAULT_RETRY_BACKOFF_CAP_MS / 1000.0
        last_error: Optional[Exception] = None
        reason = ""
        for attempt in range(attempts):
            if attempt:
                self._event("rpc_retry", attempt=attempt, reason=reason)
                time.sleep(backoff_s)
                backoff_s = min(backoff_s * 2.0, cap_s)
                self._send(frame_type, payload, seq)
            try:
                return self._recv_matching(expected_type, seq, timeout_s)
            except TimeoutError as error:
                last_error, reason = error, "timeout"
                self._event("rpc_timeout", attempt=attempt)
            except wire.CorruptFrameError as error:
                last_error, reason = error, "corrupt"
        self._dead = True  # circuit open: no more frames until a restart
        self._event("worker_stalled", reason=reason, attempts=attempts)
        if reason == "corrupt":
            raise WorkerDiedError(
                f"worker for shard {self.shard_id!r} returned corrupt frames "
                f"through {attempts} attempt(s)"
            ) from last_error
        raise WorkerStalledError(
            f"worker for shard {self.shard_id!r} missed its "
            f"{timeout_s * 1000:g} ms deadline {attempts} time(s)"
        ) from last_error

    # -- Batch scatter/gather ----------------------------------------------------------

    def send_batch(
        self,
        operations: List[Tuple[OpKind, object, bytes]],
        extra_advance_ms: float = 0.0,
    ) -> None:
        """Scatter half: ship one batch frame (pending clock advances ride along)."""
        if extra_advance_ms:
            self.clock.advance(extra_advance_ms)
        advance_ms = self.clock.consume_pending_ms()
        payload = wire.encode_batch_request(advance_ms, operations)
        seq = self._next_seq()
        self._inflight = (seq, wire.FRAME_BATCH_REQUEST, payload)
        self._send(wire.FRAME_BATCH_REQUEST, payload, seq)

    def recv_batch(self, probe_timeout_ms: Optional[float] = None) -> BatchAnswer:
        """Gather half: returns ``(results, error_code, message, busy_ms)``.

        A ``probe_timeout_ms`` is the hedged-read mode: one attempt with that
        deadline, no retries, no circuit-opening — a miss raises
        :class:`~repro.core.errors.WorkerStalledError` while leaving the
        worker marked alive, and the executor reroutes the lookups to
        another replica (the abandoned response is discarded by sequence
        number on the next exchange).
        """
        if self._inflight is None:
            raise WireProtocolError(f"no batch in flight for shard {self.shard_id!r}")
        seq, frame_type, payload = self._inflight
        if probe_timeout_ms is not None:
            try:
                response = self._recv_matching(
                    wire.FRAME_BATCH_RESPONSE, seq, probe_timeout_ms / 1000.0
                )
            except TimeoutError as error:
                raise WorkerStalledError(
                    f"shard {self.shard_id!r} missed the {probe_timeout_ms:g} ms hedge window"
                ) from error
            except wire.CorruptFrameError as error:
                raise WorkerStalledError(
                    f"shard {self.shard_id!r} returned a corrupt frame in the hedge window"
                ) from error
        else:
            response = self._await_response(seq, frame_type, payload, wire.FRAME_BATCH_RESPONSE)
        self._inflight = None
        results, error_code, message, clock_ms, busy_ms = wire.decode_batch_response(response)
        self.clock.sync(clock_ms)
        return results, error_code, message, busy_ms

    def _one(self, kind: OpKind, key, value: bytes):
        self.send_batch([(kind, key, value)])
        results, error_code, message, _busy_ms = self.recv_batch()
        wire.raise_for_code(error_code, f"shard {self.shard_id}: {message}")
        return results[0]

    # -- HashIndex interface -----------------------------------------------------------

    def lookup(self, key):
        return self._one(OpKind.LOOKUP, key, b"")

    def insert(self, key, value):
        return self._one(OpKind.INSERT, key, value)

    def update(self, key, value):
        return self._one(OpKind.UPDATE, key, value)

    def delete(self, key):
        return self._one(OpKind.DELETE, key, b"")

    def live_keys(self) -> List[bytes]:
        """The worker's key scan: one control request, clocked like a batch."""
        reply = self._control({"op": "live_keys", "advance_ms": self.clock.consume_pending_ms()})
        self.clock.sync(reply["clock"])
        wire.raise_for_code(reply["code"], f"shard {self.shard_id}: {reply['error']}")
        return [bytes.fromhex(key) for key in reply["keys"]]

    # -- Controls ----------------------------------------------------------------------

    def _control(
        self,
        request: Dict[str, object],
        timeout_s: Optional[float] = None,
        attempts: Optional[int] = None,
    ) -> Dict[str, object]:
        payload = wire.encode_control(request)
        seq = self._next_seq()
        self._send(wire.FRAME_CONTROL_REQUEST, payload, seq)
        response = self._await_response(
            seq,
            wire.FRAME_CONTROL_REQUEST,
            payload,
            wire.FRAME_CONTROL_RESPONSE,
            timeout_s=timeout_s,
            attempts=attempts,
        )
        return wire.decode_control(response)

    def counters(self) -> Dict[str, float]:
        reply = self._control({"op": "counters"})
        return {name: float(value) for name, value in reply["counters"].items()}

    def telemetry_registry(self) -> Optional[MetricsRegistry]:
        """A mergeable copy of the worker's metrics registry (or ``None``)."""
        snapshot = self._control({"op": "telemetry"}).get("telemetry")
        return MetricsRegistry.from_snapshot(snapshot) if snapshot is not None else None

    def cpu_seconds(self) -> float:
        """CPU time the worker process has consumed (its ``process_time``)."""
        return float(self._control({"op": "cpu_time"})["cpu_s"])

    def inject_fault(self, mode: str, fault_kwargs: Dict[str, object]) -> None:
        reply = self._control({"op": "fault", "mode": mode, "kwargs": dict(fault_kwargs)})
        if not reply.get("ok"):
            raise ConfigurationError(str(reply.get("error", "fault injection failed")))

    def heal(self) -> None:
        self._control({"op": "heal"})

    @property
    def recovery_report(self) -> Optional[CrashRecoveryReport]:
        """The worker CLAM's crash-recovery report (persistent shards only)."""
        data = self._control({"op": "recovery_report"}).get("report")
        return CrashRecoveryReport(**data) if data is not None else None

    # -- Lifecycle ---------------------------------------------------------------------

    def kill(self) -> None:
        """SIGKILL the worker — the crash-drill hook.  No clean close, no
        checkpoint: exactly what a machine failure looks like."""
        self._dead = True
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=10.0)

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Cleanly stop the worker (idempotent), escalating on a hang.

        A live worker is asked to close over the wire — a persistent CLAM
        flushes and checkpoints before the ack — then reaped; a dead one is
        just reaped.  Every stage is bounded by ``timeout_s``: the close
        exchange runs under it as a single-attempt deadline (a wedged worker
        surfaces as :class:`~repro.core.errors.WorkerStalledError` instead
        of blocking forever), and if ``process.join`` then expires the worker
        is SIGKILLed and reaped — a hung worker can never stall
        ``ParallelClusterService.close()`` past its budget.  Raises
        :class:`~repro.core.errors.WireProtocolError` when the worker reports
        its close failed, or the stall/death error when the exchange could
        not complete (in every case after the socket is closed and the
        process reaped, so nothing leaks either way).
        """
        if self._closed:
            return
        failure: Optional[Exception] = None
        try:
            if not self._dead and self.process is not None and self.process.is_alive():
                try:
                    reply = self._control({"op": "close"}, timeout_s=timeout_s, attempts=1)
                    if not reply.get("ok"):
                        failure = WireProtocolError(
                            f"shard {self.shard_id!r} failed to close cleanly: "
                            f"{reply.get('error')}"
                        )
                except (DeviceFailedError, WireProtocolError) as error:
                    failure = failure or error
        finally:
            self._closed = True
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
                self._sock = None
            if self.process is not None:
                self.process.join(timeout=timeout_s)
                if self.process.is_alive():
                    # Escalate: a worker that ignored (or never saw) the close
                    # and outlived its join budget is killed and reaped.
                    # SIGKILL works on stopped processes too, so even a
                    # SIGSTOP-frozen worker cannot leak past here.
                    self.process.kill()
                    self.process.join()
        if failure is not None:
            raise failure

    def close(self) -> None:
        """Alias for :meth:`shutdown` (the shard-interface name)."""
        self.shutdown()


# -- The process-per-shard cluster --------------------------------------------------


class ParallelClusterService(ClusterService):
    """:class:`~repro.service.cluster.ClusterService` with one process per shard.

    Same constructor, same interface, same results (see the module docstring
    for the contract); additionally exposes the supervisor surface —
    :meth:`check_workers`, :meth:`restart_worker`, :meth:`kill_worker` — and
    per-worker CPU accounting for the scaling benchmark.  Always ``close()``
    it (or use it as a context manager): worker processes are daemonic, so
    they die with the parent, but only a clean close checkpoints persistent
    shards.
    """

    def __init__(
        self,
        *args,
        request_deadline_ms: float = DEFAULT_REQUEST_DEADLINE_MS,
        retry_limit: int = DEFAULT_RETRY_LIMIT,
        retry_backoff_ms: float = DEFAULT_RETRY_BACKOFF_MS,
        hedge_delay_ms: Optional[float] = None,
        **kwargs,
    ) -> None:
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:
            raise ConfigurationError(
                "this platform cannot fork; use the in-process ClusterService"
            ) from None
        # RPC-resilience knobs, consumed while super().__init__ builds the
        # shards and the executor, so they must be set first.
        self.request_deadline_ms = float(request_deadline_ms)
        self.retry_limit = int(retry_limit)
        self.retry_backoff_ms = float(retry_backoff_ms)
        self.hedge_delay_ms = hedge_delay_ms
        self._chaos: Optional[Tuple[ChaosSchedule, int]] = None
        super().__init__(*args, **kwargs)

    def _make_shard(self, shard_id: str) -> RemoteShard:
        def on_event(kind: str, **attributes) -> None:
            self._record_rpc_event(kind, shard=shard_id, **attributes)

        shard = RemoteShard(
            shard_id,
            self._ctx,
            *self._shard_spec(shard_id),
            request_deadline_ms=self.request_deadline_ms,
            retry_limit=self.retry_limit,
            retry_backoff_ms=self.retry_backoff_ms,
            on_event=on_event,
        )
        if self._chaos is not None:
            self._wrap_with_chaos(shard_id, shard)
        return shard

    # -- Chaos injection ---------------------------------------------------------------

    def _wrap_with_chaos(self, shard_id: str, shard: RemoteShard) -> None:
        schedule, base_seed = self._chaos

        def on_inject(fault: str, direction: str, frame: int) -> None:
            self._record_rpc_event(
                "chaos_injected", shard=shard_id, fault=fault, direction=direction, frame=frame
            )

        shard._sock = ChaosTransport(
            shard._sock,
            schedule,
            seed=derive_seed(base_seed, shard_id),
            on_inject=on_inject,
        )

    def install_chaos(self, schedule: ChaosSchedule, seed: int = 0) -> None:
        """Slide a :class:`~repro.service.chaos.ChaosTransport` under every
        worker socket (and under every future replacement worker's, until
        :meth:`clear_chaos`).  Per-shard seeds derive deterministically from
        ``seed``, so one integer replays one cluster-wide fault history.
        """
        self._chaos = (schedule, seed)
        for shard_id, shard in self.shards.items():
            if shard._sock is not None and not isinstance(shard._sock, ChaosTransport):
                self._wrap_with_chaos(shard_id, shard)

    def clear_chaos(self) -> None:
        """Remove every chaos wrapper (buffered, un-faulted bytes included —
        frames swallowed by a hang stay lost, exactly like a real outage)."""
        self._chaos = None
        for shard in self.shards.values():
            if isinstance(shard._sock, ChaosTransport):
                shard._sock = shard._sock.raw

    # -- Supervisor --------------------------------------------------------------------

    def check_workers(self) -> List[str]:
        """Detect dead workers and feed them into the health machinery.

        Every dead-but-not-yet-down worker is recorded as a ``worker_died``
        event and pushed through :meth:`record_shard_error` until the shard
        is marked down (so routing immediately avoids it).  Returns the
        newly-detected shard ids.  Callers run this periodically — or rely on
        the lazy path: any frame to a dead worker raises
        :class:`~repro.core.errors.WorkerDiedError`, which feeds the same
        counters through the executor's failure hooks.
        """
        died: List[str] = []
        for shard_id, shard in self.shards.items():
            if shard.alive or shard._closed or shard_id in self._down:
                continue
            exitcode = shard.process.exitcode if shard.process is not None else None
            self.events.record("worker_died", shard=shard_id, pid=shard.pid, exitcode=exitcode)
            while shard_id not in self._down:
                self.record_shard_error(shard_id)
            died.append(shard_id)
        return died

    def kill_worker(self, shard_id: str) -> None:
        """SIGKILL one shard's worker (the crash drill used by tests/benches).

        Only injects the failure — detection and recovery go through the
        normal machinery (:meth:`check_workers` or the next frame's
        :class:`~repro.core.errors.WorkerDiedError`).
        """
        shard = self.shards.get(shard_id)
        if shard is None:
            raise ConfigurationError(f"shard {shard_id!r} not present")
        pid = shard.pid
        shard.kill()
        self.events.record("worker_killed", shard=shard_id, pid=pid)

    def restart_worker(self, shard_id: str) -> Optional[CrashRecoveryReport]:
        """Respawn the worker for one shard and rejoin it to the cluster.

        A persistent shard's replacement worker reopens the backing file and
        runs CLAM crash recovery (the report is returned); a volatile shard
        comes back empty and relies on ``replication_factor >= 2`` —
        read-repair and the hinted-handoff replay below restore its keys
        lazily, exactly like :meth:`heal_shard` after a device crash.
        """
        if shard_id not in self.shards:
            raise ConfigurationError(f"shard {shard_id!r} not present")
        self._retire_shard(shard_id, RemoteShard.kill)
        replacement = self._build_shard(shard_id)
        report = replacement.recovery_report if self.storage == "persistent" else None
        self.events.record(
            "worker_restarted",
            shard=shard_id,
            pid=replacement.pid,
            crash_recovered=bool(report is not None and not report.clean_shutdown),
        )
        self._replay_hints_for(shard_id)
        return report

    # -- Accounting --------------------------------------------------------------------

    def worker_pids(self) -> Dict[str, Optional[int]]:
        """Current worker process id per shard."""
        return {shard_id: shard.pid for shard_id, shard in self.shards.items()}

    def worker_cpu_seconds(self) -> Dict[str, float]:
        """CPU seconds each live worker has consumed (benchmark accounting)."""
        cpu: Dict[str, float] = {}
        for shard_id, shard in self.shards.items():
            if not shard.alive:
                continue
            try:
                cpu[shard_id] = shard.cpu_seconds()
            except DeviceFailedError:
                continue
        return cpu
