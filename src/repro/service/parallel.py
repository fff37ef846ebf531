"""The worker-process shard backend of the cluster service.

Everything else in this repository runs in one Python thread over simulated
clocks — deterministic, but capped at one core however many shards there are.
``ClusterService(workers=WorkerProcesses(...))`` runs each shard's CLAM (a
:class:`~repro.core.recovery.DurableCLAM` when ``storage="persistent"``) in
its **own forked worker process** behind the binary protocol of
:mod:`repro.service.wire`, so the batch executor's per-shard fanout becomes a
true scatter/gather.  This module is that backend: :class:`WorkerProcesses`,
the RPC policy, and :class:`RemoteShard`, the parent-side proxy the cluster
builds in place of a :class:`~repro.service.shard.LocalShard`.

Both backends run the same cluster code and
:class:`~repro.service.batch.BatchExecutor`; only *where a shard runs*
differs.  A worker is itself a ``LocalShard`` built from the same spec and
served by :func:`~repro.service.shard.apply_batch` on its own
:class:`~repro.flashsim.clock.SimulationClock`, advanced by exactly what an
in-process shard's would be (the parent mirrors each worker clock and ships
accrued advances inside batch frames), so results, counters and simulated
clocks are **bit-identical** (``tests/test_parallel_cluster.py``,
``benchmarks/bench_parallel_cluster.py``).

A worker that dies (killed, OOM, crashed interpreter) surfaces as
:class:`~repro.core.errors.WorkerDiedError`, a
:class:`~repro.core.errors.DeviceFailedError`, at the next frame, so every
layer treats it as a crash-stopped device: replica failover, down-marking,
hinted handoff, and no acknowledged write lost at ``replication_factor >= 2``.
The cluster's ``check_workers`` feeds dead workers into that machinery and
``reopen_shard`` replaces one; a persistent replacement reopens its file and
runs CLAM crash recovery.  Workers are forked (sockets and configs are
inherited, not pickled), so this backend is POSIX-only.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import sys
import time
from dataclasses import dataclass
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
from repro.core.hashing import digest_cache_info, drop_digest_cache_holds, hold_digest_cache
from repro.core.recovery import CrashRecoveryReport
from repro.service import wire
from repro.service.shard import BatchAnswer, LocalShard, apply_batch
from repro.telemetry import trace as _trace
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.workload import OpKind

__all__ = [
    "DEFAULT_REQUEST_DEADLINE_MS",
    "DEFAULT_RETRY_BACKOFF_CAP_MS",
    "DEFAULT_RETRY_BACKOFF_MS",
    "DEFAULT_RETRY_LIMIT",
    "RemoteShard",
    "WorkerProcesses",
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


@dataclass(frozen=True)
class WorkerProcesses:
    """The worker-process backend of a cluster and its RPC policy.

    Passed as ``ClusterService(workers=WorkerProcesses(...))``: every shard
    then runs in a forked worker behind a :class:`RemoteShard`.  Each request
    gets ``request_deadline_ms``; a timed-out or corrupted response is resent
    up to ``retry_limit`` times, ``retry_backoff_ms`` apart (doubling, capped
    at :data:`DEFAULT_RETRY_BACKOFF_CAP_MS`); ``hedge_delay_ms``, when set, is
    the executor's hedged-read window (see
    :class:`~repro.service.batch.BatchExecutor`).
    """

    request_deadline_ms: float = DEFAULT_REQUEST_DEADLINE_MS
    retry_limit: int = DEFAULT_RETRY_LIMIT
    retry_backoff_ms: float = DEFAULT_RETRY_BACKOFF_MS
    hedge_delay_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.request_deadline_ms <= 0:
            raise ConfigurationError("request_deadline_ms must be positive")
        if self.retry_limit < 0:
            raise ConfigurationError("retry_limit must be non-negative")
        if self.hedge_delay_ms is not None and self.hedge_delay_ms <= 0:
            raise ConfigurationError("hedge_delay_ms must be positive (or None to disable)")


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
        results, error_code, message, busy_ms = apply_batch(shard.clam, advance_ms, operations)
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

    ``spec`` is the ``(config, storage, data_path)`` the cluster builds an
    in-process shard from, so the worker builds exactly that shard.

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
    _trace.ACTIVE = None  # the parent's tracer and indexes must not leak across the fork
    drop_digest_cache_holds()
    shard: Optional[LocalShard] = None
    exit_code = 0
    try:
        try:
            shard = LocalShard(shard_id, *spec)
        except Exception as error:  # tell the parent why the build failed
            hello = {"ok": False, "error": f"{type(error).__name__}: {error}"}
            wire.send_frame(conn, wire.FRAME_CONTROL_RESPONSE, wire.encode_control(hello))
            return
        # A reopened persistent CLAM has charged its recovery scan already.
        hello = {"ok": True, "pid": os.getpid(), "clock": shard.clock.now_ms}
        hello["digest_cache"] = digest_cache_info()["capacity"]  # what its CLAM retains
        wire.send_frame(conn, wire.FRAME_CONTROL_RESPONSE, wire.encode_control(hello))
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
    wire: batches as one frame each way, everything else as control frames.
    On top of the interface it exposes what only a process has: ``pid``,
    ``alive``, ``kill()``, ``cpu_seconds()``, and ``lookup(key)``, one lookup
    as its own one-operation round trip (the cost of a single frame exchange).

    Transport failures (EOF, broken pipe) mark the proxy dead and raise
    :class:`~repro.core.errors.WorkerDiedError` so callers handle a dead
    worker exactly like a crash-stopped device.  Gray failures are bounded
    by the ``workers`` policy: every request carries its deadline (socket
    timeouts), a timed-out or CRC-corrupted response is resent with the same
    sequence number (a late answer to an earlier attempt is discarded, never
    mis-matched) up to ``retry_limit`` times, and then the proxy opens its
    circuit — marks itself dead and raises
    :class:`~repro.core.errors.WorkerStalledError` — so a hung worker feeds
    the same supervisor/replication machinery as a dead one.  ``on_event(kind,
    **attributes)`` reports ``rpc_timeout`` / ``rpc_retry`` /
    ``worker_stalled`` to the cluster's event log and counters.
    """

    def __init__(
        self,
        shard_id: str,
        workers: WorkerProcesses,
        config: CLAMConfig,
        storage: str,
        data_path: Optional[str],
        on_event: Callable[..., None],
    ) -> None:
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:
            raise ConfigurationError(
                "this platform cannot fork; build the cluster with in-process shards"
            ) from None
        self.shard_id = shard_id
        self.workers = workers
        self.on_event = on_event
        self.clock = _MirrorClock()
        #: What the worker builds its :class:`LocalShard` from.
        self._spec = (config, storage, data_path)
        self._sock: Optional[socket.socket] = None
        self.process = None
        self._dead = False
        self._closed = False
        self._seq = 0
        self._inflight: Optional[Tuple[int, int, bytes]] = None
        hold_digest_cache(self, self._spawn())  # routes what the worker's CLAM retains

    def _spawn(self) -> int:
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
        hello = wire.decode_control(self._recv_plain(wire.FRAME_CONTROL_RESPONSE))
        if not hello.get("ok"):
            self.process.join(timeout=10.0)
            raise ConfigurationError(
                f"worker for shard {self.shard_id!r} failed to start: {hello.get('error')}"
            )
        self.clock.sync(hello["clock"])
        return hello["digest_cache"]

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
        workers = self.workers
        timeout_s = workers.request_deadline_ms / 1000.0 if timeout_s is None else timeout_s
        attempts = workers.retry_limit + 1 if attempts is None else attempts
        backoff_s = workers.retry_backoff_ms / 1000.0
        cap_s = DEFAULT_RETRY_BACKOFF_CAP_MS / 1000.0
        last_error: Optional[Exception] = None
        reason = ""
        for attempt in range(attempts):
            if attempt:
                self.on_event("rpc_retry", attempt=attempt, reason=reason)
                time.sleep(backoff_s)
                backoff_s = min(backoff_s * 2.0, cap_s)
                self._send(frame_type, payload, seq)
            try:
                return self._recv_matching(expected_type, seq, timeout_s)
            except TimeoutError as error:
                last_error, reason = error, "timeout"
                self.on_event("rpc_timeout", attempt=attempt)
            except wire.CorruptFrameError as error:
                last_error, reason = error, "corrupt"
        self._dead = True  # circuit open: no more frames until a restart
        self.on_event("worker_stalled", reason=reason, attempts=attempts)
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

    def lookup(self, key):
        """One lookup as a one-operation batch frame each way."""
        self.send_batch([(OpKind.LOOKUP, key, b"")])
        results, error_code, message, _busy_ms = self.recv_batch()
        wire.raise_for_code(error_code, f"shard {self.shard_id}: {message}")
        return results[0]

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

    def close(self, timeout_s: float = 10.0) -> None:
        """Cleanly stop the worker (idempotent), escalating on a hang.

        A live worker is asked to close over the wire (a persistent CLAM
        flushes and checkpoints before the ack), then reaped.  Each stage is
        bounded by ``timeout_s``: the exchange is one attempt under that
        deadline, and a worker still alive after the join is SIGKILLed.
        Raises :class:`~repro.core.errors.WireProtocolError` when the worker
        reports its close failed, or the stall/death error when the exchange
        could not complete — always after the socket is closed and the
        process reaped, so nothing leaks.
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
