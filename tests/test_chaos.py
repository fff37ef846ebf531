"""Tests for the chaos-hardened RPC plane (repro.service.chaos + parallel).

Three layers under test:

* **ChaosSchedule / ChaosTransport** — deterministic, seeded fault injection
  over a real socketpair: drop, delay, duplicate, reorder, corrupt, hang.
  EOF always passes through untouched (chaos must never mask a real death).
* **RemoteShard resilience** — per-request deadlines, bounded idempotent
  retries with the same sequence number, stale-frame discard, the worker's
  fatal dying-words frame on a desynchronised stream, and bounded
  ``close`` escalation for a frozen worker.
* **Cluster behaviour under chaos** — hedged reads reroute without marking a
  slow shard dead, a hung shard feeds the supervisor machinery, and a
  randomized chaos run at RF=2 loses zero acknowledged writes while the
  chaos-off configuration stays bit-identical to the in-process cluster.
"""

import os
import random
import signal
import socket
import struct
import time
import zlib

import pytest

from conftest import shard_op
from repro.core import CLAMConfig
from repro.core.errors import (
    ConfigurationError,
    DeviceFailedError,
    ShardUnavailableError,
    WorkerDiedError,
    WorkerStalledError,
)
from repro.service import wire
from repro.service.chaos import CHAOS_FAULTS, ChaosSchedule, ChaosTransport, derive_seed
from repro.service.cluster import ClusterService
from repro.service.parallel import WORKER_EXIT_DESYNC, RemoteShard, WorkerProcesses
from repro.workloads.workload import Operation, OpKind


@pytest.fixture
def cluster_config() -> CLAMConfig:
    return CLAMConfig.scaled(
        num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4
    )


def chaos_pair(schedule, seed=0, on_inject=None, wrap="receiver"):
    """A socketpair with a ChaosTransport wrapped around one end."""
    left, right = socket.socketpair()
    if wrap == "receiver":
        return left, ChaosTransport(right, schedule, seed=seed, on_inject=on_inject)
    return ChaosTransport(left, schedule, seed=seed, on_inject=on_inject), right


class TestChaosSchedule:
    def test_rates_must_be_non_negative(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            ChaosSchedule(drop_rate=-0.1)

    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ConfigurationError, match="sum"):
            ChaosSchedule(drop_rate=0.6, corrupt_rate=0.6)

    def test_delay_must_be_non_negative(self):
        with pytest.raises(ConfigurationError, match="delay_ms"):
            ChaosSchedule(delay_ms=-1.0)

    def test_script_fault_names_validated(self):
        with pytest.raises(ConfigurationError, match="meteor"):
            ChaosSchedule(script={3: "meteor"})

    def test_script_overrides_rates(self):
        schedule = ChaosSchedule(drop_rate=1.0, script={1: "corrupt", 2: "none"})
        rng = random.Random(0)
        assert schedule.pick(rng, 0) == "drop"  # rates apply off-script
        assert schedule.pick(rng, 1) == "corrupt"  # script wins
        assert schedule.pick(rng, 2) is None  # "none" forces a clean frame

    def test_pick_is_deterministic_per_seed(self):
        schedule = ChaosSchedule(
            drop_rate=0.2, duplicate_rate=0.2, reorder_rate=0.2, corrupt_rate=0.2
        )
        rng_a, rng_b = random.Random(7), random.Random(7)
        draws_a = [schedule.pick(rng_a, i) for i in range(300)]
        draws_b = [schedule.pick(rng_b, i) for i in range(300)]
        assert draws_a == draws_b
        assert set(draws_a) - {None} == {"drop", "duplicate", "reorder", "corrupt"}

    def test_total_rate(self):
        schedule = ChaosSchedule(drop_rate=0.1, hang_rate=0.2)
        assert schedule.total_rate == pytest.approx(0.3)

    def test_fault_taxonomy_is_stable(self):
        # The seeded draw maps rates onto this exact order; reordering it
        # would silently change every replayed schedule.
        assert CHAOS_FAULTS == ("drop", "delay", "duplicate", "reorder", "corrupt", "hang")


class TestDeriveSeed:
    def test_deterministic_and_distinct_per_shard(self):
        seeds = {derive_seed(42, f"shard-{i}") for i in range(16)}
        assert len(seeds) == 16
        assert derive_seed(42, "shard-3") == derive_seed(42, "shard-3")
        assert derive_seed(42, "shard-3") != derive_seed(43, "shard-3")


class TestChaosTransport:
    def test_no_faults_passes_frames_through(self):
        sender, transport = chaos_pair(ChaosSchedule())
        try:
            wire.send_frame(sender, wire.FRAME_CONTROL_REQUEST, b"payload", seq=7)
            frame_type, seq, payload = wire.recv_frame(transport)
            assert (frame_type, seq, payload) == (wire.FRAME_CONTROL_REQUEST, 7, b"payload")
            assert transport.injected_faults == 0
        finally:
            sender.close()
            transport.close()

    def test_drop_discards_one_frame(self):
        sender, transport = chaos_pair(ChaosSchedule(script={0: "drop"}))
        try:
            wire.send_frame(sender, wire.FRAME_CONTROL_REQUEST, b"first", seq=1)
            wire.send_frame(sender, wire.FRAME_CONTROL_REQUEST, b"second", seq=2)
            _, seq, payload = wire.recv_frame(transport)
            assert (seq, payload) == (2, b"second")
            assert transport.injected_faults == 1
        finally:
            sender.close()
            transport.close()

    def test_duplicate_delivers_twice(self):
        sender, transport = chaos_pair(ChaosSchedule(script={0: "duplicate"}))
        try:
            wire.send_frame(sender, wire.FRAME_CONTROL_REQUEST, b"dup", seq=9)
            first = wire.recv_frame(transport)
            second = wire.recv_frame(transport)
            assert first == second == (wire.FRAME_CONTROL_REQUEST, 9, b"dup")
        finally:
            sender.close()
            transport.close()

    def test_reorder_swaps_adjacent_frames(self):
        sender, transport = chaos_pair(ChaosSchedule(script={0: "reorder"}))
        try:
            wire.send_frame(sender, wire.FRAME_CONTROL_REQUEST, b"a", seq=1)
            wire.send_frame(sender, wire.FRAME_CONTROL_REQUEST, b"b", seq=2)
            assert wire.recv_frame(transport)[1] == 2
            assert wire.recv_frame(transport)[1] == 1
        finally:
            sender.close()
            transport.close()

    def test_reorder_with_no_following_frame_still_delivers(self):
        # A held frame must not masquerade as a hang: when nothing follows
        # it within the timeout, the pump delivers it instead of raising.
        sender, transport = chaos_pair(ChaosSchedule(script={0: "reorder"}))
        try:
            transport.settimeout(0.05)
            wire.send_frame(sender, wire.FRAME_CONTROL_REQUEST, b"only", seq=4)
            assert wire.recv_frame(transport)[1] == 4
        finally:
            sender.close()
            transport.close()

    def test_corrupt_raises_typed_crc_error(self):
        sender, transport = chaos_pair(ChaosSchedule(script={0: "corrupt"}))
        try:
            wire.send_frame(sender, wire.FRAME_CONTROL_REQUEST, b"x" * 64, seq=5)
            with pytest.raises(wire.CorruptFrameError):
                wire.recv_frame(transport)
        finally:
            sender.close()
            transport.close()

    def test_delay_sleeps_then_delivers(self):
        sender, transport = chaos_pair(ChaosSchedule(delay_ms=40.0, script={0: "delay"}))
        try:
            wire.send_frame(sender, wire.FRAME_CONTROL_REQUEST, b"late", seq=3)
            started = time.monotonic()
            assert wire.recv_frame(transport)[2] == b"late"
            assert time.monotonic() - started >= 0.04
        finally:
            sender.close()
            transport.close()

    def test_hang_wedges_recv_until_heal(self):
        sender, transport = chaos_pair(ChaosSchedule(script={0: "hang"}))
        try:
            transport.settimeout(0.05)
            wire.send_frame(sender, wire.FRAME_CONTROL_REQUEST, b"lost", seq=1)
            with pytest.raises(socket.timeout):
                wire.recv_frame(transport)
            with pytest.raises(socket.timeout):  # still wedged, unlike a drop
                wire.recv_frame(transport)
            transport.heal()
            # The wedged frame stays lost (exactly like a real outage); a
            # resend goes through.
            wire.send_frame(sender, wire.FRAME_CONTROL_REQUEST, b"retry", seq=2)
            assert wire.recv_frame(transport)[2] == b"retry"
        finally:
            sender.close()
            transport.close()

    def test_hang_swallows_sends(self):
        transport, receiver = chaos_pair(ChaosSchedule(script={0: "hang"}), wrap="sender")
        try:
            receiver.settimeout(0.05)
            wire.send_frame(transport, wire.FRAME_CONTROL_REQUEST, b"gone", seq=1)
            # Still wedged, unlike a drop: the next frame is swallowed too.
            wire.send_frame(transport, wire.FRAME_CONTROL_REQUEST, b"gone too", seq=2)
            with pytest.raises(TimeoutError):
                wire.recv_frame(receiver)
            transport.heal()
            wire.send_frame(transport, wire.FRAME_CONTROL_REQUEST, b"back", seq=3)
            assert wire.recv_frame(receiver)[2] == b"back"
        finally:
            receiver.close()
            transport.close()

    def test_eof_passes_through_untouched(self):
        # Worker death must stay visible as a TruncatedFrameError even under
        # a certain-corruption schedule: chaos never masks a real hangup.
        sender, transport = chaos_pair(ChaosSchedule(corrupt_rate=1.0))
        try:
            wire.send_frame(sender, wire.FRAME_CONTROL_REQUEST, b"damaged", seq=1)
            sender.close()
            with pytest.raises(wire.CorruptFrameError):
                wire.recv_frame(transport)
            with pytest.raises(wire.TruncatedFrameError):
                wire.recv_frame(transport)
        finally:
            transport.close()

    def test_on_inject_reports_fault_direction_and_frame(self):
        log = []
        sender, transport = chaos_pair(
            ChaosSchedule(script={1: "drop"}),
            on_inject=lambda fault, direction, frame: log.append((fault, direction, frame)),
        )
        try:
            wire.send_frame(sender, wire.FRAME_CONTROL_REQUEST, b"ok", seq=1)
            wire.send_frame(sender, wire.FRAME_CONTROL_REQUEST, b"dropped", seq=2)
            wire.send_frame(sender, wire.FRAME_CONTROL_REQUEST, b"ok2", seq=3)
            assert wire.recv_frame(transport)[1] == 1
            assert wire.recv_frame(transport)[1] == 3
            assert log == [("drop", "recv", 1)]
        finally:
            sender.close()
            transport.close()

    def test_send_side_fault_sequence_replays_from_seed(self):
        schedule = ChaosSchedule(
            drop_rate=0.2, duplicate_rate=0.2, reorder_rate=0.2, corrupt_rate=0.2
        )
        histories = []
        for _ in range(2):
            log = []
            transport, receiver = chaos_pair(
                schedule,
                seed=1234,
                on_inject=lambda fault, direction, frame: log.append((fault, frame)),
                wrap="sender",
            )
            try:
                for seq in range(1, 41):
                    wire.send_frame(transport, wire.FRAME_CONTROL_REQUEST, b"p", seq=seq)
            finally:
                receiver.close()
                transport.close()
            histories.append(log)
        assert histories[0] == histories[1]
        assert histories[0], "a 0.8 total rate over 40 frames must inject something"


class _ShardHarness:
    """One directly-built RemoteShard plus its captured RPC events."""

    def __init__(self, config, **policy):
        self.events = []
        self.shard = RemoteShard(
            "shard-t",
            WorkerProcesses(**policy),
            config,
            "dram",
            None,
            on_event=lambda kind, **attrs: self.events.append((kind, attrs)),
        )

    def kinds(self):
        return [kind for kind, _ in self.events]

    def close(self):
        process = self.shard.process
        if process is not None and process.is_alive():
            try:
                os.kill(process.pid, signal.SIGCONT)  # in case a test froze it
            except ProcessLookupError:
                pass
        self.shard.kill()


class TestWorkerProcesses:
    """The RPC policy validates itself once, where it is built."""

    @pytest.mark.parametrize(
        "policy, message",
        [
            ({"request_deadline_ms": 0}, "request_deadline_ms must be positive"),
            ({"request_deadline_ms": -5.0}, "request_deadline_ms must be positive"),
            ({"retry_limit": -1}, "retry_limit must be non-negative"),
            ({"hedge_delay_ms": 0.0}, "hedge_delay_ms must be positive"),
        ],
    )
    def test_invalid_policy_is_rejected(self, policy, message):
        with pytest.raises(ConfigurationError, match=message):
            WorkerProcesses(**policy)

    @pytest.mark.parametrize(
        "call",
        [
            lambda cluster: cluster.install_chaos(ChaosSchedule()),
            lambda cluster: cluster.clear_chaos(),
            lambda cluster: cluster.check_workers(),
            lambda cluster: cluster.kill_worker("shard-0"),
            lambda cluster: cluster.worker_pids(),
            lambda cluster: cluster.worker_cpu_seconds(),
        ],
    )
    def test_worker_methods_refuse_an_in_process_cluster(self, cluster_config, call):
        cluster = ClusterService(num_shards=2, config=cluster_config)
        with pytest.raises(ConfigurationError, match="workers=WorkerProcesses"):
            call(cluster)


class TestRemoteShardResilience:
    def test_dropped_request_is_retried_with_same_seq(self, cluster_config):
        harness = _ShardHarness(
            cluster_config,
            request_deadline_ms=200, retry_limit=2, retry_backoff_ms=1.0,
        )
        try:
            shard = harness.shard
            shard_op(shard, OpKind.INSERT, b"key", b"value")
            shard._sock = ChaosTransport(shard._sock, ChaosSchedule(script={0: "drop"}))
            result = shard_op(shard, OpKind.LOOKUP, b"key")
            assert result.found and result.value == b"value"
            assert "rpc_timeout" in harness.kinds()
            assert "rpc_retry" in harness.kinds()
            assert shard.alive  # the retry succeeded: circuit stays closed
        finally:
            harness.close()

    def test_corrupt_response_is_retried(self, cluster_config):
        harness = _ShardHarness(
            cluster_config,
            request_deadline_ms=500, retry_limit=2, retry_backoff_ms=1.0,
        )
        try:
            shard = harness.shard
            shard_op(shard, OpKind.INSERT, b"key", b"value")
            # Frame 0 is the request send, frame 1 the corrupted response.
            shard._sock = ChaosTransport(shard._sock, ChaosSchedule(script={1: "corrupt"}))
            result = shard_op(shard, OpKind.LOOKUP, b"key")
            assert result.found and result.value == b"value"
            assert ("rpc_retry", {"attempt": 1, "reason": "corrupt"}) in harness.events
        finally:
            harness.close()

    def test_duplicate_response_is_discarded_by_seq(self, cluster_config):
        harness = _ShardHarness(cluster_config)
        try:
            shard = harness.shard
            shard_op(shard, OpKind.INSERT, b"key", b"value")
            shard._sock = ChaosTransport(shard._sock, ChaosSchedule(script={1: "duplicate"}))
            assert shard_op(shard, OpKind.LOOKUP, b"key").value == b"value"
            # The stale duplicate sits in the receive buffer; the next
            # exchange must skip it by sequence number, not mis-match it.
            assert shard_op(shard, OpKind.LOOKUP, b"key").value == b"value"
            assert harness.events == []  # discard is silent, not a retry
        finally:
            harness.close()

    def test_stalled_worker_opens_circuit_within_deadline(self, cluster_config):
        harness = _ShardHarness(
            cluster_config,
            request_deadline_ms=150, retry_limit=1, retry_backoff_ms=1.0,
        )
        try:
            shard = harness.shard
            shard_op(shard, OpKind.INSERT, b"key", b"value")
            os.kill(shard.pid, signal.SIGSTOP)
            started = time.monotonic()
            with pytest.raises(WorkerStalledError):
                shard_op(shard, OpKind.LOOKUP, b"key")
            elapsed = time.monotonic() - started
            assert elapsed < 5.0, f"deadline+retry should bound the stall, took {elapsed:.1f}s"
            assert not shard.alive  # circuit open until the supervisor restarts it
            stalled = [attrs for kind, attrs in harness.events if kind == "worker_stalled"]
            assert stalled == [{"reason": "timeout", "attempts": 2}]
            # The stall error is a device failure: replica failover applies.
            assert issubclass(WorkerStalledError, DeviceFailedError)
        finally:
            harness.close()

    def test_shutdown_escalates_to_sigkill_for_frozen_worker(self, cluster_config):
        """Satellite: a worker frozen mid-frame cannot stall shutdown."""
        harness = _ShardHarness(cluster_config)
        try:
            shard = harness.shard
            # Leave the worker blocked mid-frame: a length prefix promising
            # 100 bytes that never arrive, then freeze it entirely.
            shard._sock.sendall(struct.pack("<I", 100))
            os.kill(shard.pid, signal.SIGSTOP)
            started = time.monotonic()
            with pytest.raises(DeviceFailedError):
                shard.close(timeout_s=0.5)
            elapsed = time.monotonic() - started
            assert elapsed < 10.0, f"shutdown must stay bounded, took {elapsed:.1f}s"
            assert not shard.process.is_alive()
            assert shard.process.exitcode == -signal.SIGKILL
            shard.close()  # idempotent after the escalation
        finally:
            harness.close()

    def test_desynced_stream_gets_fatal_frame_and_typed_exit(self, cluster_config):
        """Satellite: the worker names its error before dying on desync."""
        harness = _ShardHarness(cluster_config)
        try:
            shard = harness.shard
            # An oversized length prefix desynchronises the stream beyond
            # recovery: the worker must report it and exit, not crash raw.
            shard._sock.sendall(struct.pack("<I", wire.MAX_FRAME_BYTES + 100))
            shard.process.join(timeout=10.0)
            assert shard.process.exitcode == WORKER_EXIT_DESYNC
            # Its dying words arrive as a fatal control frame, surfaced as a
            # typed WorkerDiedError naming the wire error.
            with pytest.raises(WorkerDiedError, match="OversizedFrameError"):
                shard._recv_matching(wire.FRAME_BATCH_RESPONSE, 999, timeout_s=5.0)
            assert not shard.alive
        finally:
            harness.close()

    def test_worker_survives_a_crc_corrupt_request(self, cluster_config):
        harness = _ShardHarness(cluster_config)
        try:
            shard = harness.shard
            payload = wire.encode_control({"op": "ping"})
            covered = struct.pack("<BBI", wire.WIRE_VERSION, wire.FRAME_CONTROL_REQUEST, 42)
            covered += payload
            frame = struct.pack("<I", len(covered) + 4)
            frame += struct.pack("<I", zlib.crc32(covered) ^ 0xFF)  # wrong CRC
            frame += covered
            shard._sock.sendall(frame)
            # Framing held, so the worker just drops the damaged frame and
            # keeps serving.
            assert shard.counters() is not None
            assert shard.process.is_alive()
        finally:
            harness.close()


class TestClusterChaos:
    def test_chaos_off_parity_with_resilience_enabled(self, cluster_config):
        """Deadlines, retries and hedging must be invisible on a healthy
        cluster: results, counters, clocks and the event log all match the
        in-process deployment bit for bit."""
        def drive(cluster):
            records = []
            for i in range(48):
                records.append(cluster.insert(b"key-%d" % i, b"val-%d" % i))
            records.extend(
                cluster.execute_batch(
                    [Operation(OpKind.LOOKUP, b"key-%d" % i) for i in range(48)]
                ).results
            )
            records.append(cluster.delete(b"key-0"))
            return records

        reference = ClusterService(
            num_shards=4, config=cluster_config, replication_factor=2
        )
        expected = drive(reference)
        with ClusterService(
            num_shards=4,
            config=cluster_config,
            replication_factor=2,
            workers=WorkerProcesses(request_deadline_ms=5_000, retry_limit=2, hedge_delay_ms=100.0),
        ) as cluster:
            actual = drive(cluster)
            assert actual == expected
            assert cluster.stats.combined() == reference.stats.combined()
            assert cluster.clock.now_ms == reference.clock.now_ms
            rpc_kinds = {
                "chaos_injected", "rpc_timeout", "rpc_retry", "hedge_fired", "worker_stalled"
            }
            assert rpc_kinds.isdisjoint(cluster.events.kinds())

    def test_hedged_read_reroutes_without_marking_shard_down(self, cluster_config):
        with ClusterService(
            num_shards=4,
            config=cluster_config,
            replication_factor=2,
            workers=WorkerProcesses(request_deadline_ms=10_000, hedge_delay_ms=60.0),
        ) as cluster:
            keys = [b"hedge-%d" % i for i in range(40)]
            for key in keys:
                cluster.insert(key, b"val-" + key)
            victim = cluster.shard_for(keys[0])
            os.kill(cluster.shards[victim].pid, signal.SIGSTOP)
            try:
                batch = cluster.execute_batch([Operation(OpKind.LOOKUP, k) for k in keys])
                assert all(r is not None and r.found for r in batch.results)
                fired = cluster.events.events("hedge_fired")
                assert fired and fired[0].attributes["shard"] == victim
                # Slow is not dead: the victim is neither marked down nor
                # circuit-opened, so it serves again the moment it thaws.
                assert victim not in cluster.down_shard_ids
                assert cluster.shards[victim].alive
            finally:
                os.kill(cluster.shards[victim].pid, signal.SIGCONT)
            # The abandoned response is discarded by sequence number; the
            # thawed shard answers fresh requests correctly.
            result = cluster.lookup(keys[0])
            assert result.found and result.value == b"val-" + keys[0]

    def test_hung_transport_feeds_supervisor_machinery(self, cluster_config):
        with ClusterService(
            num_shards=4,
            config=cluster_config,
            replication_factor=2,
            workers=WorkerProcesses(request_deadline_ms=150, retry_limit=1, retry_backoff_ms=1.0),
        ) as cluster:
            key = b"hang-target"
            cluster.insert(key, b"precious")
            victim = cluster.shard_for(key)
            shard = cluster.shards[victim]
            cluster._chaos = (ChaosSchedule(script={0: "hang"}), 1)
            cluster._wrap_with_chaos(victim, shard)
            cluster._chaos = None  # only the victim is wrapped
            # The hung worker misses its deadline, exhausts retries, opens
            # the circuit — and the read fails over to the replica.
            result = cluster.lookup(key)
            assert result.found and result.value == b"precious"
            kinds = cluster.events.kinds()
            for kind in ("chaos_injected", "rpc_timeout", "rpc_retry", "worker_stalled"):
                assert kind in kinds, f"missing {kind} in {kinds}"
            assert victim in cluster.down_shard_ids
            # Reopening the shard (a fresh worker) brings it back clean.
            cluster.reopen_shard(victim)
            assert victim not in cluster.down_shard_ids
            assert cluster.lookup(key).found

    def test_randomized_chaos_at_rf2_loses_no_acked_write(self, cluster_config):
        """The headline contract: a seeded mixed-fault schedule at RF=2 —
        drops, duplicates, corruption, delays on every link — costs latency,
        never acknowledged data, and availability stays >= 0.99."""
        schedule = ChaosSchedule(
            drop_rate=0.02,
            duplicate_rate=0.05,
            corrupt_rate=0.02,
            delay_rate=0.05,
            delay_ms=2.0,
        )
        with ClusterService(
            num_shards=4,
            config=cluster_config,
            replication_factor=2,
            workers=WorkerProcesses(request_deadline_ms=120, retry_limit=3, retry_backoff_ms=2.0),
        ) as cluster:
            cluster.install_chaos(schedule, seed=2026)
            keys = [b"chaos-%d" % i for i in range(120)]
            acked, refused = [], 0
            for key in keys:
                try:
                    cluster.insert(key, b"val-" + key)
                    acked.append(key)
                except (ShardUnavailableError, DeviceFailedError):
                    refused += 1
            assert len(acked) / len(keys) >= 0.99
            assert cluster.events.events("chaos_injected"), "chaos must actually fire"
            cluster.clear_chaos()
            for shard_id in sorted(cluster.down_shard_ids):
                cluster.reopen_shard(shard_id)
            for key in acked:
                result = cluster.lookup(key)
                assert result.found and result.value == b"val-" + key, (
                    f"acknowledged write {key!r} lost under chaos"
                )

    def test_install_chaos_covers_replacement_workers(self, cluster_config):
        with ClusterService(
            num_shards=2, config=cluster_config, replication_factor=2, workers=WorkerProcesses()
        ) as cluster:
            cluster.install_chaos(ChaosSchedule(), seed=5)
            assert all(
                isinstance(shard._sock, ChaosTransport) for shard in cluster.shards.values()
            )
            cluster.kill_worker("shard-0")
            cluster.check_workers()
            cluster.reopen_shard("shard-0")
            assert isinstance(cluster.shards["shard-0"]._sock, ChaosTransport)
            cluster.clear_chaos()
            assert not any(
                isinstance(shard._sock, ChaosTransport) for shard in cluster.shards.values()
            )
            cluster.insert(b"key", b"value")
            assert cluster.lookup(b"key").found
