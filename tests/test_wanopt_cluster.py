"""Multi-branch WAN optimization over the replicated cluster.

Covers the contracts the new :mod:`repro.wanopt.topology` layer must hold:

* **Equivalence** — compression decisions (compressed bytes, chunks matched,
  per-object outcomes) are bit-identical whether the fingerprint index is a
  single CLAM or a 1-shard RF=1 :class:`ClusterService`, and every index
  kind follows the model: a chunk is sent as a reference iff its fingerprint
  appeared earlier in the stream.
* **Monotonicity** — sharing one cluster index across branches never lowers
  any branch's dedup hit rate relative to private per-branch indexes.
* **Fault tolerance** — a shard killed mid-stream at RF=2 is failed over
  with availability 1.0 and byte-exact reconstruction of every object (the
  ``bench_failover`` contract: nothing lost, nothing silently corrupted);
  at RF=1 the optimizer degrades to pass-through, which costs compression
  but never correctness.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines import ExternalHashIndex
from repro.core import CLAM, CLAMConfig
from repro.core.errors import ConfigurationError
from repro.service import ClusterService, FailureEvent, TrafficSimulator, TrafficSpec
from repro.wanopt import (
    BranchTraceGenerator,
    CompressionEngine,
    MultiBranchThroughputTest,
    MultiBranchTopology,
    SyntheticTraceGenerator,
    WANOptimizer,
    Link,
    build_payload_objects,
)
from repro.flashsim import SSD, SimulationClock


def small_config() -> CLAMConfig:
    return CLAMConfig.scaled(num_super_tables=8, buffer_capacity_items=128)


def compression_signature(result):
    """The decision-relevant fields of one object's compression outcome."""
    return (
        result.object_id,
        result.original_bytes,
        result.compressed_bytes,
        result.chunks_total,
        result.chunks_matched,
        result.matched_flags,
    )


class TestSingleClamClusterEquivalence:
    def _trace(self):
        return SyntheticTraceGenerator(
            redundancy=0.5, num_objects=20, mean_object_size=96 * 1024, seed=29
        ).generate()

    def test_batched_results_bit_identical_across_index_kinds(self):
        objects = self._trace()
        clam_engine = CompressionEngine(
            index=CLAM(small_config(), storage=SSD(clock=SimulationClock()))
        )
        cluster_engine = CompressionEngine(
            index=ClusterService(num_shards=1, config=small_config(), replication_factor=1)
        )
        for obj in objects:
            clam_result = clam_engine.process_object_batched(obj)
            cluster_result = cluster_engine.process_object_batched(obj)
            assert compression_signature(clam_result) == compression_signature(cluster_result)
        assert clam_engine.total_compressed_bytes == cluster_engine.total_compressed_bytes

    def _assert_first_sight_model(self, index):
        """A chunk is sent as a reference iff its fingerprint appeared earlier
        in the stream, whichever object (this one included) it appeared in."""
        engine = CompressionEngine(index=index)
        seen: set = set()
        repeats_within_an_object = 0
        for obj in self._trace():
            result = engine.process_object_batched(obj)
            expected = []
            for chunk in obj.chunks:
                expected.append(chunk.fingerprint in seen)
                seen.add(chunk.fingerprint)
            repeats_within_an_object += obj.num_chunks - len({c.fingerprint for c in obj.chunks})
            assert result.matched_flags == tuple(expected)
            assert result.chunks_matched == sum(expected)
            assert result.compressed_bytes == sum(
                min(engine.reference_size, chunk.size) if matched else chunk.size
                for chunk, matched in zip(obj.chunks, expected)
            )
        assert 0 < engine.total_compressed_bytes < engine.total_original_bytes
        assert repeats_within_an_object > 0

    def test_never_evicting_clam_follows_the_first_sight_model(self):
        # Small buffers flush to flash, so lookups are answered from both
        # tiers; 64 incarnations per table are more than the trace fills.
        clam = CLAM(
            CLAMConfig.scaled(
                num_super_tables=4, buffer_capacity_items=16, incarnations_per_table=64
            ),
            storage=SSD(clock=SimulationClock()),
        )
        self._assert_first_sight_model(clam)
        assert clam.total_flushes > 0
        assert clam.total_evictions == 0

    def test_bdb_baseline_follows_the_first_sight_model(self):
        self._assert_first_sight_model(ExternalHashIndex(SSD(clock=SimulationClock())))

    def test_one_shard_cluster_follows_the_first_sight_model(self):
        self._assert_first_sight_model(ClusterService(num_shards=1, config=small_config()))


class TestCrossBranchDedupMonotonicity:
    def test_shared_index_never_lowers_any_branchs_hit_rate(self):
        generator = BranchTraceGenerator(
            num_branches=3,
            objects_per_branch=8,
            mean_object_size=96 * 1024,
            shared_fraction=0.35,
            local_redundancy=0.2,
            shared_pool_size=150,
            seed=17,
        )
        streams = generator.generate()

        # Private world: every branch runs its own single-CLAM index.
        private_matched = []
        for stream in streams:
            engine = CompressionEngine(
                index=CLAM(small_config(), storage=SSD(clock=SimulationClock()))
            )
            for obj in stream:
                engine.process_object_batched(obj)
            private_matched.append(sum(r.chunks_matched for r in engine.results))

        # Shared world: the same streams over one cluster index.
        topology = MultiBranchTopology(
            num_branches=3,
            num_shards=2,
            replication_factor=1,
            config=small_config(),
            with_content_cache=False,
        )
        result = MultiBranchThroughputTest(topology).run(streams)
        shared_matched = [branch.chunks_matched for branch in result.branches]

        for private, shared in zip(private_matched, shared_matched):
            assert shared >= private
        assert sum(shared_matched) > sum(private_matched)
        assert result.cross_branch_matched > 0
        assert result.dedup_hit_rate >= result.cross_branch_hit_rate

    def test_cross_branch_hits_require_shared_content(self):
        streams = BranchTraceGenerator(
            num_branches=2,
            objects_per_branch=5,
            mean_object_size=64 * 1024,
            shared_fraction=0.0,
            local_redundancy=0.3,
            seed=5,
        ).generate()
        topology = MultiBranchTopology(
            num_branches=2, num_shards=2, replication_factor=1, config=small_config(),
            with_content_cache=False,
        )
        result = MultiBranchThroughputTest(topology).run(streams)
        assert result.cross_branch_matched == 0
        assert result.chunks_matched > 0  # intra-branch dedup still works


class TestFaultInjection:
    def _run(self, replication_factor: int, schedule):
        streams = BranchTraceGenerator(
            num_branches=2,
            objects_per_branch=10,
            mean_object_size=96 * 1024,
            shared_fraction=0.3,
            local_redundancy=0.2,
            shared_pool_size=200,
            seed=23,
        ).generate()
        topology = MultiBranchTopology(
            num_branches=2,
            num_shards=3,
            replication_factor=replication_factor,
            config=small_config(),
            with_content_cache=False,
        )
        result = MultiBranchThroughputTest(topology).run(streams, schedule=schedule)
        return topology, result

    def test_rf2_shard_kill_mid_stream_keeps_availability_and_bytes(self):
        """The bench_failover contract, through the WAN optimizer path."""
        topology, result = self._run(
            replication_factor=2,
            schedule=[
                FailureEvent(at_request=6, action="fail", shard_id="shard-1"),
                FailureEvent(at_request=14, action="recover"),
            ],
        )
        # Every object was deduplicated (requests failed over, none degraded).
        assert result.availability == 1.0
        assert result.objects_pass_through == 0
        # No silent chunk loss: every reference resolved on the far side.
        assert result.chunks_lost == 0
        assert result.objects_reconstructed_exactly == result.objects_total
        # The kill really happened and recovery really ran.
        assert "shard-1" not in topology.cluster.shard_ids
        assert len(result.recovery_reports) == 1
        report = result.recovery_reports[0]
        assert report.subject == "shard-1"
        assert report.keys_lost == 0
        assert report.keys_re_replicated > 0

    def test_rf1_shard_kill_degrades_to_pass_through_not_corruption(self):
        topology, result = self._run(
            replication_factor=1,
            schedule=[FailureEvent(at_request=6, action="fail", shard_id="shard-1")],
        )
        # Objects whose fingerprints route to the dead shard degrade.
        assert result.objects_pass_through > 0
        assert result.availability < 1.0
        # Pass-through always reconstructs: degraded, never corrupted.
        assert result.chunks_lost == 0
        assert result.objects_reconstructed_exactly == result.objects_total
        assert result.aggregate_bandwidth_improvement > 0

    def test_heal_restores_compression(self):
        topology, result = self._run(
            replication_factor=1,
            schedule=[
                FailureEvent(at_request=4, action="fail", shard_id="shard-0"),
                FailureEvent(at_request=8, action="heal", shard_id="shard-0"),
            ],
        )
        assert result.objects_pass_through > 0
        # After the heal the optimizer compresses again: the tail of the run
        # cannot be all pass-through.
        assert result.objects_compressed > 4
        assert result.objects_reconstructed_exactly == result.objects_total

    def test_event_scheduled_at_the_end_of_the_run_still_fires(self):
        """Regression: an event at or after the last object was silently dropped,
        so a drill's trailing ``recover`` never ran and the shard stayed down."""
        topology, result = self._run(
            replication_factor=2,
            schedule=[
                FailureEvent(at_request=5, action="fail", shard_id="shard-1"),
                FailureEvent(at_request=20, action="recover"),
            ],
        )
        assert result.objects_total == 20
        assert result.fired_events == [(5, "fail", "shard-1"), (20, "recover", None)]
        assert len(result.recovery_reports) == 1
        assert result.recovery_reports[0].subject == "shard-1"
        assert result.recovery_reports[0].keys_lost == 0
        assert topology.recovery_reports == result.recovery_reports
        assert topology.cluster.down_shard_ids == ()

    @pytest.mark.parametrize(
        "schedule",
        [
            # Given out of order; the recover is due exactly at the final count.
            [("recover", None, 20), ("fail", "shard-1", 5)],
            # Everything after the first event lies beyond the end of the run.
            [("fail", "shard-2", 19), ("heal", "shard-2", 25), ("recover", None, 1000)],
            [("fail", "shard-0", 0), ("heal", "shard-0", 0), ("recover", None, 3)],
        ],
    )
    def test_both_drivers_fire_one_schedule_the_same_way(self, schedule):
        """The multi-branch harness and the traffic simulator play a schedule
        through one cursor: same events, same order, over 20 dispatches each."""
        events = [
            FailureEvent(at_request=at, action=action, shard_id=shard)
            for action, shard, at in schedule
        ]
        _topology, result = self._run(replication_factor=2, schedule=events)
        simulator = TrafficSimulator(
            ClusterService(num_shards=3, config=small_config(), replication_factor=2),
            TrafficSpec(num_clients=2, requests_per_client=10, batch_size=4, key_space=200),
            schedule=events,
        )
        report = simulator.run()
        assert report.requests + report.failed_requests == result.objects_total == 20
        expected = sorted(
            ((at, action, shard) for action, shard, at in schedule), key=lambda fired: fired[0]
        )
        assert result.fired_events == report.fired_events == expected
        assert len(result.recovery_reports) == len(report.recovery_reports) == 1

    @pytest.mark.parametrize(
        "event",
        [
            FailureEvent(at_request=2, action="scale-out"),
            FailureEvent(at_request=2, action="scale-in", shard_id="shard-1"),
        ],
    )
    def test_membership_events_are_rejected_not_run_as_recovery(self, event):
        """The topology has no migrator to step; a recovery pass is not a scale event."""
        topology = MultiBranchTopology(
            num_branches=2, num_shards=3, config=small_config(), with_content_cache=False
        )
        with pytest.raises(ConfigurationError):
            topology.fire_event(event)
        assert topology.recovery_reports == []
        assert topology.cluster.events.events("schedule_fired") == []  # rejected up front
        assert topology.cluster.num_shards == 3


class _CrashBetweenRoundTrips:
    """Index wrapper crash-stopping a shard between an object's two round trips.

    Models the sharpest mid-object failure: the lookup round trip succeeds,
    the shard dies, and the insert round trip fails *after* the surviving
    shard's sub-batch applied — leaving fingerprints in the index whose
    object degraded to pass-through.
    """

    def __init__(self, cluster, victim: str) -> None:
        self.cluster = cluster
        self.victim = victim
        self.armed = False

    def lookup(self, key):
        return self.cluster.lookup(key)

    def insert(self, key, value):
        return self.cluster.insert(key, value)

    def lookup_batch(self, keys):
        results = self.cluster.lookup_batch(keys)
        if self.armed:
            self.cluster.fail_shard(self.victim)
            self.armed = False
        return results

    def insert_batch(self, items):
        return self.cluster.insert_batch(items)

    @property
    def last_batch(self):
        return self.cluster.last_batch


class TestMidObjectPartialInsertFailure:
    def test_partial_insert_before_pass_through_cannot_dangle(self):
        """A shard killed mid-object (between round trips) at RF=1 leaves the
        surviving shard's inserts in the index while the object itself
        degrades to pass-through; later matches against those fingerprints
        must still resolve because the pass-through literals were harvested."""
        from repro.wanopt.fingerprint import Chunk, fingerprint_bytes

        cluster = ClusterService(num_shards=2, config=small_config(), replication_factor=1)
        wrapper = _CrashBetweenRoundTrips(cluster, victim="shard-1")
        topology = MultiBranchTopology(num_branches=1, index=wrapper)
        branch = topology.branches[0]

        def chunk_on(shard_id: str, salt: int) -> Chunk:
            nonce = salt
            while True:
                fingerprint = fingerprint_bytes(b"dangle-%d" % nonce)
                if cluster.shard_for(fingerprint) == shard_id:
                    return Chunk(fingerprint=fingerprint, size=4096)
                nonce += 997

        survivor_chunk = chunk_on("shard-0", 1)
        victim_chunk = chunk_on("shard-1", 2)

        from repro.wanopt.traces import TraceObject

        # Object 0: lookup round trip succeeds, then shard-1 crashes; the
        # insert batch applies survivor_chunk on shard-0 and fails on the
        # victim -> pass-through with fingerprints left behind.
        wrapper.armed = True
        first = topology.process_branch_object(
            branch, TraceObject(object_id=0, chunks=(survivor_chunk, victim_chunk))
        )
        assert first.pass_through
        assert cluster.lookup(survivor_chunk.fingerprint).found  # the partial insert

        # Object 1 repeats the surviving chunk: it matches against the
        # partially-applied insert and the reference must resolve.
        second = topology.process_branch_object(
            branch, TraceObject(object_id=1, chunks=(survivor_chunk,))
        )
        assert not second.pass_through
        assert second.result.chunks_matched == 1
        assert second.chunks_lost == 0
        assert second.reconstructed_exactly
        assert topology.receiver.chunks_lost == 0
        # Attribution: the match is intra-branch (this branch uploaded the
        # bytes in its pass-through), not a phantom cross-branch hit.
        assert second.cross_branch_matched == 0


class TestByteExactReconstruction:
    def test_real_payload_objects_reassemble_byte_exactly(self):
        objects = build_payload_objects(
            num_objects=6, object_size=32 * 1024, redundancy=0.5, seed=31
        )
        streams = [objects[0::2], objects[1::2]]
        topology = MultiBranchTopology(
            num_branches=2,
            num_shards=2,
            replication_factor=2,
            config=small_config(),
        )
        result = MultiBranchThroughputTest(topology).run(
            streams,
            schedule=[FailureEvent(at_request=3, action="fail", shard_id="shard-0")],
        )
        # Payload-bearing chunks force the receiver to diff actual bytes.
        assert result.objects_reconstructed_exactly == result.objects_total
        assert result.chunks_lost == 0
        assert result.availability == 1.0
        assert topology.receiver.objects_checked == len(objects)


class TestTopologyHarness:
    def test_single_branch_single_shard_matches_classic_optimizer(self):
        """Aggregate improvement degenerates to the single-box Scenario 1."""
        objects = SyntheticTraceGenerator(
            redundancy=0.5, num_objects=15, mean_object_size=96 * 1024, seed=13
        ).generate()

        clock = SimulationClock()
        clam = CLAM(small_config(), storage=SSD(clock=clock))
        classic = WANOptimizer(
            engine=CompressionEngine(index=clam),
            link=Link(bandwidth_mbps=100.0, clock=clock),
            clock=clock,
        )
        classic_result = classic.run_throughput_test(objects)

        topology = MultiBranchTopology(
            num_branches=1,
            link_mbps=100.0,
            num_shards=1,
            replication_factor=1,
            config=small_config(),
            with_content_cache=False,
        )
        result = MultiBranchThroughputTest(topology).run([objects])
        assert result.aggregate_bandwidth_improvement == pytest.approx(
            classic_result.effective_bandwidth_improvement, rel=0.1
        )

    def test_stream_count_must_match_branches(self):
        topology = MultiBranchTopology(
            num_branches=2, num_shards=1, replication_factor=1, config=small_config()
        )
        with pytest.raises(ValueError):
            MultiBranchThroughputTest(topology).run([[]])

    def test_cluster_accessor_rejects_plain_index(self):
        clam = CLAM(small_config(), storage=SSD(clock=SimulationClock()))
        topology = MultiBranchTopology(num_branches=1, index=clam)
        with pytest.raises(ConfigurationError):
            topology.cluster

    def test_run_is_deterministic(self):
        def once():
            streams = BranchTraceGenerator(
                num_branches=2, objects_per_branch=6, mean_object_size=64 * 1024, seed=9
            ).generate()
            topology = MultiBranchTopology(
                num_branches=2, num_shards=2, replication_factor=2, config=small_config(),
                with_content_cache=False,
            )
            result = MultiBranchThroughputTest(topology).run(streams)
            return (
                result.chunks_matched,
                result.cross_branch_matched,
                [b.total_compressed_bytes for b in result.branches],
                [b.time_with_optimizer_ms for b in result.branches],
            )

        assert once() == once()


class TestRealPayloadMode:
    """Real bytes through the whole pipeline: chunked, hashed, deduplicated."""

    TRACE = dict(
        num_branches=2,
        objects_per_branch=5,
        mean_object_size=64 * 1024,
        mean_chunk_size=8 * 1024,
        shared_fraction=0.35,
        local_redundancy=0.2,
        shared_pool_size=60,
        seed=47,
    )

    def _real_streams(self, **overrides):
        return BranchTraceGenerator(
            real_payloads=True, **{**self.TRACE, **overrides}
        ).generate()

    def test_real_streams_are_deterministic_and_carry_zero_copy_payloads(self):
        first, second = self._real_streams(), self._real_streams()
        # Zero-copy checks first: comparing chunks (or touching `payload`)
        # materialises and caches owned bytes, by design.
        for stream in first:
            for obj in stream:
                for chunk in obj.chunks:
                    assert chunk.raw is not None
                    assert isinstance(chunk.raw, memoryview)
                    assert len(chunk.raw) == chunk.size
        for stream_a, stream_b in zip(first, second):
            for obj_a, obj_b in zip(stream_a, stream_b):
                assert obj_a.chunks == obj_b.chunks

    def test_object_ids_match_descriptor_mode(self):
        real = self._real_streams()
        descriptors = BranchTraceGenerator(**self.TRACE).generate()
        assert [[o.object_id for o in s] for s in real] == [
            [o.object_id for o in s] for s in descriptors
        ]

    def test_shared_pool_bytes_identical_across_branches(self):
        """A cross-branch match must reference bit-identical content."""
        streams = self._real_streams()
        seen: dict = {}
        duplicates = 0
        for stream in streams:
            for obj in stream:
                for chunk in obj.chunks:
                    payload = bytes(chunk.raw)
                    if chunk.fingerprint in seen:
                        duplicates += 1
                        assert seen[chunk.fingerprint] == payload
                    else:
                        seen[chunk.fingerprint] = payload
        assert duplicates > 0  # the trace really does repeat content

    def test_topology_reconstructs_real_bytes_exactly(self):
        # A small, heavily shared pool makes cross-branch pool-draw overlap
        # (and therefore cross-branch matches) certain at this trace size.
        streams = self._real_streams(shared_pool_size=15, shared_fraction=0.45)
        topology = MultiBranchTopology(
            num_branches=2,
            num_shards=2,
            replication_factor=2,
            config=small_config(),
            with_content_cache=False,
        )
        result = MultiBranchThroughputTest(topology).run(streams)
        assert result.objects_reconstructed_exactly == result.objects_total
        assert result.chunks_lost == 0
        assert result.chunks_matched > 0
        assert result.cross_branch_matched > 0

    def test_dedup_hit_rate_tracks_descriptor_mode(self):
        """Real-byte hit rates sit slightly below descriptor mode's (chunks
        straddling redundancy-block edges mix repeated and fresh bytes) but
        must stay within noise of them on the same trace shape."""

        def hit_rate(streams):
            topology = MultiBranchTopology(
                num_branches=2,
                num_shards=2,
                replication_factor=1,
                config=small_config(),
                with_content_cache=False,
            )
            return MultiBranchThroughputTest(topology).run(streams).dedup_hit_rate

        real = hit_rate(self._real_streams())
        descriptor = hit_rate(BranchTraceGenerator(**self.TRACE).generate())
        assert descriptor > 0
        assert 0.7 <= real / descriptor <= 1.2, (real, descriptor)

    def test_average_chunk_size_validation(self):
        with pytest.raises(ValueError):
            BranchTraceGenerator(real_payloads=True, average_chunk_size=32, **self.TRACE)

    @pytest.mark.parametrize("real_payloads", [False, True])
    def test_a_chunk_size_generate_cannot_draw_is_refused(self, real_payloads):
        """Chunks are drawn from [max(256, mean // 2), 2 * mean]: empty below 128."""
        trace = {**self.TRACE, "mean_chunk_size": 127, "real_payloads": real_payloads}
        with pytest.raises(ValueError, match="mean_chunk_size"):
            BranchTraceGenerator(**trace)
        BranchTraceGenerator(**{**trace, "mean_chunk_size": 128}).generate()


class TestTraceDigest:
    """Both trace modes pinned to digests of their whole streams.

    Each digest covers every object id and every chunk's fingerprint, size
    and payload bytes (descriptor chunks carry none), so any change in how
    :meth:`BranchTraceGenerator.generate` consumes its RNG, sizes a block or
    cuts a payload moves it.
    """

    TRACE = dict(
        num_branches=2,
        objects_per_branch=4,
        mean_object_size=32 * 1024,
        mean_chunk_size=4 * 1024,
        shared_fraction=0.3,
        local_redundancy=0.25,
        shared_pool_size=40,
    )

    DIGESTS = {
        (False, 7): (
            "88f020dcd057ef36fb8abf9a7171b6577aafd1da187b9907ffb4f97b7314566b"
        ),
        (False, 47): (
            "36ff0b6a37823a4b7ebab9ae9502f3b439ab14f909b4b0980fb028bd97703109"
        ),
        (True, 7): (
            "8ea2daf04ca309dafc96c1ded2e3dd2fd7c9c67abcee6b3ee6b919bd1cc5353a"
        ),
        (True, 47): (
            "ca87971dcc901619c56c62ce928483b808bdd0981248b2b1d8d315968f234ac8"
        ),
    }

    @staticmethod
    def stream_digest(streams) -> str:
        digest = hashlib.sha256()
        for stream in streams:
            digest.update(b"stream %d" % len(stream))
            for obj in stream:
                digest.update(b"object %d %d" % (obj.object_id, obj.num_chunks))
                for chunk in obj.chunks:
                    digest.update(chunk.fingerprint)
                    digest.update(b"%d" % chunk.size)
                    digest.update(b"-" if chunk.raw is None else bytes(chunk.raw))
        return digest.hexdigest()

    @pytest.mark.parametrize("real_payloads,seed", sorted(DIGESTS))
    def test_stream_digest(self, real_payloads, seed):
        streams = BranchTraceGenerator(
            real_payloads=real_payloads, seed=seed, **self.TRACE
        ).generate()
        assert self.stream_digest(streams) == self.DIGESTS[(real_payloads, seed)]
