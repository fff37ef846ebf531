"""Tests for the WAN optimizer: traces, cache, link, engine and end-to-end scenarios."""

from dataclasses import replace

import pytest

from repro.baselines import ExternalHashIndex
from repro.core import CLAM, CLAMConfig
from repro.flashsim import (
    MAGNETIC_DISK_PROFILE,
    MagneticDisk,
    SSD,
    SimulationClock,
    TRANSCEND_SSD_PROFILE,
)
from repro.flashsim.device import DeviceGeometry
from repro.wanopt import (
    CompressionEngine,
    ContentCache,
    Link,
    SyntheticTraceGenerator,
    WANOptimizer,
    build_payload_objects,
)


def _clam_optimizer(link_mbps=100.0, redundancy=0.5, num_objects=30, mean_object_size=64 * 1024):
    clock = SimulationClock()
    clam = CLAM(
        CLAMConfig.scaled(num_super_tables=8, buffer_capacity_items=64, incarnations_per_table=8),
        storage=SSD(profile=TRANSCEND_SSD_PROFILE, clock=clock),
    )
    cache = ContentCache(MagneticDisk(clock=clock))
    engine = CompressionEngine(index=clam, content_cache=cache)
    link = Link(bandwidth_mbps=link_mbps, clock=clock)
    objects = SyntheticTraceGenerator(
        redundancy=redundancy,
        num_objects=num_objects,
        mean_object_size=mean_object_size,
        mean_chunk_size=8 * 1024,
        seed=13,
    ).generate()
    return WANOptimizer(engine=engine, link=link, clock=clock), objects


class TestSyntheticTraces:
    def test_measured_redundancy_close_to_target(self):
        generator = SyntheticTraceGenerator(redundancy=0.5, num_objects=60, seed=3)
        objects = generator.generate()
        assert generator.measured_redundancy(objects) == pytest.approx(0.5, abs=0.08)

    def test_low_redundancy_trace(self):
        generator = SyntheticTraceGenerator(redundancy=0.15, num_objects=60, seed=4)
        objects = generator.generate()
        assert generator.measured_redundancy(objects) == pytest.approx(0.15, abs=0.06)

    def test_objects_have_positive_sizes(self):
        objects = SyntheticTraceGenerator(num_objects=10, seed=5).generate()
        assert all(obj.size_bytes > 0 and obj.num_chunks > 0 for obj in objects)

    def test_deterministic_given_seed(self):
        first = SyntheticTraceGenerator(num_objects=5, seed=6).generate()
        second = SyntheticTraceGenerator(num_objects=5, seed=6).generate()
        assert [o.chunks for o in first] == [o.chunks for o in second]

    def test_repeated_calls_return_the_same_trace(self):
        generator = SyntheticTraceGenerator(num_objects=5, seed=3)
        first = generator.generate()
        assert first[0].size_bytes == 256_601
        assert [o.chunks for o in generator.generate()] == [o.chunks for o in first]
        # With no argument the generator measures the trace callers get.
        assert generator.measured_redundancy() == generator.measured_redundancy(
            generator.generate()
        )

    @pytest.mark.parametrize("size", [0, 1, 3])
    def test_an_object_size_generate_cannot_draw_is_refused(self, size):
        with pytest.raises(ValueError, match="mean_object_size"):
            SyntheticTraceGenerator(mean_object_size=size)

    @pytest.mark.parametrize("size", [0, 1, 127])
    def test_a_chunk_size_generate_cannot_draw_is_refused(self, size):
        with pytest.raises(ValueError, match="mean_chunk_size"):
            SyntheticTraceGenerator(mean_chunk_size=size)

    def test_the_smallest_accepted_sizes_generate(self):
        generator = SyntheticTraceGenerator(num_objects=3, mean_object_size=4, mean_chunk_size=128)
        assert all(obj.num_chunks > 0 for obj in generator.generate())

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SyntheticTraceGenerator(redundancy=1.0)
        with pytest.raises(ValueError):
            SyntheticTraceGenerator(num_objects=0)

    def test_payload_objects_chunked_by_rabin(self):
        objects = build_payload_objects(num_objects=3, object_size=16 * 1024, redundancy=0.5)
        assert len(objects) == 3
        for obj in objects:
            assert obj.size_bytes == sum(chunk.size for chunk in obj.chunks)
            assert all(chunk.payload is not None for chunk in obj.chunks)


class TestContentCache:
    def test_store_and_read_back(self):
        cache = ContentCache(MagneticDisk(clock=SimulationClock()))
        address, latency = cache.store(b"fp-1", size=5000, payload=b"x" * 5000)
        assert latency > 0
        assert cache.contains(b"fp-1")
        payload, _read_latency = cache.read(b"fp-1")
        assert payload == b"x" * 5000
        assert cache.address_of(b"fp-1") == address

    def test_missing_chunk(self):
        cache = ContentCache(MagneticDisk(clock=SimulationClock()))
        payload, latency = cache.read(b"absent")
        assert payload is None
        assert latency == 0.0

    def test_wraps_when_full(self):
        cache = ContentCache(MagneticDisk(clock=SimulationClock()))
        chunk_size = cache.capacity_bytes // 4
        for i in range(10):
            cache.store(b"fp-%d" % i, size=chunk_size)
        assert cache.chunks_stored == 10

    def test_overwritten_chunks_leave_the_directory(self):
        geometry = DeviceGeometry(page_size=512, pages_per_block=4, num_blocks=4)
        disk = MagneticDisk(replace(MAGNETIC_DISK_PROFILE, geometry=geometry), SimulationClock())
        cache = ContentCache(disk)
        for name in (b"A", b"B", b"C", b"D", b"E"):  # E wraps onto A's four pages
            cache.store(name, size=2048, payload=name.lower() * 2048)
        assert not cache.contains(b"A")
        assert cache.read(b"A") == (None, 0.0)
        assert cache.address_of(b"A") is None
        assert cache.read(b"E")[0] == b"e" * 2048
        assert cache.read(b"B")[0] == b"b" * 2048
        # A shorter chunk landing on part of B's pages drops B too, and a
        # fingerprint stored twice is listed once: the directory never
        # outgrows what the device holds.
        cache.store(b"F", size=512, payload=b"f" * 512)
        cache.store(b"F", size=512, payload=b"f" * 512)
        assert not cache.contains(b"B")
        assert cache.address_of(b"F") == 5
        held = [name for name in (b"A", b"B", b"C", b"D", b"E", b"F") if cache.contains(name)]
        assert held == [b"C", b"D", b"E", b"F"]
        assert [cache.address_of(name) for name in held] == [8, 12, 0, 5]
        assert cache.read(b"F")[0] == b"f" * 512


class TestLink:
    def test_serialization_delay(self):
        link = Link(bandwidth_mbps=10.0, clock=SimulationClock())
        # 10 Mbps = 10,000 bits per ms -> 1250 bytes per ms.
        assert link.serialization_delay_ms(1250) == pytest.approx(1.0)

    def test_transmit_advances_clock(self):
        clock = SimulationClock()
        link = Link(bandwidth_mbps=10.0, clock=clock)
        link.transmit(12_500)
        assert clock.now_ms == pytest.approx(10.0)
        assert link.bytes_sent == 12_500

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Link(bandwidth_mbps=0, clock=SimulationClock())


class TestCompressionEngine:
    def test_duplicate_chunks_are_compressed_away(self):
        clock = SimulationClock()
        clam = CLAM(
            CLAMConfig.scaled(num_super_tables=4, buffer_capacity_items=64),
            storage=SSD(clock=clock),
        )
        engine = CompressionEngine(index=clam)
        objects = SyntheticTraceGenerator(redundancy=0.5, num_objects=40, seed=21).generate()
        for obj in objects:
            engine.process_object_batched(obj)
        assert engine.total_compressed_bytes < engine.total_original_bytes
        # With ~50% redundant bytes the overall ratio should approach 2.
        assert engine.overall_compression_ratio == pytest.approx(2.0, rel=0.25)

    def test_first_sight_of_chunk_is_not_compressed(self):
        clock = SimulationClock()
        clam = CLAM(CLAMConfig.scaled(), storage=SSD(clock=clock))
        engine = CompressionEngine(index=clam)
        objects = SyntheticTraceGenerator(redundancy=0.0, num_objects=5, seed=22).generate()
        for obj in objects:
            result = engine.process_object_batched(obj)
            assert result.chunks_matched == 0
            assert result.compressed_bytes == result.original_bytes

    def test_timing_breakdown_populated(self):
        clock = SimulationClock()
        clam = CLAM(CLAMConfig.scaled(), storage=SSD(clock=clock))
        cache = ContentCache(MagneticDisk(clock=clock))
        engine = CompressionEngine(index=clam, content_cache=cache)
        obj = SyntheticTraceGenerator(redundancy=0.0, num_objects=1, seed=23).generate()[0]
        result = engine.process_object_batched(obj)
        assert result.lookup_time_ms > 0
        assert result.insert_time_ms > 0
        assert result.cache_write_time_ms > 0
        assert result.processing_time_ms >= result.lookup_time_ms


class TestWANOptimizerScenarios:
    def test_throughput_test_near_ideal_at_low_link_speed(self):
        optimizer, objects = _clam_optimizer(link_mbps=10.0, redundancy=0.5)
        result = optimizer.run_throughput_test(objects)
        assert result.effective_bandwidth_improvement == pytest.approx(
            result.ideal_improvement, rel=0.2
        )
        assert result.effective_bandwidth_improvement > 1.5

    def test_throughput_improvement_shrinks_at_very_high_link_speed(self):
        slow_link, objects = _clam_optimizer(link_mbps=10.0, redundancy=0.5, num_objects=20)
        fast_link, objects_fast = _clam_optimizer(link_mbps=2000.0, redundancy=0.5, num_objects=20)
        slow_result = slow_link.run_throughput_test(objects)
        fast_result = fast_link.run_throughput_test(objects_fast)
        assert (
            fast_result.effective_bandwidth_improvement
            < slow_result.effective_bandwidth_improvement
        )

    def test_clam_outperforms_bdb_at_moderate_link_speed(self):
        """The Figure 9 headline: at ~100 Mbps a CLAM-backed optimizer still
        improves effective bandwidth while a BDB-backed one becomes the
        bottleneck."""
        clam_optimizer, objects = _clam_optimizer(link_mbps=100.0, redundancy=0.5, num_objects=25)
        clam_result = clam_optimizer.run_throughput_test(objects)

        clock = SimulationClock()
        bdb = ExternalHashIndex(SSD(profile=TRANSCEND_SSD_PROFILE, clock=clock), cache_pages=0)
        cache = ContentCache(MagneticDisk(clock=clock))
        engine = CompressionEngine(index=bdb, content_cache=cache)
        link = Link(bandwidth_mbps=100.0, clock=clock)
        bdb_optimizer = WANOptimizer(engine=engine, link=link, clock=clock)
        bdb_objects = SyntheticTraceGenerator(
            redundancy=0.5,
            num_objects=25,
            mean_object_size=64 * 1024,
            mean_chunk_size=8 * 1024,
            seed=13,
        ).generate()
        bdb_result = bdb_optimizer.run_throughput_test(bdb_objects)

        assert (
            clam_result.effective_bandwidth_improvement
            > bdb_result.effective_bandwidth_improvement
        )
        assert clam_result.effective_bandwidth_improvement > 1.2
        assert bdb_result.effective_bandwidth_improvement < 1.0

    def test_high_load_scenario_produces_per_object_improvements(self):
        optimizer, objects = _clam_optimizer(link_mbps=10.0, redundancy=0.5, num_objects=20)
        result = optimizer.run_high_load_test(objects)
        assert len(result.objects) == 20
        assert result.mean_throughput_improvement > 1.0
        assert all(obj.completion_ms >= obj.arrival_ms for obj in result.objects)

    def test_mismatched_clock_rejected(self):
        clock_a, clock_b = SimulationClock(), SimulationClock()
        clam = CLAM(CLAMConfig.scaled(), storage=SSD(clock=clock_a))
        engine = CompressionEngine(index=clam)
        link = Link(bandwidth_mbps=10.0, clock=clock_b)
        with pytest.raises(ValueError):
            WANOptimizer(engine=engine, link=link, clock=clock_a)
