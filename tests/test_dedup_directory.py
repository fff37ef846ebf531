"""Tests for the deduplication pipeline and the content-name directory."""

from dataclasses import replace

import pytest

from repro.baselines import DRAMHashIndex, ExternalHashIndex
from repro.core import CLAM, CLAMConfig
from repro.dedup import ChunkStore, DedupIndex, merge_indexes
from repro.dedup.merge import scale_merge_time
from repro.directory import ContentDirectory
from repro.directory.resolver import MAX_HOSTS_PER_NAME
from repro.flashsim import (
    INTEL_SSD_PROFILE,
    MAGNETIC_DISK_PROFILE,
    SSD,
    IOKind,
    MagneticDisk,
    SimulationClock,
)
from repro.flashsim.device import DeviceGeometry
from repro.wanopt.fingerprint import Chunk, fingerprint_bytes


def _chunks(count, prefix=b"chunk", size=4096):
    return [
        Chunk(fingerprint=fingerprint_bytes(b"%s-%d" % (prefix, i)), size=size)
        for i in range(count)
    ]


class TestChunkStore:
    def test_append_and_read(self):
        store = ChunkStore(MagneticDisk(clock=SimulationClock()))
        address, latency = store.append(size=1000, payload=b"z" * 1000)
        assert latency > 0
        payload, _read_latency = store.read(address)
        assert payload == b"z" * 1000

    def test_overwritten_chunk_is_forgotten_after_the_store_wraps(self):
        """Regression: the wrap to page 0 used to leave every overwritten
        address in the table, so reading one stitched two chunks together."""
        geometry = DeviceGeometry(page_size=512, pages_per_block=4, num_blocks=4)
        device = SSD(profile=replace(INTEL_SSD_PROFILE, geometry=geometry), clock=SimulationClock())
        store = ChunkStore(device)
        for expected, fill in zip((0, 4, 8), (b"a", b"b", b"c")):
            assert store.append(2048, fill * 2048)[0] == expected
        assert store.append(3072, b"d" * 3072)[0] == 0  # 12 + 6 > 16 pages: wraps
        assert store.read(0)[0] == b"d" * 3072
        assert store.read(8)[0] == b"c" * 2048  # not reached yet
        with pytest.raises(KeyError):
            store.read(4)  # b"dddd...bbbb" before: pages 4-5 are d's
        assert {store.append(2048)[0] for _ in range(40)} == {0, 4, 6, 8, 10, 12}
        for overwritten in (6, 10):  # what is readable is bounded by what the device holds
            with pytest.raises(KeyError):
                store.read(overwritten)
        for live in (0, 4, 8, 12):
            store.read(live)

    def test_oversize_chunk_is_refused_before_anything_is_forgotten(self):
        """Regression: a chunk larger than the device wrapped the head to 0,
        dropped every stored chunk and only then failed inside ``write_range``."""
        geometry = DeviceGeometry(page_size=512, pages_per_block=4, num_blocks=4)
        disk = MagneticDisk(replace(MAGNETIC_DISK_PROFILE, geometry=geometry), SimulationClock())
        store = ChunkStore(disk)
        assert store.append(1024, b"A" * 1024)[0] == 0
        assert store.append(1024, b"B" * 1024)[0] == 2
        with pytest.raises(ValueError, match="chunk larger than"):
            store.append(17 * 512, b"C" * (17 * 512))
        assert (store.unique_chunks, store.unique_bytes) == (2, 2048)
        assert store.read(0)[0] == b"A" * 1024
        assert store.read(2)[0] == b"B" * 1024
        assert store.append(512, b"D" * 512)[0] == 4  # where it would have landed anyway
        assert disk.stats.count(IOKind.WRITE) == 3

    def test_unknown_address_rejected(self):
        store = ChunkStore(MagneticDisk(clock=SimulationClock()))
        with pytest.raises(KeyError):
            store.read(12345)

    def test_dedup_ratio(self):
        store = ChunkStore(MagneticDisk(clock=SimulationClock()))
        store.append(size=1000)
        store.note_duplicate(size=3000)
        assert store.dedup_ratio == pytest.approx(4.0)


class TestDedupIndex:
    def test_duplicates_suppressed(self):
        clock = SimulationClock()
        clam = CLAM(CLAMConfig.scaled(num_super_tables=4, buffer_capacity_items=64), storage=SSD(clock=clock))
        dedup = DedupIndex(clam, store=ChunkStore(MagneticDisk(clock=clock)))
        chunks = _chunks(50)
        dedup.ingest(chunks)
        dedup.ingest(chunks)  # the second pass is 100% duplicates
        assert dedup.stats.chunks_stored == 50
        assert dedup.stats.duplicates_suppressed == 50
        assert dedup.stats.dedup_ratio == pytest.approx(2.0)

    def test_ingest_chunk_reports_duplicate_flag(self):
        dedup = DedupIndex(DRAMHashIndex())
        chunk = _chunks(1)[0]
        first, _ = dedup.ingest_chunk(chunk)
        second, _ = dedup.ingest_chunk(chunk)
        assert first is False
        assert second is True

    def test_contains(self):
        dedup = DedupIndex(DRAMHashIndex())
        chunk = _chunks(1)[0]
        assert not dedup.contains(chunk.fingerprint)
        dedup.ingest_chunk(chunk)
        assert dedup.contains(chunk.fingerprint)


class TestIndexMerge:
    def test_merge_adds_only_new_fingerprints(self):
        larger = DRAMHashIndex()
        shared = [(fingerprint_bytes(b"shared-%d" % i), b"addr") for i in range(20)]
        new = [(fingerprint_bytes(b"new-%d" % i), b"addr") for i in range(30)]
        for fingerprint, value in shared:
            larger.insert(fingerprint, value)
        report = merge_indexes(larger, shared + new)
        assert report.fingerprints_processed == 50
        assert report.already_present == 20
        assert report.new_fingerprints == 30
        assert report.total_time_ms > 0

    def test_clam_merge_much_faster_than_bdb_merge(self):
        """The §3 comparison: merging into a CLAM is orders of magnitude faster
        than merging into a disk-based BDB index."""
        entries = [(fingerprint_bytes(b"merge-%d" % i), b"addr") for i in range(400)]

        clam = CLAM(CLAMConfig.scaled(num_super_tables=4, buffer_capacity_items=64), storage="intel-ssd")
        clam_report = merge_indexes(clam, entries)

        bdb = ExternalHashIndex(MagneticDisk(clock=SimulationClock()), cache_pages=0)
        bdb_report = merge_indexes(bdb, entries)

        assert clam_report.total_time_ms * 20 < bdb_report.total_time_ms

    def test_scale_merge_time(self):
        larger = DRAMHashIndex()
        entries = [(fingerprint_bytes(b"x-%d" % i), b"v") for i in range(100)]
        report = merge_indexes(larger, entries)
        scaled = scale_merge_time(report, measured_fingerprints=100, target_fingerprints=10_000)
        assert scaled == pytest.approx(report.total_time_ms / 60_000 * 100, rel=0.01)
        with pytest.raises(ValueError):
            scale_merge_time(report, 0, 10)


class TestContentDirectory:
    def test_publish_and_resolve(self):
        directory = ContentDirectory(DRAMHashIndex())
        name = fingerprint_bytes(b"content-1")
        directory.publish(name, "host-a")
        directory.publish(name, "host-b")
        result = directory.resolve(name)
        assert result.found
        assert result.hosts == ["host-a", "host-b"]

    def test_duplicate_publish_is_idempotent(self):
        directory = ContentDirectory(DRAMHashIndex())
        name = fingerprint_bytes(b"content-2")
        directory.publish(name, "host-a")
        registration = directory.publish(name, "host-a")
        assert registration.hosts_now == 1

    def test_withdraw(self):
        directory = ContentDirectory(DRAMHashIndex())
        name = fingerprint_bytes(b"content-3")
        directory.publish(name, "host-a")
        directory.withdraw(name, "host-a")
        assert not directory.resolve(name).found

    def test_unknown_name_resolves_to_nothing(self):
        directory = ContentDirectory(DRAMHashIndex())
        assert not directory.resolve(fingerprint_bytes(b"unknown")).found

    def test_host_list_capped(self):
        directory = ContentDirectory(DRAMHashIndex())
        name = fingerprint_bytes(b"popular")
        for i in range(MAX_HOSTS_PER_NAME + 6):
            directory.publish(name, "host-%d" % i)
        hosts = directory.resolve(name).hosts
        assert hosts == ["host-%d" % i for i in range(6, MAX_HOSTS_PER_NAME + 6)]

    def test_works_on_clam_backend(self):
        directory = ContentDirectory(
            CLAM(CLAMConfig.scaled(num_super_tables=4, buffer_capacity_items=64), storage="intel-ssd")
        )
        names = [fingerprint_bytes(b"content-%d" % i) for i in range(200)]
        for i, name in enumerate(names):
            directory.publish(name, "host-%d" % (i % 5))
        found = sum(1 for name in names if directory.resolve(name).found)
        assert found == len(names)
        assert directory.publishes == 200
        assert directory.resolutions == 200
