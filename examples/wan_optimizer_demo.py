#!/usr/bin/env python3
"""WAN optimizer demo (§8 of the paper).

Builds a WAN optimizer whose fingerprint index is a CLAM on a Transcend-like
SSD, replays a synthetic trace with ~50 % redundant bytes through it at
several link speeds, and compares against the same optimizer built on a
Berkeley-DB-style index.  Also shows the full real-payload path (Rabin
chunking + SHA-1 fingerprints) on a small object set.

Run with::

    python examples/wan_optimizer_demo.py
"""

from __future__ import annotations

from repro.baselines import ExternalHashIndex
from repro.core import CLAM, CLAMConfig
from repro.flashsim import MagneticDisk, SSD, SimulationClock, TRANSCEND_SSD_PROFILE
from repro.wanopt import (
    CompressionEngine,
    ContentCache,
    Link,
    SyntheticTraceGenerator,
    WANOptimizer,
    build_payload_objects,
)


def _make_optimizer(index_kind: str, link_mbps: float):
    clock = SimulationClock()
    ssd = SSD(profile=TRANSCEND_SSD_PROFILE, clock=clock)
    if index_kind == "clam":
        config = CLAMConfig.scaled(
            num_super_tables=16, buffer_capacity_items=128, incarnations_per_table=8
        )
        index = CLAM(config, storage=ssd)
    else:
        index = ExternalHashIndex(ssd, cache_pages=32)
    engine = CompressionEngine(index=index, content_cache=ContentCache(MagneticDisk(clock=clock)))
    link = Link(bandwidth_mbps=link_mbps, clock=clock)
    return WANOptimizer(engine=engine, link=link, clock=clock)


def throughput_sweep() -> None:
    """Effective-bandwidth improvement vs link speed (Figure 9's shape)."""
    print("=== Effective bandwidth improvement (50% redundant trace) ===")
    objects = SyntheticTraceGenerator(
        redundancy=0.5, num_objects=25, mean_object_size=128 * 1024, seed=3
    ).generate()
    print(f"{'link (Mbps)':>12} {'CLAM index':>12} {'BDB index':>12} {'ideal':>8}")
    for link_mbps in (10, 100, 200, 400):
        clam_result = _make_optimizer("clam", link_mbps).run_throughput_test(objects)
        bdb_result = _make_optimizer("bdb", link_mbps).run_throughput_test(objects)
        print(
            f"{link_mbps:>12} "
            f"{clam_result.effective_bandwidth_improvement:>12.2f} "
            f"{bdb_result.effective_bandwidth_improvement:>12.2f} "
            f"{clam_result.ideal_improvement:>8.2f}"
        )
    print()


def real_payload_pipeline() -> None:
    """Run real bytes through Rabin chunking, SHA-1 and the full pipeline."""
    print("=== Real-payload pipeline (Rabin chunking + SHA-1) ===")
    objects = build_payload_objects(
        num_objects=4, object_size=48 * 1024, redundancy=0.5, average_chunk_size=4096, seed=11
    )
    clock = SimulationClock()
    clam = CLAM(CLAMConfig.scaled(), storage=SSD(clock=clock))
    engine = CompressionEngine(index=clam, content_cache=ContentCache(MagneticDisk(clock=clock)))
    for obj in objects:
        result = engine.process_object_batched(obj)
        print(
            f"object {obj.object_id}: "
            f"{result.original_bytes:>6} B -> {result.compressed_bytes:>6} B "
            f"({result.chunks_matched}/{result.chunks_total} chunks matched, "
            f"processing {result.processing_time_ms:.2f} ms)"
        )
    print(f"overall compression ratio: {engine.overall_compression_ratio:.2f}x")
    print()


def high_load_per_object() -> None:
    """Per-object throughput improvement under heavy load (Figure 10's shape)."""
    print("=== Per-object improvement under heavy load (10 Mbps link) ===")
    objects = SyntheticTraceGenerator(
        redundancy=0.5, num_objects=15, mean_object_size=256 * 1024, seed=5
    ).generate()
    optimizer = _make_optimizer("clam", link_mbps=10.0)
    result = optimizer.run_high_load_test(objects)
    for obj in result.objects[:8]:
        print(
            f"object {obj.object_id}: {obj.size_bytes // 1024:>5} KB, "
            f"improvement {obj.throughput_improvement:.2f}x"
        )
    print(f"mean improvement: {result.mean_throughput_improvement:.2f}x")


if __name__ == "__main__":
    throughput_sweep()
    real_payload_pipeline()
    high_load_per_object()
