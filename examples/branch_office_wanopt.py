#!/usr/bin/env python3
"""Branch offices sharing one replicated fingerprint index across the WAN.

Run with::

    python examples/branch_office_wanopt.py

Composes the two halves of the codebase: the §8 WAN optimizer (chunking,
fingerprint dedup, content cache, link model) on top of the sharded,
replicated CLAM service layer.  Three branch offices upload traffic with
overlapping content; each branch's compression engine reaches the shared
data-center :class:`~repro.service.cluster.ClusterService` with one batched
round trip per object, so a chunk uploaded by one branch is a reference for
every other branch.  Mid-run a shard is crash-stopped: requests fail over
along the preference lists (availability stays 1.0 at RF=2), a scheduled
recovery (a ``KeyMigrator`` migration the topology runs to completion when
the event fires) re-replicates the dead shard's keys, and the far side
verifies every object reassembles byte-exactly.
"""

from __future__ import annotations

from repro.core import CLAMConfig
from repro.service import FailureEvent
from repro.wanopt import (
    BranchTraceGenerator,
    MultiBranchThroughputTest,
    MultiBranchTopology,
)


def config() -> CLAMConfig:
    return CLAMConfig.scaled(
        num_super_tables=16, buffer_capacity_items=128, incarnations_per_table=8
    )


def main() -> None:
    print("=== Multi-branch WAN optimization over a replicated cluster ===")
    streams = BranchTraceGenerator(
        num_branches=3,
        objects_per_branch=12,
        mean_object_size=192 * 1024,
        shared_fraction=0.3,
        local_redundancy=0.2,
        shared_pool_size=300,
        seed=7,
    ).generate()
    topology = MultiBranchTopology(
        num_branches=3,
        link_mbps=100.0,
        num_shards=4,
        replication_factor=2,
        config=config(),
    )
    schedule = [
        FailureEvent(at_request=12, action="fail", shard_id="shard-2"),
        FailureEvent(at_request=28, action="recover"),
    ]
    print("3 branches -> 4 shards at RF=2; crash shard-2 at object 12, recover at 28\n")
    result = MultiBranchThroughputTest(topology).run(streams, schedule=schedule)

    for branch in result.branches:
        print(
            f"{branch.branch_id}: improvement {branch.effective_bandwidth_improvement:.2f}x, "
            f"dedup hit rate {branch.dedup_hit_rate:.2%} "
            f"({branch.cross_branch_matched} chunks matched from other branches)"
        )
    print()
    print(f"aggregate bandwidth improvement: {result.aggregate_bandwidth_improvement:.2f}x")
    print(
        f"fleet dedup hit rate: {result.dedup_hit_rate:.2%} "
        f"(cross-branch share: {result.cross_branch_hit_rate:.2%})"
    )
    print(
        f"availability through the crash: {result.availability:.3f} "
        f"({result.objects_pass_through} objects degraded to pass-through)"
    )
    print(
        f"reconstruction: {result.objects_reconstructed_exactly}/{result.objects_total} "
        f"objects byte-exact, {result.chunks_lost} chunks lost"
    )
    report = result.recovery_reports[0]
    print(
        f"recovery: removed {report.subject}, re-replicated "
        f"{report.keys_re_replicated} keys ({report.keys_lost} lost)"
    )
    health = topology.cluster.stats.health()
    print(f"cluster health after the run: live={health['live_shards']}")


if __name__ == "__main__":
    main()
