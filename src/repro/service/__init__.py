"""Sharded CLAM service layer: routing, batching, clustering, traffic.

This package turns the single-node CLAM data structure into a simulated
key-value *service*: a consistent-hash router places keys on N independent
CLAM shards (each with its own simulated device and clock), a batch executor
amortises dispatch overhead across per-shard sub-batches, a cluster facade
exposes the whole fleet through the familiar single-index interface, and a
closed-loop traffic simulator drives it with M skewed clients.

With ``replication_factor=N`` the cluster survives shard failures: writes
fan out to each key's N-shard preference list, reads fail over (with
read-repair) to surviving replicas, and :meth:`KeyMigrator.recover`
re-replicates a dead shard's key ranges onto the survivors as the same kind
of migration that moves arcs for a scale-out or scale-in, reported in the same
:class:`MigrationReport`.
The cluster also scales *online*: a :class:`KeyMigrator` — the only code
that changes membership — streams the exact key-range arcs a membership change
moves (:func:`changed_arcs`) while traffic continues (double-read during the
move, atomic per-arc cut-over), and an :class:`AutoscalePolicy` can start
those migrations from each shard's live operation counts.
Faults are injected deterministically at the device layer
(:mod:`repro.flashsim.faults`), either directly or on a request-count
schedule (:class:`FailureEvent`) inside the traffic simulator.

Quick start::

    from repro.service import ClusterService, TrafficSimulator, TrafficSpec

    cluster = ClusterService(num_shards=4, storage="intel-ssd")
    cluster.insert(b"fingerprint-1", b"chunk-address-1")
    assert cluster.lookup(b"fingerprint-1").found

    simulator = TrafficSimulator(cluster, TrafficSpec(num_clients=8, zipf_skew=1.2))
    simulator.warmup()
    report = simulator.run()
    print(report.throughput_ops_per_second, report.hot_shards)

Because :class:`ClusterService` satisfies the same structural
:class:`~repro.workloads.runner.HashIndex` protocol as a single
:class:`~repro.core.clam.CLAM`, every existing driver — the workload runner,
benchmarks and examples — can operate a cluster unchanged.
"""

from repro.service.batch import (
    DEFAULT_DISPATCH_OVERHEAD_MS,
    DEFAULT_ROUTING_COST_MS,
    BatchExecutor,
    BatchResult,
    ShardBatchStats,
)
from repro.service.chaos import CHAOS_FAULTS, ChaosSchedule, ChaosTransport, derive_seed
from repro.service.cluster import ClusterService, ClusterStats, ParallelClusterService
from repro.service.parallel import RemoteShard, WorkerProcesses
from repro.service.rebalance import (
    ArcState,
    AutoscaleConfig,
    AutoscaleDecision,
    AutoscalePolicy,
    KeyMigrator,
    MigrationArc,
    MigrationReport,
    MigrationState,
    changed_arcs,
)
from repro.service.router import RING_SPACE, ShardRouter
from repro.service.shard import LocalShard
from repro.service.simulator import (
    ClientReport,
    FailureEvent,
    TrafficReport,
    TrafficSimulator,
    TrafficSpec,
)

__all__ = [
    "BatchExecutor",
    "BatchResult",
    "ShardBatchStats",
    "DEFAULT_DISPATCH_OVERHEAD_MS",
    "DEFAULT_ROUTING_COST_MS",
    "ClusterService",
    "ClusterStats",
    "ParallelClusterService",
    "LocalShard",
    "RemoteShard",
    "WorkerProcesses",
    "CHAOS_FAULTS",
    "ChaosSchedule",
    "ChaosTransport",
    "derive_seed",
    "ShardRouter",
    "RING_SPACE",
    "TrafficSimulator",
    "TrafficSpec",
    "TrafficReport",
    "ClientReport",
    "FailureEvent",
    "KeyMigrator",
    "MigrationState",
    "MigrationArc",
    "MigrationReport",
    "ArcState",
    "changed_arcs",
    "AutoscalePolicy",
    "AutoscaleConfig",
    "AutoscaleDecision",
]
