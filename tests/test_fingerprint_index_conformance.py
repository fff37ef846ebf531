"""Conformance suite for the :class:`repro.wanopt.engine.FingerprintIndex` protocol.

The compression engine accepts *anything* satisfying the protocol — a single
CLAM, the BDB-style external hash baseline, or a sharded, replicated
:class:`~repro.service.cluster.ClusterService`.  The protocol is the two
batched calls the engine makes; these tests hold every implementation to
them, and to agreement with the single-operation ``lookup``/``insert`` all of
them also offer:

* structural conformance (``isinstance`` against the runtime-checkable
  protocol);
* lookup/insert round trips with value fidelity;
* batched results equal to sequential calls, in submission order, for both
  the loop fallbacks (CLAM, BDB) and the cluster's true shard fanout.
"""

from __future__ import annotations

import pytest

from repro.baselines import ExternalHashIndex
from repro.core import CLAM, CLAMConfig
from repro.flashsim import SSD, SimulationClock
from repro.service import ClusterService
from repro.wanopt import FingerprintIndex
from repro.workloads.keygen import fingerprint_for

IMPLEMENTATIONS = ("clam", "bdb", "cluster", "replicated-cluster")


def build_index(kind: str) -> FingerprintIndex:
    config = CLAMConfig.scaled(num_super_tables=4, buffer_capacity_items=64)
    if kind == "clam":
        return CLAM(config, storage=SSD(clock=SimulationClock()))
    if kind == "bdb":
        return ExternalHashIndex(SSD(clock=SimulationClock()))
    if kind == "cluster":
        return ClusterService(num_shards=3, config=config)
    if kind == "replicated-cluster":
        return ClusterService(num_shards=3, config=config, replication_factor=2)
    raise AssertionError(kind)


@pytest.fixture(params=IMPLEMENTATIONS)
def index(request) -> FingerprintIndex:
    return build_index(request.param)


def keys_for(count: int, *, start: int = 0) -> list:
    return [
        fingerprint_for(identifier, namespace=b"conformance")
        for identifier in range(start, start + count)
    ]


class TestProtocolConformance:
    def test_satisfies_runtime_checkable_protocol(self, index):
        assert isinstance(index, FingerprintIndex)

    def test_insert_then_lookup_round_trip(self, index):
        key = keys_for(1)[0]
        assert not index.lookup(key).found
        index.insert(key, b"addr-0001")
        result = index.lookup(key)
        assert result.found
        assert result.value == b"addr-0001"

    def test_insert_batch_then_lookup_batch(self, index):
        keys = keys_for(24)
        values = [b"value-%03d" % i for i in range(len(keys))]
        insert_results = index.insert_batch(list(zip(keys, values)))
        assert len(insert_results) == len(keys)
        lookup_results = index.lookup_batch(keys)
        assert len(lookup_results) == len(keys)
        # Submission order is preserved and every value survives verbatim.
        for value, result in zip(values, lookup_results):
            assert result.found
            assert result.value == value

    def test_lookup_batch_misses_report_not_found(self, index):
        present = keys_for(4)
        absent = keys_for(4, start=1_000)
        index.insert_batch([(key, b"v") for key in present])
        results = index.lookup_batch(present + absent)
        assert [r.found for r in results] == [True] * 4 + [False] * 4


@pytest.mark.parametrize("kind", IMPLEMENTATIONS)
def test_batched_results_match_sequential(kind):
    """Batch found/value outcomes must be exactly the sequential ones."""
    batched = build_index(kind)
    sequential = build_index(kind)
    keys = keys_for(32)
    items = [(key, b"payload-%02d" % i) for i, key in enumerate(keys)]

    for key, value in items:
        sequential.insert(key, value)
    batched.insert_batch(items)

    probe = keys + keys_for(8, start=500)
    sequential_results = [sequential.lookup(key) for key in probe]
    batched_results = batched.lookup_batch(probe)
    assert [r.found for r in batched_results] == [r.found for r in sequential_results]
    assert [r.value for r in batched_results] == [r.value for r in sequential_results]


def test_cluster_batches_fan_out_across_shards():
    """The cluster implementation must really shard the batch, not loop."""
    cluster = build_index("cluster")
    keys = keys_for(64)
    cluster.insert_batch([(key, b"v") for key in keys])
    assert cluster.last_batch is not None
    assert cluster.last_batch.shards_touched > 1
    # Makespan across parallel shards is below the serial sum of latencies.
    serial_ms = sum(stats.total_ms for stats in cluster.last_batch.per_shard.values())
    assert cluster.last_batch.makespan_ms <= serial_ms
