"""End-to-end guarantees of the hash-once KeyDigest pipeline.

Three claims, each enforced here:

1. **Equivalence** — with ``use_hash_once`` on or off, every operation
   returns identical results and drives the simulated devices identically
   (same flushes, incarnations, latencies).  The digest pipeline is a pure
   performance change.
2. **Hash-once** — one operation builds at most one digest and traverses the
   key bytes at most once, for every layer together; probing several
   incarnations reuses the Bloom/page hashes that the legacy path recomputed
   per incarnation.
3. **Service reuse** — a digest built for consistent-hash routing is the
   digest the owning CLAM uses, end to end through the batch executor.
4. **Process boundary** — a shard worker resolves the keys it decodes from
   the wire through its own digest cache, so a key is hashed once per
   residency there, not once per operation received.
5. **Memory shape** — a fully warmed digest owns no ``dict`` and no ``list``.
"""

from __future__ import annotations

import gc
import struct

import pytest

from repro.core import CLAM, CLAMConfig
from repro.core.hashing import (
    CLAM_SEEDS,
    RING_SEED,
    KeyDigest,
    as_digest,
    clam_words,
    clear_digest_cache,
    count_hash_calls,
    digest_cache_info,
    fnv1a_64,
    set_digest_cache_capacity,
)
from repro.service import ClusterService, wire
from repro.service.shard import apply_batch
from repro.workloads.workload import Operation, OpKind


def _config(hash_once: bool, **overrides) -> CLAMConfig:
    return CLAMConfig.scaled(
        num_super_tables=4,
        buffer_capacity_items=32,
        incarnations_per_table=4,
        use_hash_once=hash_once,
        **overrides,
    )


def _drive(clam: CLAM, operations):
    results = []
    for kind, key in operations:
        if kind == "insert":
            results.append(clam.insert(key, b"value-of-%r" % key))
        elif kind == "lookup":
            results.append(clam.lookup(key))
        else:
            results.append(clam.delete(key))
    return results


def _mixed_workload():
    operations = []
    for i in range(600):
        operations.append(("insert", b"wk-%04d" % (i % 250)))
        if i % 3 == 0:
            operations.append(("lookup", b"wk-%04d" % ((i * 7) % 250)))
        if i % 11 == 0:
            operations.append(("delete", b"wk-%04d" % ((i * 5) % 250)))
        if i % 17 == 0:
            operations.append(("lookup", b"absent-%04d" % i))
    return operations


class TestEquivalence:
    @pytest.mark.parametrize("bit_slicing", [True, False])
    def test_hash_once_and_legacy_paths_behave_identically(self, bit_slicing):
        clear_digest_cache()
        fast = CLAM(_config(True, use_bit_slicing=bit_slicing), storage="intel-ssd")
        slow = CLAM(_config(False, use_bit_slicing=bit_slicing), storage="intel-ssd")
        workload = _mixed_workload()
        for fast_result, slow_result in zip(_drive(fast, workload), _drive(slow, workload)):
            assert type(fast_result) is type(slow_result)
            assert fast_result.key == slow_result.key
            assert getattr(fast_result, "value", None) == getattr(slow_result, "value", None)
            assert fast_result.latency_ms == slow_result.latency_ms
        assert fast.bufferhash.total_flushes == slow.bufferhash.total_flushes
        assert fast.bufferhash.total_incarnations == slow.bufferhash.total_incarnations
        assert fast.clock.now_ms == slow.clock.now_ms
        assert fast.bufferhash.snapshot_items() == slow.bufferhash.snapshot_items()

    def test_legacy_mode_builds_no_digests(self):
        """The ablation must be pure: with ``use_hash_once=False`` nothing in
        the stack (including flush-time page placement) touches the digest
        machinery or the global digest cache."""
        from repro.core.hashing import digest_cache_info

        clear_digest_cache()
        clam = CLAM(_config(False), storage="intel-ssd")
        with count_hash_calls() as log:
            for i in range(300):  # enough to force flushes
                clam.insert(b"pure-%04d" % i, b"v")
            for i in range(300):
                clam.lookup(b"pure-%04d" % i)
        assert clam.bufferhash.total_flushes > 0
        assert log.digest_builds == 0
        assert digest_cache_info()["size"] == 0

    def test_mixed_key_types_roundtrip_through_digests(self):
        clam = CLAM(_config(True), storage="intel-ssd")
        clam.insert("string-key", b"sv")
        clam.insert(12345, b"iv")
        clam.insert(memoryview(b"mv-key"), b"mv")
        assert clam.get(b"string-key") == b"sv"  # str and bytes share one space
        assert clam.get(12345) == b"iv"
        assert clam.get(b"mv-key") == b"mv"


class TestHashOnceCounting:
    """The headline claim: per-operation key-hash invocations drop to one."""

    def _flash_resident_clam(self, hash_once: bool, bit_slicing: bool) -> CLAM:
        clam = CLAM(
            _config(hash_once, use_bit_slicing=bit_slicing),
            storage="intel-ssd",
            keep_latency_samples=False,
        )
        for i in range(800):  # enough to fill several incarnations per table
            clam.insert(b"cnt-%04d" % i, b"v")
        return clam

    @staticmethod
    def _flash_served_key(clam: CLAM) -> bytes:
        from repro.core.results import ServedFrom

        for i in reversed(range(800)):
            key = b"cnt-%04d" % i
            if clam.lookup(key).served_from is ServedFrom.INCARNATION:
                return key
        raise AssertionError("no flash-resident key found")

    def test_lookup_hashes_each_layer_at_most_once(self):
        clam = self._flash_resident_clam(hash_once=True, bit_slicing=True)
        probe = self._flash_served_key(clam)
        clear_digest_cache()
        with count_hash_calls() as log:
            result = clam.lookup(probe)
        assert result.value == b"v"
        assert log.digest_builds == 1  # the key bytes enter the pipeline once
        assert log.by_layer() == {"clam_words": 1}  # and are walked once, for every layer

    def test_cached_key_is_never_rehashed(self):
        clam = self._flash_resident_clam(hash_once=True, bit_slicing=True)
        probe = b"cnt-0042"
        clam.lookup(probe)  # populate the digest cache
        with count_hash_calls() as log:
            clam.lookup(probe)
            clam.insert(probe, b"v2")
        assert log.total == 0
        assert log.digest_builds == 0

    def test_legacy_path_rehashes_bloom_per_incarnation(self):
        """Without bit slicing, the legacy path pays two Bloom passes per
        incarnation probed; the digest path walks the key once for every
        word, the two Bloom base hashes included."""
        legacy = self._flash_resident_clam(hash_once=False, bit_slicing=False)
        digest = self._flash_resident_clam(hash_once=True, bit_slicing=False)
        probe = b"cnt-0042"
        table = legacy.bufferhash.table_for(probe)
        assert table.incarnation_count > 1  # the probe sees several filters

        with count_hash_calls() as legacy_log:
            legacy.lookup(probe)
        clear_digest_cache()
        with count_hash_calls() as digest_log:
            digest.lookup(probe)

        legacy_layers = legacy_log.by_layer()
        digest_layers = digest_log.by_layer()
        assert legacy_layers["bloom_h1"] > 1  # one pass per incarnation's filter
        assert legacy_layers["bloom_h2"] == legacy_layers["bloom_h1"]
        assert digest_layers == {"clam_words": 1}
        assert digest_log.total == digest_log.digest_builds == 1


class TestServiceReuse:
    def test_routing_digest_reaches_the_shard(self):
        """The batch executor routes and executes with one digest per key."""
        cluster = ClusterService(num_shards=3, config=_config(True), storage="dram")
        keys = [b"svc-%03d" % i for i in range(60)]
        cluster.execute_batch([Operation(OpKind.INSERT, key, b"v") for key in keys])
        clear_digest_cache()
        with count_hash_calls() as log:
            batch = cluster.execute_batch([Operation(OpKind.LOOKUP, key) for key in keys])
        assert all(result.found for result in batch.results)
        assert log.digest_builds == len(keys)
        # Ring + shard layers each hashed every key at most once.
        for layer, count in log.by_layer().items():
            assert count <= len(keys), f"{layer} hashed {count}x for {len(keys)} keys"

    def test_single_op_dispatch_matches_batch_results(self):
        sequential = ClusterService(num_shards=2, config=_config(True), storage="dram")
        batched = ClusterService(num_shards=2, config=_config(True), storage="dram")
        keys = [b"one-%03d" % i for i in range(40)]
        for key in keys:
            sequential.insert(key, b"v")
        batched.execute_batch([Operation(OpKind.INSERT, key, b"v") for key in keys])
        for key in keys:
            assert sequential.get(key) == batched.get(key) == b"v"


class TestProcessBoundary:
    """What a shard worker does with a batch frame: ``decode_batch_request``
    then ``apply_batch`` (``repro.service.parallel._handle_batch``)."""

    def setup_method(self):
        clear_digest_cache()

    def teardown_method(self):
        clear_digest_cache()
        set_digest_cache_capacity(1 << 16)

    @staticmethod
    def _worker_clam() -> CLAM:
        clam = CLAM(_config(True), storage="intel-ssd", keep_latency_samples=False)
        for i in range(800):  # several incarnations per table
            clam.insert(b"wrk-%04d" % i, b"v")
        return clam

    @staticmethod
    def _serve(clam: CLAM, frame: bytes):
        advance_ms, operations = wire.decode_batch_request(frame)
        results, error_code, _message, _busy_ms = apply_batch(clam, advance_ms, operations)
        assert error_code == wire.ERR_NONE
        return [(result.key, result.value, result.served_from) for result in results]

    @staticmethod
    def _frame(keys) -> bytes:
        """A lookup frame as a routing parent sends it: the parent's digests
        carry a ring word and nothing else."""
        digests = [KeyDigest(key) for key in keys]
        for digest in digests:
            digest.digest(RING_SEED)
        return wire.encode_batch_request(0.0, [(OpKind.LOOKUP, d, b"") for d in digests])

    def test_repeated_frame_is_hashed_once_per_cache_residency(self):
        clam = self._worker_clam()
        keys = [b"wrk-%04d" % i for i in range(0, 800, 8)] + [b"never-%d" % i for i in range(20)]
        frame = self._frame(keys)
        clear_digest_cache()  # the worker has not met these keys
        with count_hash_calls() as cold:
            first = self._serve(clam, frame)
        assert cold.digest_builds == len(keys)
        assert cold.by_layer() == {"clam_words": len(keys)}
        with count_hash_calls() as warm:
            second = self._serve(clam, frame)
        assert second == first
        assert warm.total == 0  # six passes per operation when every decode built a fresh digest
        assert warm.digest_builds == 0

        # Evicted in between: hashed again, once, to the same values.
        words_before = {key: as_digest(key).words for key in keys}
        set_digest_cache_capacity(8)
        for i in range(8):
            as_digest(b"evictor-%d" % i)
        with count_hash_calls() as evicted:
            third = self._serve(clam, frame)
        assert third == first
        assert evicted.digest_builds == len(keys)
        assert evicted.by_layer() == {"clam_words": len(keys)}
        assert as_digest(keys[-1]).words == words_before[keys[-1]]

    def test_ring_word_does_not_travel(self):
        digest = KeyDigest(b"routed")
        digest.digest(RING_SEED)
        assert digest.to_wire() == struct.pack("<IB", 6, 0) + b"routed"
        digest.clam_words()
        payload = digest.to_wire()
        assert len(payload) == 5 + 6 + 16 * len(CLAM_SEEDS)
        decoded, _ = KeyDigest.from_wire(payload)
        assert decoded.memoised() == dict(zip(CLAM_SEEDS, clam_words(b"routed")))

    def test_ring_pair_from_an_older_sender_still_decodes(self):
        ring = fnv1a_64(b"old-frame", RING_SEED)
        payload = struct.pack("<IB", 9, 1) + b"old-frame" + struct.pack("<QQ", RING_SEED, ring)
        with count_hash_calls() as log:
            decoded, offset = KeyDigest.from_wire(payload)
            assert decoded.digest(RING_SEED) == ring
        assert offset == len(payload)
        assert log.total == 0

    def test_wire_words_never_replace_computed_ones(self):
        """First writer wins: what the receiver computed itself stays, and a
        full group is adopted only where nothing was computed yet."""
        true_words = clam_words(b"contested")
        mine = as_digest(b"contested")
        mine.clam_words()
        forged = KeyDigest(b"contested")
        forged.words = tuple(word ^ 1 for word in true_words)
        decoded, _ = KeyDigest.from_wire(forged.to_wire())
        assert decoded is mine
        assert decoded.words == true_words

        sender = KeyDigest(b"uncontested")
        sender.clam_words()
        with count_hash_calls() as log:
            adopted, _ = KeyDigest.from_wire(sender.to_wire())
            assert adopted.words == sender.words
        assert log.total == 0  # resumed with the sender's work

    def test_partial_clam_group_is_dropped_and_recomputed(self):
        true_words = clam_words(b"partial")
        pairs = sorted(zip(CLAM_SEEDS, (word ^ 1 for word in true_words)))[:3]
        payload = struct.pack("<IB", 7, 3) + b"partial"
        payload += b"".join(struct.pack("<QQ", seed, value) for seed, value in pairs)
        decoded, offset = KeyDigest.from_wire(payload)
        assert offset == len(payload)
        assert decoded.memoised() == {}
        with count_hash_calls() as log:
            assert decoded.clam_words() == true_words
        assert log.by_layer() == {"clam_words": 1}


class TestMemoryShape:
    def test_warm_digest_references_no_dict_or_list(self):
        """The digest cache holds one digest per recently used key in every
        process; a per-digest dict or list is what made that cost 1 KB a key."""
        clear_digest_cache()
        clam = CLAM(_config(True), storage="intel-ssd", keep_latency_samples=False)
        keys = [b"shape-%04d" % i for i in range(400)]
        for key in keys:
            clam.lookup(key)
            clam.insert(key, b"v")
        assert clam.bufferhash.total_flushes > 0
        assert digest_cache_info()["size"] == len(keys)
        for key in (keys[0], keys[-1]):
            digest = as_digest(key)
            assert digest.words is not None
            assert len(digest.bloom_positions(*self._geometry(clam))) > 0
            seen, stack = set(), [digest]
            while stack:
                for referent in gc.get_referents(stack.pop()):
                    if isinstance(referent, type) or id(referent) in seen:
                        continue  # the class (and its namespace) is shared, not owned
                    assert not isinstance(referent, (dict, list)), type(referent)
                    seen.add(id(referent))
                    stack.append(referent)
        clear_digest_cache()

    @staticmethod
    def _geometry(clam: CLAM):
        buffer = clam.bufferhash.tables[0].buffer
        return buffer.bloom_hashes, buffer.bloom_bits
