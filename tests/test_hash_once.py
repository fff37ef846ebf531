"""End-to-end guarantees of the hash-once KeyDigest pipeline.

There is one key pipeline — below every API boundary a key is a
:class:`~repro.core.hashing.KeyDigest` — and each claim about it is enforced
here:

1. **Equivalence** — wherever a layer places a key (super-table partition,
   cuckoo bucket pair, Bloom bit positions, incarnation page) is where the
   reference expressions on the raw key bytes put it, whether the key arrives
   as bytes or as a digest.  The digest pipeline decides how often key bytes
   are walked, never what is computed.
2. **Hash-once** — one operation builds at most one digest and traverses the
   key bytes at most once, for every layer together, however many
   incarnations it probes.
3. **Service reuse** — a digest built for consistent-hash routing is the
   digest the owning CLAM uses, end to end through the batch executor.
4. **Process boundary** — a shard worker resolves the keys it decodes from
   the wire through its own digest cache, so a key is hashed once per
   residency there, not once per operation received.
5. **Memory shape** — a fully warmed digest owns no ``dict`` and no ``list``.
6. **Capacity follows the indexes** — the digest cache holds as many digests
   as the live indexes of its process retain keys (65,536 at most, and while
   none is alive), and a repeat inside an index's retention is never
   re-hashed.
"""

from __future__ import annotations

import functools
import gc
import struct
import sys
from array import array

from hypothesis import given, settings, strategies as st

from benchmarks.bench_hotpath import WARM_DIGEST_BYTES_CEILING, digest_owned
from bloom_reference import reference_column, reference_holds
from repro.core import CLAM, CLAMConfig, DurableCLAM, build_pages, hashing, search_page
from repro.core.buffer import Buffer
from repro.core.hashing import (
    CUCKOO_SEED_FIRST,
    CUCKOO_SEED_SECOND,
    PARTITION_SEED,
    RING_SEED,
    KeyDigest,
    as_digest,
    clear_digest_cache,
    count_hash_calls,
    digest_cache_info,
    double_hashes,
    drop_digest_cache_holds,
    fnv1a_64,
)
from repro.core.incarnation import page_index_for_key
from repro.core.results import ServedFrom
from repro.core.sliced_bloom import BitSlicedBloomArray
from repro.service import ClusterService, WorkerProcesses, wire
from repro.service.shard import apply_batch
from repro.workloads.workload import Operation, OpKind


def _config(**overrides) -> CLAMConfig:
    return CLAMConfig.scaled(
        num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4, **overrides
    )


_KEY_BYTES = st.binary(min_size=1, max_size=40)


def _both_forms(data: bytes):
    """The key as a caller may hand it to any layer: raw bytes the process
    has not met, and a digest."""
    clear_digest_cache()
    return data, KeyDigest(data)


@functools.lru_cache(maxsize=None)
def _clam(num_super_tables: int):
    config = CLAMConfig.scaled(
        num_super_tables=num_super_tables, buffer_capacity_items=8, incarnations_per_table=2
    )
    return CLAM(config, storage="dram")


class TestEquivalence:
    """The placement oracle: every layer against the reference expression on
    raw key bytes (``fnv1a_64(data, SEED) % n``, ``double_hashes``,
    ``page_index_for_key``)."""

    @given(data=_KEY_BYTES, num_super_tables=st.sampled_from([1, 3, 4, 16]))
    def test_partition(self, data, num_super_tables):
        expected = fnv1a_64(data, PARTITION_SEED) % num_super_tables
        for key in _both_forms(data):
            assert _clam(num_super_tables).table_for(key).table_id == expected

    @given(data=_KEY_BYTES, num_slots=st.integers(min_value=1, max_value=200))
    def test_cuckoo_bucket_pair(self, data, num_slots):
        num_buckets = Buffer(1, num_slots, bloom_bits=8).num_buckets
        first = fnv1a_64(data, CUCKOO_SEED_FIRST) % num_buckets
        second = fnv1a_64(data, CUCKOO_SEED_SECOND) % num_buckets
        if second == first:
            second = (second + 1) % num_buckets
        for key in _both_forms(data):
            table = Buffer(1, num_slots, bloom_bits=8)
            assert table._buckets_for(as_digest(key).clam_words()) == (first, second)
            table.put(key, b"v")  # an empty table takes the key in its first bucket
            assert [index for index, bucket in enumerate(table._buckets) if any(bucket)] == [first]
            assert table.get(data) == table.get(KeyDigest(data)) == b"v"

    @settings(max_examples=50)
    @given(
        data=_KEY_BYTES,
        num_bits=st.integers(min_value=8, max_value=300),
        num_hashes=st.integers(min_value=1, max_value=8),
    )
    def test_bloom_positions(self, data, num_bits, num_hashes):
        """A column holding exactly the reference bits names its owner; one
        holding every bit but a single reference bit names none — so each
        position the bit-sliced query probes is a reference one — and the
        flush's column writer sets exactly the reference bits."""
        expected = double_hashes(data, num_hashes, num_bits)
        assert all(0 <= position < num_bits for position in expected)

        def column_with(positions) -> bytes:
            bits = bytearray((num_bits + 63) // 64 * 8)  # empty, in whole words
            for position in positions:
                bits[position >> 3] |= 1 << (position & 7)
            return bytes(bits)

        def candidates(bits, key):
            sliced = BitSlicedBloomArray(num_bits, num_hashes, max_incarnations=2)
            sliced.append_column(bits, 0, "owner")
            return sliced.candidates(key)

        exact = column_with(expected)
        holed = [column_with(set(range(num_bits)) - {position}) for position in set(expected)]
        for key in _both_forms(data):
            assert double_hashes(key, num_hashes, num_bits) == expected
            assert candidates(exact, key) == ["owner"]
            for bits in holed:
                assert candidates(bits, key) == []
        added = BitSlicedBloomArray(num_bits, num_hashes, max_incarnations=1)
        added.append_keys([as_digest(data).clam_words()], 1, "owner")
        assert added.column_bytes("owner") == (exact, 1)

    @settings(max_examples=60)
    @given(
        stored=st.lists(st.lists(_KEY_BYTES, max_size=12), min_size=1, max_size=3),
        probes=st.lists(_KEY_BYTES, max_size=12),
        num_bits=st.one_of(
            st.integers(min_value=0, max_value=12).map(lambda k: 1 << k),  # walked
            st.integers(min_value=1, max_value=3000),  # mostly not
        ),
        num_hashes=st.integers(min_value=1, max_value=11),
    )
    def test_filters_answer_as_filters_built_from_double_hashes(
        self, stored, probes, num_bits, num_hashes
    ):
        """The flush's column writer ``append_keys`` and the bit-sliced
        ``candidates`` — walked for a power of two, listed otherwise — give
        the bits and the answers of filters whose bits are set and tested at
        the reference positions."""
        clear_digest_cache()
        sliced = BitSlicedBloomArray(num_bits, num_hashes, max_incarnations=len(stored))
        references = []
        for incarnation, keys in enumerate(stored):
            references.append(reference_column(keys, num_hashes, num_bits))
            words = [as_digest(key).clam_words() for key in keys]
            sliced.append_keys(words, len(keys), incarnation)
            assert sliced.column_bytes(incarnation) == (references[-1], len(keys))
        for key in [key for keys in stored for key in keys] + probes:
            answers = [reference_holds(bits, key, num_hashes, num_bits) for bits in references]
            expected = [i for i in reversed(range(len(stored))) if answers[i]]
            for form in (key, KeyDigest(key)):
                assert sliced.candidates(form) == expected

    @given(
        items=st.dictionaries(_KEY_BYTES, st.binary(max_size=8), min_size=1, max_size=12),
        num_pages=st.integers(min_value=1, max_value=16),
    )
    def test_incarnation_page_written(self, items, num_pages):
        clear_digest_cache()
        key_words = [as_digest(data).clam_words() for data in items]
        pages = build_pages(items, key_words, num_pages, page_size=2048)  # roomy: nothing spills
        for data, value in items.items():
            assert search_page(pages[page_index_for_key(data, num_pages)], data)[0] == value

    def test_incarnation_page_read(self):
        """A flash-served lookup reads the key's reference page first."""
        # 256 slots of 16 bytes on the SSD's 512-byte pages: 8 pages an incarnation.
        config = CLAMConfig.scaled(
            num_super_tables=4, buffer_capacity_items=128, incarnations_per_table=4
        )
        clam = CLAM(config, storage="intel-ssd")
        keys = [b"page-%04d" % i for i in range(2000)]
        for key in keys:
            clam.insert(key, b"v")
        assert {h.num_pages for t in clam.tables for h in t.incarnation_handles} == {8}
        device = clam.device
        reads = []
        read_page = device.read_page

        def recording_read_page(page_index):
            reads.append(page_index)
            return read_page(page_index)

        device.read_page = recording_read_page
        served = 0
        for data in keys:
            for key in _both_forms(data):
                del reads[:]
                result = clam.lookup(key)
                if result.served_from is not ServedFrom.INCARNATION or result.false_positive_reads:
                    continue
                handles = clam.table_for(data).incarnation_handles
                ((address, num_pages),) = {
                    (h.address, h.num_pages)
                    for h in handles
                    if h.address <= reads[0] < h.address + h.num_pages
                }
                assert reads[0] - address == page_index_for_key(data, num_pages)
                served += 1
        assert served > 200

    def test_mixed_key_types_roundtrip_through_digests(self):
        clam = CLAM(_config(), storage="intel-ssd")
        clam.insert("string-key", b"sv")
        clam.insert(12345, b"iv")
        clam.insert(memoryview(b"mv-key"), b"mv")
        assert clam.get(b"string-key") == b"sv"  # str and bytes share one space
        assert clam.get(12345) == b"iv"
        assert clam.get(b"mv-key") == b"mv"


class TestHashOnceCounting:
    """The headline claim: per-operation key-hash invocations drop to one."""

    def _flash_resident_clam(self, bit_slicing: bool) -> CLAM:
        clam = CLAM(
            _config(use_bit_slicing=bit_slicing),
            storage="intel-ssd",
        )
        for i in range(800):  # enough to fill several incarnations per table
            clam.insert(b"cnt-%04d" % i, b"v")
        return clam

    @staticmethod
    def _flash_served_key(clam: CLAM) -> bytes:
        for i in reversed(range(800)):
            key = b"cnt-%04d" % i
            if clam.lookup(key).served_from is ServedFrom.INCARNATION:
                return key
        raise AssertionError("no flash-resident key found")

    def test_lookup_hashes_each_layer_at_most_once(self):
        clam = self._flash_resident_clam(bit_slicing=True)
        probe = self._flash_served_key(clam)
        clear_digest_cache()
        with count_hash_calls() as log:
            result = clam.lookup(probe)
        assert result.value == b"v"
        assert log.digest_builds == 1  # the key bytes enter the pipeline once
        assert log.by_layer() == {"clam_words": 1}  # and are walked once, for every layer

    def test_cached_key_is_never_rehashed(self):
        clam = self._flash_resident_clam(bit_slicing=True)
        probe = b"cnt-0042"
        clam.lookup(probe)  # populate the digest cache
        with count_hash_calls() as log:
            clam.lookup(probe)
            clam.insert(probe, b"v2")
        assert log.total == 0
        assert log.digest_builds == 0

    def test_a_flush_hashes_nothing_even_for_keys_the_cache_dropped(self):
        """The buffer hands the flush the CLAM words it kept: page placement
        and the new incarnation's Bloom column need no digest of their own."""
        table = CLAM(_config(), storage="intel-ssd").tables[0]
        for i in range(table.buffer.capacity_items):
            table.insert(b"flushed-%04d" % i, b"v")
        clear_digest_cache()
        with count_hash_calls() as log:
            table.flush()
        assert table.incarnation_count == 1
        assert log.total == 0
        assert log.digest_builds == 0

    def test_legacy_path_rehashes_bloom_per_incarnation(self):
        """Without bit slicing a lookup probes one filter per incarnation (the
        re-hashing pipeline this replaced paid two Bloom passes for each);
        the key is still walked once, for every word and every filter."""
        clam = self._flash_resident_clam(bit_slicing=False)
        probe = b"cnt-0042"
        table = clam.table_for(probe)
        assert table.incarnation_count > 1  # the probe sees several filters

        clear_digest_cache()
        with count_hash_calls() as log:
            clam.lookup(probe)
        assert log.by_layer() == {"clam_words": 1}
        assert log.total == log.digest_builds == 1


class TestServiceReuse:
    def test_routing_digest_reaches_the_shard(self):
        """The batch executor routes and executes with one digest per key."""
        cluster = ClusterService(num_shards=3, config=_config(), storage="dram")
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
        sequential = ClusterService(num_shards=2, config=_config(), storage="dram")
        batched = ClusterService(num_shards=2, config=_config(), storage="dram")
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
        gc.collect()
        drop_digest_cache_holds()  # the worker CLAM is the one live index

    def teardown_method(self):
        clear_digest_cache()

    @staticmethod
    def _worker_clam() -> CLAM:
        clam = CLAM(_config(), storage="intel-ssd")
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
        """A lookup frame as a routing parent sends it (the parent's digests
        carry a ring word and nothing else; only the key bytes travel)."""
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

        # Evicted in between: hashed again, once, to the same values.  The
        # cache holds what the worker CLAM retains (4 x 32 x 5), so that many
        # new keys push every one of these out.
        words_before = {key: as_digest(key).words for key in keys}
        retention = digest_cache_info()["capacity"]
        assert retention == clam.config.total_items_capacity(4) == 640
        for i in range(retention):
            as_digest(b"evictor-%d" % i)
        with count_hash_calls() as evicted:
            third = self._serve(clam, frame)
        assert third == first
        assert evicted.digest_builds == len(keys)
        assert evicted.by_layer() == {"clam_words": len(keys)}
        assert as_digest(keys[-1]).words == words_before[keys[-1]]

    def test_ring_word_does_not_travel(self):
        """Nothing a digest has memoised travels — ring word, CLAM words or
        any other seed: a frame is its head, one op code, two lengths and
        the canonical key bytes, whatever the sender had computed."""
        digest = KeyDigest(b"routed")
        bare = wire.encode_batch_request(0.0, [(OpKind.LOOKUP, digest, b"")])
        assert bare == struct.pack("<dIBII", 0.0, 1, 0, 6, 0) + b"routed"
        digest.digest(RING_SEED)
        digest.clam_words()
        digest.digest(7)
        assert wire.encode_batch_request(0.0, [(OpKind.LOOKUP, digest, b"")]) == bare
        with count_hash_calls() as log:
            ((_kind, decoded, _value),) = wire.decode_batch_request(bare)[1]
        assert decoded is as_digest(b"routed")
        assert decoded.memoised() == {}  # the receiver hashes what it needs, when it needs it
        assert (log.total, log.digest_builds) == (0, 1)


class TestMemoryShape:
    def test_warm_digest_references_no_dict_or_list(self):
        """The digest cache holds one digest per recently used key in every
        process; a per-digest dict or list is what made that cost 1 KB a key,
        and a tuple of six words plus a memo of Bloom positions 0.5 KB."""
        clear_digest_cache()
        clam = CLAM(_config(), storage="intel-ssd")
        keys = [b"shape-%04d" % i for i in range(400)]
        for key in keys:
            clam.lookup(key)
            clam.insert(key, b"v")
        assert clam.total_flushes > 0
        assert digest_cache_info()["size"] == len(keys)
        for key in (keys[0], keys[-1]):
            digest = as_digest(key)
            assert digest.words is not None
            assert len(digest.bloom_positions(*self._geometry(clam))) > 0
            owned = digest_owned(digest)
            for referent in owned:
                assert not isinstance(referent, (dict, list)), type(referent)
            # No Bloom positions stay behind: the one array is the six words.
            arrays = [referent for referent in owned if isinstance(referent, array)]
            assert arrays == [digest.words] and len(digest.words) == 6
            assert sum(sys.getsizeof(referent) for referent in owned) <= WARM_DIGEST_BYTES_CEILING
        clear_digest_cache()

    @staticmethod
    def _geometry(clam: CLAM):
        buffer = clam.tables[0].buffer
        return buffer.bloom_hashes, buffer.bloom_bits


def _e2e_config() -> CLAMConfig:
    """The end-to-end benchmark's CLAM: 16 x 128-item buffers x 8 incarnations."""
    return CLAMConfig.scaled(
        num_super_tables=16, buffer_capacity_items=128, incarnations_per_table=8
    )


class TestCacheFollowsIndexes:
    """The digest cache's capacity is ``min(65,536, what the live indexes
    retain)``: one e2e CLAM retains 16 x 128 x (8 + 1) = 18,432 keys."""

    RETENTION = 18_432

    def setup_method(self):
        clear_digest_cache()
        gc.collect()
        drop_digest_cache_holds()  # indexes other tests keep alive hold nothing here

    def teardown_method(self):
        self.setup_method()

    @staticmethod
    def _capacity() -> int:
        return digest_cache_info()["capacity"]

    def test_no_index_alive_reads_the_ceiling(self):
        assert self._capacity() == 1 << 16
        clam = CLAM(_e2e_config(), storage="intel-ssd")
        assert self._capacity() == self.RETENTION
        del clam
        gc.collect()
        assert self._capacity() == 1 << 16

    def test_live_clams_add_up_and_release_when_collected(self):
        first = CLAM(_e2e_config(), storage="intel-ssd")
        assert self._capacity() == self.RETENTION
        second = CLAM(_e2e_config(), storage="intel-ssd")
        assert self._capacity() == 2 * self.RETENTION
        del second
        gc.collect()
        assert self._capacity() == self.RETENTION
        assert first.lookup(b"still-serving").value is None

    def test_durable_clam_counts_like_a_clam(self, tmp_path):
        clam = DurableCLAM(tmp_path / "held.clam", _e2e_config())
        try:
            assert self._capacity() == self.RETENTION
        finally:
            clam.close()

    def test_routing_parent_covers_its_workers(self):
        cluster = ClusterService(num_shards=2, config=_e2e_config(), workers=WorkerProcesses())
        try:
            assert self._capacity() == 2 * self.RETENTION
        finally:
            cluster.close()

    def test_shrinking_evicts_oldest_first_and_rebuilds_the_map(self):
        keys = [b"full-%05d" % i for i in range(1 << 16)]
        digests = [as_digest(key) for key in keys]
        assert digest_cache_info() == {"size": 1 << 16, "capacity": 1 << 16}
        map_bytes = sys.getsizeof(hashing._DIGEST_CACHE)
        clam = CLAM(_e2e_config(), storage="intel-ssd")
        assert digest_cache_info() == {"size": self.RETENTION, "capacity": self.RETENTION}
        assert sys.getsizeof(hashing._DIGEST_CACHE) < map_bytes / 2
        kept = len(keys) - self.RETENTION
        assert as_digest(keys[kept]) is digests[kept]  # the newest stay
        assert as_digest(keys[-1]) is digests[-1]
        assert as_digest(keys[kept - 1]) is not digests[kept - 1]  # the oldest left
        del clam

    def test_repeats_within_retention_are_not_rehashed(self):
        """A stream of more distinct keys than the CLAM retains, each looked up
        again 4,096 keys later (inside the retention): every key is walked
        once, though the cache is 3.5 times smaller than 65,536."""
        clam = CLAM(_e2e_config(), storage="intel-ssd")
        distance = 4096
        keys = [b"stream-%06d" % i for i in range(self.RETENTION + 2 * distance)]
        with count_hash_calls() as log:
            for index, key in enumerate(keys):
                clam.insert(key, b"v")
                if index >= distance:
                    assert clam.lookup(keys[index - distance]).value == b"v"
        assert self._capacity() * 3.5 < 1 << 16
        assert digest_cache_info()["size"] == self._capacity()  # the cache overflowed
        assert log.total == log.digest_builds == len(keys)
