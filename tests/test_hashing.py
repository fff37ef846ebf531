"""Tests for the deterministic hashing helpers and the KeyDigest pipeline."""

import gc
import time

import pytest
from hypothesis import given, strategies as st

from repro.core.hashing import (
    BLOOM_H1_WORD,
    BLOOM_H2_WORD,
    BLOOM_SEED_H1,
    BLOOM_SEED_H2,
    CLAM_SEEDS,
    CLAM_WORDS_SEED,
    CUCKOO_SEED_FIRST,
    CUCKOO_SEED_SECOND,
    PAGE_SEED,
    PARTITION_SEED,
    RING_SEED,
    KeyDigest,
    as_digest,
    clam_words,
    clear_digest_cache,
    count_hash_calls,
    digest_cache_info,
    double_hashes,
    drop_digest_cache_holds,
    fnv1a_64,
    hash_key,
    hold_digest_cache,
    key_data,
    to_key_bytes,
    walks_bloom_positions,
)

#: The per-layer seeds whose derived values define the on-flash layout.
LAYOUT_SEEDS = (
    PARTITION_SEED,
    CUCKOO_SEED_FIRST,
    CUCKOO_SEED_SECOND,
    BLOOM_SEED_H1,
    BLOOM_SEED_H2,
    PAGE_SEED,
    RING_SEED,
)


def _walked_positions(digest, count, modulus):
    """The probe walk of the filters' loops, as a list: start at
    ``h1 & low`` and step by ``(h2 | 1) & low``."""
    low = modulus - 1
    words = digest.clam_words()
    position = words[BLOOM_H1_WORD] & low
    step = (words[BLOOM_H2_WORD] | 1) & low
    positions = []
    for _ in range(count):
        positions.append(position)
        position = (position + step) & low
    return positions


class TestToKeyBytes:
    def test_bytes_pass_through(self):
        assert to_key_bytes(b"abc") == b"abc"

    def test_bytearray_and_memoryview(self):
        assert to_key_bytes(bytearray(b"abc")) == b"abc"
        assert to_key_bytes(memoryview(b"abc")) == b"abc"

    def test_string_utf8(self):
        assert to_key_bytes("héllo") == "héllo".encode("utf-8")

    def test_integer_big_endian(self):
        assert to_key_bytes(0) == b"\x00"
        assert to_key_bytes(256) == b"\x01\x00"

    def test_negative_integer_rejected(self):
        with pytest.raises(ValueError):
            to_key_bytes(-1)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            to_key_bytes(3.14)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_distinct_integers_map_to_distinct_bytes(self, value):
        assert int.from_bytes(to_key_bytes(value), "big") == value

    def test_cross_type_collision_is_frozen_behaviour(self):
        """Regression: different key *types* share one canonical byte space.

        The int ``0x41``, the bytes ``b"A"`` and the str ``"A"`` all encode
        to ``b"A"`` and are therefore the same key (documented in
        ``to_key_bytes``).  Freezing this keeps the on-flash layout stable;
        if it ever needs to change, it is a breaking format change, not a
        bug fix.
        """
        assert to_key_bytes(0x41) == to_key_bytes(b"A") == to_key_bytes("A") == b"A"
        # The collision propagates through every derived hash, as specified.
        for seed in LAYOUT_SEEDS:
            assert hash_key(0x41, seed) == hash_key(b"A", seed)


class TestFNV:
    def test_deterministic(self):
        assert fnv1a_64(b"hello") == fnv1a_64(b"hello")

    def test_seed_changes_value(self):
        assert fnv1a_64(b"hello", seed=1) != fnv1a_64(b"hello", seed=2)

    def test_different_inputs_differ(self):
        assert fnv1a_64(b"hello") != fnv1a_64(b"hellp")

    def test_fits_in_64_bits(self):
        assert 0 <= fnv1a_64(b"anything" * 10) < 2**64

    @given(st.binary(min_size=0, max_size=64))
    def test_always_in_range(self, data):
        assert 0 <= fnv1a_64(data) < 2**64


class TestHashKey:
    def test_accepts_all_key_types(self):
        assert hash_key(b"a") == hash_key(b"a")
        assert isinstance(hash_key("string"), int)
        assert isinstance(hash_key(42), int)

    def test_distribution_roughly_uniform(self):
        buckets = [0] * 16
        for i in range(16_000):
            buckets[hash_key(b"key-%d" % i) % 16] += 1
        assert min(buckets) > 700
        assert max(buckets) < 1300


class TestDoubleHashes:
    def test_count_and_range(self):
        values = double_hashes(b"key", count=7, modulus=100)
        assert len(values) == 7
        assert all(0 <= v < 100 for v in values)

    def test_deterministic(self):
        assert double_hashes(b"key", 5, 64) == double_hashes(b"key", 5, 64)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            double_hashes(b"key", 0, 10)
        with pytest.raises(ValueError):
            double_hashes(b"key", 3, 0)

    @given(st.binary(min_size=1, max_size=32), st.integers(2, 10), st.integers(8, 1024))
    def test_property_count_and_range(self, key, count, modulus):
        values = double_hashes(key, count, modulus)
        assert len(values) == count
        assert all(0 <= v < modulus for v in values)


#: Every supported key representation of the same underlying bytes b"A".
def _representations(data: bytes):
    reps = [data, bytearray(data), memoryview(data)]
    try:
        reps.append(data.decode("utf-8"))
    except UnicodeDecodeError:
        pass
    if data and data[0] != 0:  # int encoding strips leading zero bytes
        reps.append(int.from_bytes(data, "big"))
    return reps


class TestKeyDigest:
    """The hash-once pipeline must be bit-identical to direct seeded hashing."""

    @given(st.binary(min_size=1, max_size=32))
    def test_digest_equals_direct_hash_for_every_layout_seed(self, data):
        digest = KeyDigest(data)
        for seed in LAYOUT_SEEDS:
            assert digest.digest(seed) == fnv1a_64(data, seed)

    @given(st.binary(min_size=1, max_size=32))
    def test_all_key_representations_agree(self, data):
        expected = {seed: fnv1a_64(data, seed) for seed in LAYOUT_SEEDS}
        for representation in _representations(data):
            digest = KeyDigest(representation)
            assert digest.data == data
            for seed in LAYOUT_SEEDS:
                assert digest.digest(seed) == expected[seed]

    @given(st.binary(min_size=1, max_size=32), st.integers(1, 12), st.integers(8, 4096))
    def test_bloom_positions_equal_double_hashes(self, data, count, modulus):
        digest = KeyDigest(data)
        first = digest.bloom_positions(count, modulus)
        assert first == double_hashes(data, count, modulus)
        # Not memoised: every call computes a new list from the two words.
        assert digest.bloom_positions(count, modulus) is not first

    @given(st.binary(min_size=1, max_size=32), st.integers(2, 1 << 20))
    def test_derived_moduli_equal_direct_implementation(self, data, modulus):
        digest = KeyDigest(data)
        assert digest.digest(PARTITION_SEED) % modulus == hash_key(data, PARTITION_SEED) % modulus
        assert digest.digest(PAGE_SEED) % modulus == hash_key(data, PAGE_SEED) % modulus
        assert digest.digest(RING_SEED) == hash_key(data, RING_SEED)

    @given(st.binary(min_size=0, max_size=512))
    def test_fused_traversal_equals_six_single_seed_passes(self, data):
        """The lane-packed traversal is FNV-1a + fmix64 for all six seeds at
        once: every word equals the single-seed reference, at any length."""
        words = clam_words(data)
        assert words.typecode == "Q"
        assert list(words) == [fnv1a_64(data, seed) for seed in CLAM_SEEDS]

    @given(
        st.binary(min_size=1, max_size=32),
        st.integers(1, 12),
        st.one_of(
            st.integers(1, 1 << 20),
            st.integers(0, 66).map(lambda k: 1 << k),  # powers of two, past 2^64 too
            st.sampled_from([0xFFFF, 0x10000, 0x10001, (1 << 64) - 1, (1 << 64) + 1]),
        ),
    )
    def test_bloom_positions_for_any_modulus(self, data, count, modulus):
        """Packed storage and the power-of-two shortcut change no value."""
        positions = KeyDigest(data).bloom_positions(count, modulus)
        assert list(positions) == double_hashes(data, count, modulus)

    def test_power_of_two_positions_are_walked_up_to_two_to_the_64(self):
        """A filter walks positions modulo 2^k from ``h1 & low`` in steps of
        ``(h2 | 1) & low``; that is the reference only while the reduction
        modulo 2^64 is a mask of the modulus, so 2^64 is the last walked
        modulus and 2^65, 2^66 are computed by the reference formula."""
        walked = [
            (1, 1), (1, 2), (32, 2), (1, 1 << 16), (11, 1 << 11), (32, 1 << 11),
            (2, 1 << 16), (32, 1 << 16), (32, 1 << 17), (32, 1 << 27), (32, 1 << 28),
            (1, 1 << 40), (32, 1 << 59), (32, 1 << 60), (1, 1 << 64), (2, 1 << 64),
            (11, 1 << 64),
        ]  # fmt: skip
        not_walked = [(2, 1 << 65), (3, 1 << 66), (11, 1 << 66), (11, 1 << 80), (11, 3 << 10)]
        keys = [b"", b"k", b"golden-key", bytes(range(256))]
        keys += [fingerprint.to_bytes(20, "big") for fingerprint in (1, 2**159 + 12345, 2**160 - 1)]
        keys += [b"walk-%d" % i for i in range(200)]
        for count, modulus in walked:
            assert walks_bloom_positions(modulus), modulus
            for key in keys:
                expected = double_hashes(key, count, modulus)
                assert KeyDigest(key).bloom_positions(count, modulus) == expected
                assert _walked_positions(KeyDigest(key), count, modulus) == expected
        for count, modulus in not_walked:
            assert not walks_bloom_positions(modulus), modulus
            disagreed = 0
            for key in keys:
                expected = double_hashes(key, count, modulus)
                assert KeyDigest(key).bloom_positions(count, modulus) == expected
                disagreed += _walked_positions(KeyDigest(key), count, modulus) != expected
            assert disagreed > 0, (count, modulus)  # a walk here would have been wrong
        for modulus in (0, 3, 12, 1000, (1 << 64) - 1, (1 << 64) + 1):
            assert not walks_bloom_positions(modulus), modulus

    def test_no_bloom_geometry_is_memoised(self):
        digest = KeyDigest(b"two-geometries")
        first = digest.bloom_positions(7, 512)
        assert first == double_hashes(b"two-geometries", 7, 512)
        other = digest.bloom_positions(7, 1024)
        assert other == double_hashes(b"two-geometries", 7, 1024)
        again = digest.bloom_positions(7, 512)
        assert again == first and again is not first
        # Only the words are kept: nothing but the CLAM seeds is memoised.
        assert sorted(digest.memoised()) == sorted(CLAM_SEEDS)

    def test_digest_is_accepted_as_a_key(self):
        digest = KeyDigest(b"some-key")
        assert to_key_bytes(digest) == b"some-key"
        assert key_data(digest) == b"some-key"
        for seed in LAYOUT_SEEDS:
            assert hash_key(digest, seed) == hash_key(b"some-key", seed)
        assert double_hashes(digest, 4, 128) == double_hashes(b"some-key", 4, 128)

    def test_double_hashes_validation_applies_to_digests_too(self):
        digest = KeyDigest(b"k")
        with pytest.raises(ValueError):
            double_hashes(digest, 0, 10)
        with pytest.raises(ValueError):
            double_hashes(digest, 3, 0)

    def test_memoisation_hashes_each_seed_once(self):
        digest = KeyDigest(b"memo-key")
        with count_hash_calls() as log:
            for _ in range(5):
                digest.digest(PARTITION_SEED)
                digest.bloom_positions(7, 512)
                digest.bloom_positions(7, 1024)
        # One traversal yields the partition word and both Bloom words.
        assert log.by_seed == {CLAM_WORDS_SEED: 1}
        assert log.total == 1
        assert sorted(digest.memoised()) == sorted(CLAM_SEEDS)


class TestGoldenValues:
    """Frozen digests guarding the deterministic on-flash layout.

    These constants were captured from the pre-KeyDigest implementation; any
    change to them means existing simulated flash layouts (and all recorded
    benchmark expectations) silently moved.
    """

    GOLDEN = {
        (b"golden-key", 0x0): 0x47860F35C2E0D4C6,
        (b"golden-key", PARTITION_SEED): 0x900FDD05BDE242FE,
        (b"golden-key", CUCKOO_SEED_FIRST): 0xFE83D1827E8817E5,
        (b"golden-key", CUCKOO_SEED_SECOND): 0x59C00E5C0047F19B,
        (b"golden-key", BLOOM_SEED_H1): 0x11848211560987A9,
        (b"golden-key", BLOOM_SEED_H2): 0x415FB40ACA43A554,
        (b"golden-key", PAGE_SEED): 0x844CE565914F3B28,
        (b"golden-key", RING_SEED): 0x7FED164E68CF2977,
        (b"A", PARTITION_SEED): 0x238B2A0E1A38BBD6,
        (b"\x00", PARTITION_SEED): 0xEA656CC3365C64A9,
        (b"fingerprint-0123456789", PAGE_SEED): 0x538FA03E687B72F2,
        (b"fingerprint-0123456789", RING_SEED): 0xB7A79DED6E638915,
    }

    def test_golden_digests(self):
        for (data, seed), expected in self.GOLDEN.items():
            assert fnv1a_64(data, seed) == expected
            assert KeyDigest(data).digest(seed) == expected
            if seed in CLAM_SEEDS:  # the fused traversal, asked directly
                assert clam_words(data)[CLAM_SEEDS.index(seed)] == expected

    def test_golden_string_and_int_keys(self):
        assert hash_key("héllo", PARTITION_SEED) == 0xFD6DF457A0561E22
        assert hash_key(0, PARTITION_SEED) == 0xEA656CC3365C64A9  # encodes as b"\x00"
        assert hash_key(256, PARTITION_SEED) == 0x76C4033D14A038F6

    def test_golden_double_hashes(self):
        assert double_hashes(b"golden-key", 5, 1024) == [937, 254, 595, 936, 253]
        assert double_hashes("héllo", 3, 509) == [294, 435, 67]
        assert list(KeyDigest(b"golden-key").bloom_positions(5, 1024)) == [937, 254, 595, 936, 253]
        assert list(KeyDigest("héllo").bloom_positions(3, 509)) == [294, 435, 67]

    def test_golden_empty_key(self):
        assert fnv1a_64(b"") == 0xEFD01F60BA992926
        assert fnv1a_64(b"", 7) == 0x6478982A988B81B4


class _Index:
    """Stands in for an index: an object whose life bounds a hold."""


def _hold(items: int) -> _Index:
    """An index that retains ``items`` keys, alive while the caller keeps it."""
    index = _Index()
    hold_digest_cache(index, items)
    return index


class TestDigestCache:
    """The FIFO cache itself; its capacity is set here the one way there is,
    by what live indexes hold (``tests/test_hash_once.py`` holds it with real
    ones)."""

    def setup_method(self):
        clear_digest_cache()
        gc.collect()
        drop_digest_cache_holds()

    def teardown_method(self):
        self.setup_method()

    def test_cache_returns_same_digest_object(self):
        first = as_digest(b"cache-key")
        second = as_digest(b"cache-key")
        assert first is second

    def test_passing_a_digest_through_is_identity(self):
        digest = as_digest(b"cache-key")
        assert as_digest(digest) is digest

    def test_equivalent_representations_share_one_entry(self):
        assert as_digest(b"A") is as_digest("A") is as_digest(0x41)

    def test_capacity_is_bounded_fifo(self):
        index = _hold(4)
        digests = [as_digest(b"bound-%d" % i) for i in range(8)]
        info = digest_cache_info()
        assert info["size"] <= 4
        # Oldest entries were evicted; a re-request builds a fresh digest.
        assert as_digest(b"bound-0") is not digests[0]
        # Newest entry survived.
        assert as_digest(b"bound-7") is digests[7]
        del index
        gc.collect()
        assert digest_cache_info()["capacity"] == 1 << 16  # released with its owner

    def test_zero_capacity_disables_caching(self):
        index = _hold(0)
        assert digest_cache_info()["capacity"] == 0
        assert as_digest(b"k") is not as_digest(b"k")
        assert digest_cache_info()["size"] == 0
        del index

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            hold_digest_cache(_Index(), -1)
        assert digest_cache_info()["capacity"] == 1 << 16  # nothing was held
        assert digest_cache_info()["capacity"] == 1 << 16

    def test_clear(self):
        as_digest(b"x")
        clear_digest_cache()
        assert digest_cache_info()["size"] == 0

    def test_eviction_is_fifo_by_first_insertion(self):
        index = _hold(4)
        first = [as_digest(b"fifo-%d" % i) for i in range(4)]
        assert as_digest(b"fifo-0") is first[0]  # a hit must not refresh its position
        as_digest(b"fifo-4")  # full: the oldest-inserted key (fifo-0) leaves
        assert digest_cache_info()["size"] == 4
        for i in (1, 2, 3):  # hits insert nothing, so these checks evict nothing
            assert as_digest(b"fifo-%d" % i) is first[i]
        again = as_digest(b"fifo-0")  # a miss: fresh digest, and fifo-1 leaves
        assert again is not first[0]
        assert again.data == first[0].data
        for seed in LAYOUT_SEEDS:
            assert again.digest(seed) == first[0].digest(seed)
        assert again.bloom_positions(7, 1024) == first[0].bloom_positions(7, 1024)
        assert as_digest(b"fifo-2") is first[2]
        assert as_digest(b"fifo-1") is not first[1]
        assert digest_cache_info()["capacity"] == 4
        del index

    def test_shrinking_keeps_the_newest_entries(self):
        digests = [as_digest(b"shrink-%d" % i) for i in range(10)]
        index = _hold(3)
        assert digest_cache_info() == {"size": 3, "capacity": 3}
        for i in (7, 8, 9):
            assert as_digest(b"shrink-%d" % i) is digests[i]
        as_digest(b"shrink-new")  # evicts exactly one entry: shrink-7
        assert digest_cache_info()["size"] == 3
        assert as_digest(b"shrink-8") is digests[8]
        assert as_digest(b"shrink-9") is digests[9]
        second = _hold(2)  # two live indexes: the capacity grows to their sum
        assert digest_cache_info() == {"size": 3, "capacity": 5}
        del index  # one index left: shrinks again, oldest-first
        assert digest_cache_info() == {"size": 2, "capacity": 2}
        assert as_digest(b"shrink-9") is digests[9]
        assert as_digest(b"shrink-new").data == b"shrink-new"
        del second

    def test_zero_capacity_empties_the_cache(self):
        kept = as_digest(b"kept")
        index = _hold(0)
        assert digest_cache_info() == {"size": 0, "capacity": 0}
        assert as_digest(b"kept") is not kept
        assert digest_cache_info()["size"] == 0
        del index

    def test_cache_refills_to_capacity_after_clear_and_after_resize(self):
        """Eviction order and membership are one state: whatever emptied or
        shrank the cache, the next ``capacity`` distinct keys all stay."""
        index = _hold(8)
        for i in range(20):
            as_digest(b"churn-%d" % i)
        clear_digest_cache()
        refill = [as_digest(b"refill-%d" % i) for i in range(8)]
        assert digest_cache_info()["size"] == 8
        assert all(as_digest(b"refill-%d" % i) is refill[i] for i in range(8))
        del index
        index = _hold(0)
        assert digest_cache_info() == {"size": 0, "capacity": 0}
        del index
        index = _hold(4)
        again = [as_digest(b"again-%d" % i) for i in range(4)]
        assert all(as_digest(b"again-%d" % i) is again[i] for i in range(4))
        del index

    def test_eviction_cost_does_not_grow_with_capacity(self):
        """An evicting ``as_digest`` costs the same at the default capacity as
        at a tiny one.  Both are timed in this run, so host speed cancels: the
        ratio was 15 or more when eviction popped the first key of a plain dict
        (which rescans the tombstones at the head of its entry table)."""

        def evicting_call_seconds(capacity: int) -> float:
            clear_digest_cache()
            index = _hold(capacity)
            for i in range(capacity):
                as_digest(b"fill-%d" % i)
            best = float("inf")
            for attempt in range(3):
                # Long enough for a dict to go through a whole cycle of
                # accumulating and compacting its deleted entries.
                keys = [b"evict-%d-%d" % (attempt, i) for i in range(1 << 16)]
                started = time.perf_counter()
                for key in keys:
                    as_digest(key)
                best = min(best, (time.perf_counter() - started) / len(keys))
            assert digest_cache_info()["size"] == capacity
            del index
            return best

        small = evicting_call_seconds(256)
        large = evicting_call_seconds(1 << 16)
        assert large / small < 5.0, f"{large * 1e6:.2f} us vs {small * 1e6:.2f} us per eviction"


class TestHashCallCounting:
    def test_counts_by_seed_and_layer(self):
        with count_hash_calls() as log:
            fnv1a_64(b"abc", PARTITION_SEED)
            fnv1a_64(b"abc", PARTITION_SEED)
            fnv1a_64(b"abc", BLOOM_SEED_H1)
        assert log.by_seed == {PARTITION_SEED: 2, BLOOM_SEED_H1: 1}
        assert log.by_layer() == {"partition": 2, "bloom_h1": 1}
        assert log.total == 3

    def test_fused_traversal_is_counted_once(self):
        with count_hash_calls() as log:
            clam_words(b"abc")
            KeyDigest(b"abc").digest(PAGE_SEED)
        assert log.by_seed == {CLAM_WORDS_SEED: 2}
        assert log.by_layer() == {"clam_words": 2}
        assert log.total == 2
        assert log.snapshot()["fnv_clam_words"] == 2.0

    def test_digest_builds_counted(self):
        clear_digest_cache()
        with count_hash_calls() as log:
            KeyDigest(b"one")
            as_digest(b"two")
            as_digest(b"two")  # cache hit: no new build
        assert log.digest_builds == 2
        clear_digest_cache()

    def test_counting_disabled_outside_context(self):
        with count_hash_calls() as log:
            pass
        fnv1a_64(b"abc", PARTITION_SEED)
        assert log.total == 0

    def test_snapshot_shape(self):
        with count_hash_calls() as log:
            fnv1a_64(b"abc", PAGE_SEED)
        snapshot = log.snapshot()
        assert snapshot["fnv_incarnation_page"] == 1.0
        assert snapshot["fnv_total"] == 1.0
        assert snapshot["digest_builds"] == 0.0
