"""Tests for the in-memory buffer of a super table: a bucketised cuckoo hash table."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bloom_reference import reference_column
from repro.core.buffer import Buffer
from repro.core.hashing import KeyDigest, as_digest, clear_digest_cache, count_hash_calls
from repro.core.sliced_bloom import BitSlicedBloomArray


def _buffer(capacity=16, slots=32, bloom_bits=256):
    return Buffer(capacity_items=capacity, num_slots=slots, bloom_bits=bloom_bits)


def _column_written_from(buffer, key_words, item_count):
    """The column a flush writes from what the buffer handed over, as bytes."""
    sliced = BitSlicedBloomArray(buffer.bloom_bits, buffer.bloom_hashes, max_incarnations=1)
    sliced.append_keys(key_words, item_count, "incarnation")
    return sliced.column_bytes("incarnation")


def _reference(buffer, *keys):
    """``column_bytes`` of the filter that holds ``keys``, one count each."""
    return reference_column(keys, buffer.bloom_hashes, buffer.bloom_bits), len(keys)


def _words_of(*keys):
    return [as_digest(key).clam_words() for key in keys]


def _cuckoo(num_slots):
    """A buffer whose capacity is all its slots, so the buckets alone refuse."""
    return Buffer(capacity_items=num_slots, num_slots=num_slots, bloom_bits=256)


class TestBuffer:
    def test_put_and_get(self):
        buffer = _buffer()
        assert buffer.put(b"key", b"value") is True
        assert buffer.get(b"key") == b"value"

    def test_missing_key_returns_none(self):
        assert _buffer().get(b"missing") is None

    def test_update_in_place(self):
        buffer = _buffer()
        buffer.put(b"key", b"v1")
        buffer.put(b"key", b"v2")
        assert buffer.get(b"key") == b"v2"
        assert len(buffer) == 1

    def test_is_full_at_capacity(self):
        buffer = _buffer(capacity=4)
        for i in range(4):
            assert buffer.put(b"k%d" % i, b"v") is True
        assert len(buffer) == buffer.capacity_items

    def test_put_refused_when_full(self):
        buffer = _buffer(capacity=4)
        for i in range(4):
            buffer.put(b"k%d" % i, b"v")
        assert buffer.put(b"new", b"v") is False

    def test_existing_key_can_be_updated_even_when_full(self):
        buffer = _buffer(capacity=4)
        for i in range(4):
            buffer.put(b"k%d" % i, b"v")
        assert buffer.put(b"k0", b"updated") is True
        assert buffer.get(b"k0") == b"updated"

    def test_drained_words_track_inserted_keys(self):
        buffer = _buffer()
        buffer.put(b"key", b"value")
        _items, key_words, item_count = buffer.drain()
        assert _column_written_from(buffer, key_words, item_count) == _reference(buffer, b"key")

    def test_delete(self):
        buffer = _buffer()
        buffer.put(b"key", b"value")
        assert buffer.delete(b"key") is True
        assert buffer.get(b"key") is None
        assert len(buffer) == 0

    def test_delete_missing_returns_false_and_records_nothing(self):
        buffer = _buffer()
        assert buffer.delete(b"nope") is False
        assert buffer.drain() == ({}, [], 0)

    def test_a_delete_makes_room_under_the_capacity(self):
        buffer = _buffer(capacity=4)
        for i in range(4):
            buffer.put(b"k%d" % i, b"v")
        assert buffer.put(b"new", b"v") is False
        assert buffer.delete(b"k1") is True
        assert buffer.put(b"new", b"v") is True
        assert buffer.get(b"new") == b"v" and buffer.get(b"k1") is None
        assert len(buffer) == 4

    def test_the_buffer_refills_after_a_drain(self):
        buffer = _cuckoo(16)
        first = {b"k%d" % i: b"a%d" % i for i in range(12)}
        for key, value in first.items():
            assert buffer.put(key, value) is True
        assert buffer.drain()[0] == first
        assert all(buffer.get(key) is None for key in first)
        second = {key: b"b" + value for key, value in first.items()}
        for key, value in second.items():
            assert buffer.put(key, value) is True
        items, key_words, item_count = buffer.drain()
        assert items == second
        assert key_words == _words_of(*items)
        assert item_count == len(second)

    def test_drain_returns_items_their_words_and_the_put_count(self):
        buffer = _buffer(capacity=8)
        for i in range(5):
            buffer.put(b"k%d" % i, b"v%d" % i)
        items, key_words, item_count = buffer.drain()
        assert items == {b"k%d" % i: b"v%d" % i for i in range(5)}
        assert key_words == _words_of(*items)
        assert item_count == 5
        written = _column_written_from(buffer, key_words, item_count)
        assert written == _reference(buffer, *(b"k%d" % i for i in range(5)))
        # After draining, the buffer is empty and what decides the next filter reset.
        assert len(buffer) == 0
        assert buffer.drain() == ({}, [], 0)

    def test_drain_hands_over_each_entry_with_the_words_it_was_put_with(self):
        buffer = _cuckoo(64)
        put = {}
        for i in range(20):
            digest = KeyDigest(b"k%d" % i)
            put[digest.data] = digest
            buffer.put(digest, b"v%d" % i)
        buffer.put(b"k3", b"updated")
        items, key_words, _item_count = buffer.drain()
        expected = {b"k%d" % i: b"v%d" % i for i in range(20)}
        expected[b"k3"] = b"updated"
        assert items == expected
        assert all(words is put[key].words for key, words in zip(items, key_words))
        assert len(key_words) == len(items)
        assert len(buffer) == 0 and buffer.get(b"k3") is None
        assert buffer.drain() == ({}, [], 0)

    def test_drain_of_empty_buffer(self):
        items, key_words, item_count = _buffer().drain()
        assert items == {}
        assert key_words == []
        assert item_count == 0

    def test_a_deleted_key_stays_in_the_filter(self):
        # Its bits were set when it was put; they only cause a harmless false
        # positive, and the filter must not depend on the order of events.
        buffer = _buffer()
        buffer.put(b"kept", b"1")
        buffer.put(b"gone", b"2")
        assert buffer.delete(b"gone") is True
        assert buffer.delete(b"gone") is False
        assert buffer.delete(b"never") is False
        items, key_words, item_count = buffer.drain()
        assert items == {b"kept": b"1"}
        assert key_words == _words_of(b"kept", b"gone")
        assert item_count == 2

    def test_every_successful_put_counts_and_a_refused_one_does_not(self):
        buffer = _buffer(capacity=2)
        assert buffer.put(b"a", b"1") and buffer.put(b"a", b"2") and buffer.put(b"b", b"3")
        assert buffer.put(b"c", b"4") is False  # full
        items, key_words, item_count = buffer.drain()
        assert items == {b"a": b"2", b"b": b"3"}
        assert key_words == _words_of(*items)
        assert item_count == 3

    def test_len_counts_items(self):
        buffer = _buffer()
        buffer.put(b"a", b"1")
        buffer.put(b"b", b"2")
        assert len(buffer) == 2

    def test_items_snapshot(self):
        buffer = _buffer()
        buffer.put(b"a", b"1")
        snapshot = buffer.items()
        buffer.put(b"b", b"2")
        assert snapshot == {b"a": b"1"}

    def test_items_returns_everything_in_drain_order(self):
        buffer = _cuckoo(64)
        expected = {b"k%d" % i: b"v%d" % i for i in range(20)}
        for key, value in expected.items():
            buffer.put(key, value)
        snapshot = buffer.items()
        assert snapshot == expected
        assert list(snapshot) == list(buffer.drain()[0])

    def test_bucket_count_rounds_the_slots_up_to_at_least_two(self):
        assert Buffer(capacity_items=1, num_slots=1, bloom_bits=64).num_buckets == 2
        assert Buffer(capacity_items=8, num_slots=8, bloom_bits=64).num_buckets == 2
        assert Buffer(capacity_items=9, num_slots=9, bloom_bits=64).num_buckets == 3
        assert Buffer(capacity_items=16, num_slots=16, bloom_bits=64).num_buckets == 4

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            Buffer(capacity_items=0, num_slots=8, bloom_bits=64)
        with pytest.raises(ValueError):
            Buffer(capacity_items=16, num_slots=8, bloom_bits=64)


class TestCuckooPlacement:
    def test_sustains_paper_utilisation(self):
        """The paper runs buffers at 50% utilisation; the buckets must
        comfortably hold that (and more) without refusing a put."""
        buffer = Buffer(capacity_items=200, num_slots=256, bloom_bits=256)
        assert all(buffer.put(b"key-%d" % i, b"v") for i in range(200))  # ~78% load
        assert len(buffer) == 200

    def test_overflow_is_refused_and_preserves_contents(self):
        buffer = _cuckoo(16)
        stored = {}
        for i in range(100):
            key = b"z%d" % i
            if not buffer.put(key, b"v%d" % i):
                break
            stored[key] = b"v%d" % i
        else:
            pytest.fail("a 16-slot buffer took 100 new keys")
        # Everything inserted before the refusal is still intact.
        assert len(buffer) == len(stored)
        for key, value in stored.items():
            assert buffer.get(key) == value
        assert buffer.drain()[0] == stored

    def test_a_displacement_evicts_the_slot_its_step_names(self):
        """Both buckets full: step 0 of the displacement path writes the new
        entry over slot 0 of the key's first bucket (the victim slot is
        ``step % 4``), and the victim moves to its other bucket."""
        buffer = _cuckoo(16)
        keys = [b"p%d" % i for i in range(400)]
        pairs = {other: buffer._buckets_for(as_digest(other).clam_words()) for other in keys}
        key = b"p0"
        first, second = pairs.pop(key)
        for bucket_index in (first, second):
            home = [other for other, pair in pairs.items() if pair[0] == bucket_index]
            for other in home[:4]:  # each lands in its first bucket, which has room
                assert buffer.put(other, b"v") is True
        assert None not in buffer._buckets[first] + buffer._buckets[second]
        victim = buffer._buckets[first][0]
        assert buffer.put(key, b"new") is True
        assert buffer._buckets[first][0] is buffer.entries[key]
        assert victim not in buffer._buckets[first]
        assert buffer.entries[victim[0]] is victim and buffer.get(victim[0]) == b"v"

    def test_a_cycled_path_is_refused_and_leaves_the_buffer_as_it_was(self):
        """A refused displacement path is undone slot by slot, in reverse.  The
        buffer is large enough that a path need not revisit the slot it
        displaced last, so every history entry's restore shows."""
        buffer = _cuckoo(256)
        stored = {}
        cycled = 0
        for i in range(512):
            key = b"z-%d" % i
            before = [list(bucket) for bucket in buffer._buckets]
            if buffer.put(key, b"v%d" % i):
                stored[key] = b"v%d" % i
                continue
            cycled += len(buffer) < buffer.capacity_items  # the buckets refused, not capacity
            assert buffer.get(key) is None
            assert buffer._buckets == before
        assert cycled
        # Everything put is intact, in the map and the buckets.
        for key, value in stored.items():
            assert buffer.get(key) == value
        assert buffer.drain()[0] == stored

    def test_displacement_rehomes_an_entry_by_its_carried_words(self):
        # Digests the cache has never held: re-deriving one would build it anew.
        digests = [KeyDigest(b"displaced-%d" % i) for i in range(128)]
        for digest in digests:
            digest.clam_words()
        clear_digest_cache()
        buffer = _cuckoo(64)
        cycled = 0
        with count_hash_calls() as log:
            for digest in digests:
                # Only a displacement path that ran its full length refuses below capacity.
                cycled += not buffer.put(digest, digest.data) and len(buffer) < 64
        assert cycled and log.total == 0 and log.digest_builds == 0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=12), st.binary(min_size=0, max_size=8)),
            min_size=0,
            max_size=120,
        )
    )
    def test_property_matches_dict_model(self, pairs):
        """The buffer behaves exactly like a dict for put/get, up to a refused
        put (which leaves prior contents untouched)."""
        buffer = _cuckoo(256)
        model = {}
        for key, value in pairs:
            if not buffer.put(key, value):
                break
            model[key] = value
        for key, value in model.items():
            assert buffer.get(key) == value
        assert len(buffer) == len(model)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=60, unique=True))
    def test_property_delete_removes_only_target(self, keys):
        buffer = _cuckoo(512)
        for key in keys:
            buffer.put(key, key)
        victim = keys[0]
        buffer.delete(victim)
        assert buffer.get(victim) is None
        for key in keys[1:]:
            assert buffer.get(key) == key


def _assert_map_mirrors_buckets(buffer, model):
    """The key map holds exactly the entry lists the buckets hold, and they
    hold what the dict model does."""
    placed = {}
    for bucket in buffer._buckets:
        for entry in bucket:
            if entry is not None:
                assert entry[0] not in placed
                placed[entry[0]] = entry
    assert buffer.entries.keys() == placed.keys()
    assert all(buffer.entries[key] is entry for key, entry in placed.items())
    assert {key: entry[1] for key, entry in placed.items()} == model
    assert len(buffer) == len(model)


class TestCuckooKeyMap:
    @pytest.mark.parametrize("seed", range(4))
    def test_map_mirrors_the_buckets_through_every_operation(self, seed):
        """A seeded differential run against a dict: puts of new keys (into a
        small buffer, so displacements run, cycles are refused and so are puts
        at capacity), updates, deletes of present and absent keys, and drains."""
        rng = random.Random(seed)
        buffer = _cuckoo(32)
        model = {}
        puts = 0
        counts = dict.fromkeys(("displaced", "cycled", "full", "updated", "deleted", "drained"), 0)
        for step in range(3000):
            roll = rng.random()
            if roll < 0.55:
                key = b"new-%d-%d" % (seed, step)
                before = [list(bucket) for bucket in buffer._buckets]
                if buffer.put(key, b"v%d" % step):
                    model[key] = b"v%d" % step
                    puts += 1
                    moved = sum(bucket != slots for bucket, slots in zip(buffer._buckets, before))
                    counts["displaced"] += moved > 1
                else:
                    counts["cycled" if len(buffer) < 32 else "full"] += 1
                    assert buffer.get(key) is None
                    assert buffer._buckets == before
            elif roll < 0.7 and model:
                key = rng.choice(sorted(model))
                assert buffer.put(key, b"u%d" % step) is True
                model[key] = b"u%d" % step
                puts += 1
                counts["updated"] += 1
            elif roll < 0.85:
                key = rng.choice(sorted(model)) if model and rng.random() < 0.8 else b"absent"
                assert buffer.delete(key) is (key in model)
                counts["deleted"] += model.pop(key, None) is not None
            elif roll < 0.87:
                items, key_words, item_count = buffer.drain()
                assert items == model and item_count == puts
                assert len(key_words) >= len(items)
                model, puts = {}, 0
                counts["drained"] += 1
            _assert_map_mirrors_buckets(buffer, model)
            for key, value in model.items():
                assert buffer.get(key) == value
        assert all(counts.values()), counts
