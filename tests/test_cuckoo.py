"""Tests for the bucketised cuckoo hash table used by buffers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CapacityError, CuckooHashTable
from repro.core.hashing import KeyDigest, clear_digest_cache, count_hash_calls


class TestCuckooBasics:
    def test_put_and_get(self):
        table = CuckooHashTable(64)
        table.put(b"key", b"value")
        assert table.get(b"key") == b"value"

    def test_missing_key_returns_none(self):
        assert CuckooHashTable(64).get(b"missing") is None

    def test_update_in_place(self):
        table = CuckooHashTable(64)
        table.put(b"key", b"v1")
        table.put(b"key", b"v2")
        assert table.get(b"key") == b"v2"
        assert len(table) == 1

    def test_delete(self):
        table = CuckooHashTable(64)
        table.put(b"key", b"value")
        assert table.delete(b"key") is True
        assert table.get(b"key") is None
        assert len(table) == 0

    def test_delete_missing_returns_false(self):
        assert CuckooHashTable(64).delete(b"nope") is False

    def test_contains(self):
        table = CuckooHashTable(64)
        table.put(b"key", b"value")
        assert b"key" in table
        assert b"other" not in table

    def test_items_returns_everything(self):
        table = CuckooHashTable(64)
        expected = {b"k%d" % i: b"v%d" % i for i in range(20)}
        for key, value in expected.items():
            table.put(key, value)
        assert dict(table.items()) == expected

    def test_clear(self):
        table = CuckooHashTable(64)
        table.put(b"key", b"value")
        table.drain()
        assert len(table) == 0
        assert table.get(b"key") is None

    def test_drain_hands_over_each_entry_with_the_words_it_was_put_with(self):
        table = CuckooHashTable(64)
        put = {}
        for i in range(20):
            digest = KeyDigest(b"k%d" % i)
            put[digest.data] = digest
            table.put(digest, b"v%d" % i)
        table.put(b"k3", b"updated")
        items, key_words = table.drain()
        expected = {b"k%d" % i: b"v%d" % i for i in range(20)}
        expected[b"k3"] = b"updated"
        assert items == expected
        assert all(words is put[key].words for key, words in zip(items, key_words))
        assert len(key_words) == len(items)
        assert len(table) == 0 and table.drain() == ({}, [])

    def test_load_factor(self):
        table = CuckooHashTable(64)
        for i in range(16):
            table.put(b"k%d" % i, b"v")
        assert table.load_factor() == pytest.approx(16 / table.num_slots)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            CuckooHashTable(0)


class TestCuckooCapacity:
    def test_sustains_paper_utilisation(self):
        """The paper runs buffers at 50% utilisation; the table must comfortably
        hold that (and more) without displacement failures."""
        table = CuckooHashTable(256)
        for i in range(200):  # ~78% load
            table.put(b"key-%d" % i, b"v")
        assert len(table) == 200

    def test_overflow_raises_capacity_error_and_preserves_contents(self):
        table = CuckooHashTable(8)
        stored = {}
        with pytest.raises(CapacityError):
            for i in range(100):
                key = b"z%d" % i
                table.put(key, b"v%d" % i)
                stored[key] = b"v%d" % i
        # Everything successfully inserted before the failure must still be intact.
        for key, value in stored.items():
            assert table.get(key) == value

    def test_displacement_rehomes_an_entry_by_its_carried_words(self):
        # Digests the cache has never held: re-deriving one would build it anew.
        digests = [KeyDigest(b"displaced-%d" % i) for i in range(64)]
        for digest in digests:
            digest.clam_words()
        clear_digest_cache()
        table = CuckooHashTable(16)
        with count_hash_calls() as log:
            # Only a displacement path that ran its full length raises this.
            with pytest.raises(CapacityError):
                for digest in digests:
                    table.put(digest, digest.data)
        assert log.total == 0 and log.digest_builds == 0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=12), st.binary(min_size=0, max_size=8)),
            min_size=0,
            max_size=120,
        )
    )
    def test_property_matches_dict_model(self, pairs):
        """The cuckoo table behaves exactly like a dict for put/get, up to
        capacity failures (which leave prior contents untouched)."""
        table = CuckooHashTable(256)
        model = {}
        for key, value in pairs:
            try:
                table.put(key, value)
            except CapacityError:
                break
            model[key] = value
        for key, value in model.items():
            assert table.get(key) == value
        assert len(table) == len(model)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=60, unique=True))
    def test_property_delete_removes_only_target(self, keys):
        table = CuckooHashTable(512)
        for key in keys:
            table.put(key, key)
        victim = keys[0]
        table.delete(victim)
        assert table.get(victim) is None
        for key in keys[1:]:
            assert table.get(key) == key


def _assert_map_mirrors_buckets(table, model):
    """The key map holds exactly the entry lists the buckets hold, and they
    hold what the dict model does."""
    placed = {}
    for bucket in table._buckets:
        for entry in bucket:
            if entry is not None:
                assert entry[0] not in placed
                placed[entry[0]] = entry
    assert table.entries.keys() == placed.keys()
    assert all(table.entries[key] is entry for key, entry in placed.items())
    assert {key: entry[1] for key, entry in placed.items()} == model
    assert len(table) == len(model)


class TestCuckooKeyMap:
    @pytest.mark.parametrize("seed", range(4))
    def test_map_mirrors_the_buckets_through_every_operation(self, seed):
        """A seeded differential run against a dict: puts of new keys (into a
        small table, so displacements run and cycles are refused), updates,
        deletes of present and absent keys, and drains."""
        rng = random.Random(seed)
        table = CuckooHashTable(16)
        model = {}
        counts = dict.fromkeys(("displaced", "refused", "updated", "deleted", "drained"), 0)
        for step in range(3000):
            roll = rng.random()
            if roll < 0.55:
                key = b"new-%d-%d" % (seed, step)
                before = {index: list(bucket) for index, bucket in enumerate(table._buckets)}
                try:
                    table.put(key, b"v%d" % step)
                except CapacityError:
                    counts["refused"] += 1
                    assert table.get(key) is None
                    assert all(table._buckets[index] == slots for index, slots in before.items())
                else:
                    model[key] = b"v%d" % step
                    moved = sum(
                        table._buckets[index] != slots for index, slots in before.items()
                    )
                    counts["displaced"] += moved > 1
            elif roll < 0.7 and model:
                key = rng.choice(sorted(model))
                table.put(key, b"u%d" % step)
                model[key] = b"u%d" % step
                counts["updated"] += 1
            elif roll < 0.85:
                key = rng.choice(sorted(model)) if model and rng.random() < 0.8 else b"absent"
                assert table.delete(key) is (key in model)
                counts["deleted"] += model.pop(key, None) is not None
            elif roll < 0.9:
                items, key_words = table.drain()
                assert items == model and len(key_words) == len(items)
                model = {}
                counts["drained"] += 1
            _assert_map_mirrors_buckets(table, model)
            for key, value in model.items():
                assert table.get(key) == value
        assert all(counts.values()), counts
