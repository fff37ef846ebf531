"""Tests for a single super table (buffer + incarnations + Bloom filters)."""

import random

import pytest

from repro.core import (
    CLAM,
    CLAMConfig,
    LRUEviction,
    PriorityBasedEviction,
    ServedFrom,
    UpdateBasedEviction,
    WholeDeviceLogStore,
)
from repro.core.config import BLOOM_PROBE_PER_INCARNATION_MS, BLOOM_SLICED_QUERY_MS
from repro.core.config import BUFFER_OP_MS, DELETE_LIST_PROBE_MS
from repro.core.supertable import SuperTable
from repro.flashsim import SSD, SimulationClock


def _super_table(
    buffer_capacity=16,
    max_incarnations=4,
    eviction_policy=None,
    use_bloom_filters=True,
    use_bit_slicing=True,
    buffer_slots=None,
):
    clock = SimulationClock()
    ssd = SSD(clock=clock)
    store = WholeDeviceLogStore(ssd)
    return SuperTable(
        table_id=0,
        store=store,
        clock=clock,
        buffer_capacity_items=buffer_capacity,
        buffer_slots=buffer_slots or buffer_capacity * 2,
        max_incarnations=max_incarnations,
        page_size=ssd.geometry.page_size,
        pages_per_incarnation=2,
        bloom_bits=buffer_capacity * 16,
        eviction_policy=eviction_policy,
        use_bloom_filters=use_bloom_filters,
        use_bit_slicing=use_bit_slicing,
    )


def _fill(table, count, prefix=b"key"):
    keys = []
    for i in range(count):
        key = b"%s-%d" % (prefix, i)
        table.insert(key, b"value-%d" % i)
        keys.append(key)
    return keys


class TestInsertAndLookup:
    def test_insert_then_lookup_from_buffer(self):
        table = _super_table()
        table.insert(b"key", b"value")
        result = table.lookup(b"key")
        assert result.value == b"value"
        assert result.served_from is ServedFrom.BUFFER
        assert result.flash_reads == 0

    def test_lookup_missing_key(self):
        table = _super_table()
        result = table.lookup(b"missing")
        assert result.value is None
        assert result.served_from is ServedFrom.MISSING

    def test_flush_happens_when_buffer_fills(self):
        table = _super_table(buffer_capacity=8)
        _fill(table, 20)
        assert table.flush_count >= 2
        assert table.incarnation_count >= 2

    def test_lookup_from_incarnation_after_flush(self):
        table = _super_table(buffer_capacity=8)
        keys = _fill(table, 9)  # forces one flush of the first 8 keys
        result = table.lookup(keys[0])
        assert result.value == b"value-0"
        assert result.served_from is ServedFrom.INCARNATION
        assert result.flash_reads >= 1

    def test_all_recent_keys_retained(self):
        table = _super_table(buffer_capacity=8, max_incarnations=4)
        keys = _fill(table, 32)  # exactly within retention (4 incarnations + buffer)
        for key in keys[-32:]:
            assert table.lookup(key).found

    def test_oldest_keys_evicted_fifo(self):
        table = _super_table(buffer_capacity=8, max_incarnations=2)
        keys = _fill(table, 64)
        assert not table.lookup(keys[0]).found
        assert table.lookup(keys[-1]).found
        assert table.eviction_count > 0

    def test_insert_reports_flush_latency(self):
        table = _super_table(buffer_capacity=4)
        results = [table.insert(b"k%d" % i, b"v") for i in range(6)]
        flushed = [r for r in results if r.flushed]
        assert flushed
        assert all(r.flush_latency_ms > 0 for r in flushed)
        assert all(r.latency_ms >= r.flush_latency_ms for r in flushed)

    def test_incarnation_count_capped(self):
        table = _super_table(buffer_capacity=4, max_incarnations=3)
        _fill(table, 100)
        assert table.incarnation_count <= 3


class TestLazyUpdateAndDelete:
    def test_update_in_buffer_is_in_place(self):
        table = _super_table()
        table.insert(b"key", b"v1")
        table.update(b"key", b"v2")
        assert table.lookup(b"key").value == b"v2"
        assert len(table.buffer) == 1

    def test_update_after_flush_shadows_old_value(self):
        table = _super_table(buffer_capacity=8)
        table.insert(b"key", b"v1")
        _fill(table, 10, prefix=b"filler")  # push the key to flash
        table.update(b"key", b"v2")
        assert table.lookup(b"key").value == b"v2"

    def test_newest_value_wins_across_incarnations(self):
        table = _super_table(buffer_capacity=4)
        table.insert(b"key", b"v1")
        _fill(table, 5, prefix=b"fill-a")
        table.insert(b"key", b"v2")
        _fill(table, 5, prefix=b"fill-b")
        table.insert(b"key", b"v3")
        _fill(table, 5, prefix=b"fill-c")
        assert table.lookup(b"key").value == b"v3"

    def test_delete_from_buffer(self):
        table = _super_table()
        table.insert(b"key", b"value")
        result = table.delete(b"key")
        assert result.removed_from_buffer is True
        assert not table.lookup(b"key").found

    def test_delete_of_flushed_key_uses_delete_list(self):
        table = _super_table(buffer_capacity=8)
        table.insert(b"key", b"value")
        _fill(table, 10, prefix=b"filler")
        table.delete(b"key")
        lookup = table.lookup(b"key")
        assert not lookup.found
        assert lookup.served_from is ServedFrom.DELETED

    def test_reinsert_after_delete_revives_key(self):
        table = _super_table(buffer_capacity=8)
        table.insert(b"key", b"v1")
        _fill(table, 10, prefix=b"filler")
        table.delete(b"key")
        table.insert(b"key", b"v2")
        assert table.lookup(b"key").value == b"v2"


class TestBloomFilterBehaviour:
    def test_miss_usually_needs_no_flash_reads(self):
        table = _super_table(buffer_capacity=8)
        _fill(table, 40)
        misses = [table.lookup(b"absent-%d" % i) for i in range(200)]
        no_io = sum(1 for result in misses if result.flash_reads == 0)
        assert no_io / len(misses) > 0.95

    def test_without_bloom_filters_misses_scan_incarnations(self):
        table = _super_table(buffer_capacity=8, max_incarnations=4, use_bloom_filters=False)
        _fill(table, 40)
        result = table.lookup(b"absent")
        assert result.flash_reads >= table.incarnation_count

    def test_bit_sliced_and_naive_agree(self):
        sliced = _super_table(buffer_capacity=8, use_bit_slicing=True)
        naive = _super_table(buffer_capacity=8, use_bit_slicing=False)
        for i in range(40):
            key, value = b"key-%d" % i, b"value-%d" % i
            sliced.insert(key, value)
            naive.insert(key, value)
        for i in range(40):
            key = b"key-%d" % i
            assert sliced.lookup(key).value == naive.lookup(key).value
        for i in range(40):
            key = b"no-%d" % i
            assert sliced.lookup(key).found == naive.lookup(key).found


class TestBloomQueryCharge:
    """What a miss no filter admits is charged (§5.1.3): delete list, buffer
    probe, then one probe per incarnation without bit slicing or one flat
    sliced query with it, and no Bloom charge while nothing is on flash."""

    @staticmethod
    def _miss_latency(incarnations, use_bit_slicing):
        table = _super_table(
            buffer_capacity=8, max_incarnations=16, use_bit_slicing=use_bit_slicing
        )
        _fill(table, 8 * incarnations + 1 if incarnations else 4)
        assert table.incarnation_count == incarnations
        misses = (table.lookup(b"absent-%d" % i) for i in range(1000))
        return next(result.latency_ms for result in misses if result.flash_reads == 0)

    @pytest.mark.parametrize("use_bit_slicing", [True, False])
    def test_zero_incarnations_cost_nothing(self, use_bit_slicing):
        latency = self._miss_latency(0, use_bit_slicing)
        assert latency == DELETE_LIST_PROBE_MS + BUFFER_OP_MS

    def test_per_incarnation_probes_scale_with_incarnations(self):
        one = self._miss_latency(1, use_bit_slicing=False)
        four = self._miss_latency(4, use_bit_slicing=False)
        base = DELETE_LIST_PROBE_MS + BUFFER_OP_MS
        assert one == base + BLOOM_PROBE_PER_INCARNATION_MS
        assert four == base + BLOOM_PROBE_PER_INCARNATION_MS * 4
        assert four > one

    def test_the_sliced_query_is_flat(self):
        one = self._miss_latency(1, use_bit_slicing=True)
        four = self._miss_latency(4, use_bit_slicing=True)
        assert one == four == DELETE_LIST_PROBE_MS + BUFFER_OP_MS + BLOOM_SLICED_QUERY_MS

    def test_bit_slicing_cheaper_at_sixteen_incarnations(self):
        sliced = self._miss_latency(16, use_bit_slicing=True)
        naive = self._miss_latency(16, use_bit_slicing=False)
        assert sliced < naive


class TestEvictionPolicies:
    def test_lru_reinserts_on_flash_hit(self):
        table = _super_table(buffer_capacity=8, eviction_policy=LRUEviction())
        table.insert(b"hot", b"value")
        _fill(table, 10, prefix=b"filler")
        assert table.buffer.get(b"hot") is None  # pushed to flash
        table.lookup(b"hot")
        assert table.buffer.get(b"hot") == b"value"  # re-inserted on use
        assert table.reinsert_latency_total_ms > 0

    def test_update_based_eviction_retains_live_items(self):
        table = _super_table(
            buffer_capacity=8, max_incarnations=2, eviction_policy=UpdateBasedEviction()
        )
        keys = _fill(table, 8)  # first incarnation
        # Update half of them so the originals become stale.
        for key in keys[:4]:
            table.update(key, b"new")
        # Keep inserting to force eviction of the first incarnation.
        _fill(table, 40, prefix=b"more")
        # Un-updated keys from the first incarnation should have been retained
        # (re-inserted), so they are still found.
        found = sum(1 for key in keys[4:] if table.lookup(key).found)
        assert found >= 3

    def test_priority_eviction_cascades_are_recorded(self):
        policy = PriorityBasedEviction(priority_fn=lambda k, v: 1.0, threshold=0.0)
        table = _super_table(buffer_capacity=8, max_incarnations=2, eviction_policy=policy)
        _fill(table, 80)
        histogram = table.cascade_histogram
        assert sum(histogram.values()) == table.flush_count
        # Retaining everything forces cascaded evictions (more than one
        # incarnation tried on some flushes).
        assert any(tried > 1 for tried in histogram)

    def test_snapshot_items_reflects_live_state(self):
        table = _super_table(buffer_capacity=8)
        keys = _fill(table, 20)
        table.delete(keys[-1])
        snapshot = table.snapshot_items()
        assert keys[0] in snapshot or table.incarnation_count < 3  # retained unless evicted
        assert keys[-1] not in snapshot


class TestARefilledBuffer:
    """Update-based eviction at high buffer utilisation: an eviction retains
    nearly a buffer's worth, and putting it back can leave no room."""

    @pytest.mark.parametrize("buffer_slots", [32, 36])
    def test_the_insert_that_flushed_always_lands(self, buffer_slots):
        """A buffer of 32 items in 32 or 36 cuckoo slots: the put-back refuses
        retained items, and a put-back that leaves no room for the insert's
        own key takes a second flush; the key lands either way."""
        table = _super_table(
            buffer_capacity=32,
            max_incarnations=4,
            eviction_policy=UpdateBasedEviction(),
            buffer_slots=buffer_slots,
        )
        refusals = second_flushes = 0
        in_flush = []
        put, write_out = table.buffer.put, table._flush

        def recording_put(key, value):
            nonlocal refusals
            accepted = put(key, value)
            refusals += bool(in_flush) and not accepted
            return accepted

        def recording_flush(result, put_back):
            nonlocal second_flushes
            second_flushes += not put_back
            in_flush.append(True)
            try:
                return write_out(result, put_back)
            finally:
                in_flush.pop()

        table.buffer.put = recording_put
        table._flush = recording_flush
        rng = random.Random(0)
        hot = [b"hot-%04d" % i for i in range(300)]
        fresh = 0
        for i in range(4000):
            if rng.random() < 0.5:
                key = rng.choice(hot)
            else:
                key, fresh = b"fresh-%06d" % fresh, fresh + 1
            table.insert(key, b"v%d" % i)
            assert table.lookup(key).value == b"v%d" % i
        assert refusals > 0 and second_flushes > 0, (refusals, second_flushes)

    def test_a_retained_item_the_buffer_refuses_is_written(self):
        table = _super_table(
            buffer_capacity=32,
            max_incarnations=4,
            eviction_policy=UpdateBasedEviction(),
            buffer_slots=32,
        )
        refused = {}
        in_flush = []
        put, flush = table.buffer.put, table.flush

        def recording_put(key, value):
            accepted = put(key, value)
            if in_flush and not accepted:
                refused[bytes(key)] = value
            return accepted

        def recording_flush():
            in_flush.append(True)
            try:
                return flush()
            finally:
                in_flush.pop()

        table.buffer.put = recording_put
        table.flush = recording_flush
        rng = random.Random(0)
        hot = [b"hot-%04d" % i for i in range(150)]
        reached = 0
        for i in range(3000):
            key = rng.choice(hot) if rng.random() < 0.5 else b"fresh-%06d" % i
            table.insert(key, b"v%d" % i)
            refused.pop(key, None)  # the insert's own key lands after, with its new value
            for retained_key, value in refused.items():
                assert table.lookup(retained_key).value == value, (i, retained_key)
            reached += len(refused)
            refused.clear()
        assert reached > 0
