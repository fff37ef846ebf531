"""The Bloom filter a flush writes equals the one the buffer used to build.

The buffer does no Bloom work: a flush writes the new incarnation's filter
once, from the CLAM words the buffer kept, into its column of the bit-sliced
array.  Before that, ``Buffer.put`` added every key it accepted to a
per-buffer ``BloomFilter`` and ``drain`` handed that filter over; a cascade
(retained items written as the next incarnation) built one from the items.
These tests replay seeded streams of puts, updates, buffer deletes and
refused puts — a full buffer and a cuckoo path that cycled — into a record of
the keys ``Buffer.put`` used to add, and compare every flushed incarnation's
column with the reference filter of those keys (:mod:`bloom_reference`): bit
array and ``item_count``.
"""

import random

import pytest

from bloom_reference import reference_column
from repro.core import UpdateBasedEviction, WholeDeviceLogStore
from repro.core.incarnation import iter_page_entries
from repro.core.supertable import SuperTable
from repro.flashsim import SSD, SimulationClock


class ReferenceFilters:
    """What the buffer's own filter held, kept beside one table.

    Wraps the table's ``buffer.put`` and ``buffer.drain`` on the instance:
    every accepted put adds its key to the live list, and a drain files the
    list under the id of the incarnation the flush writes next.
    """

    def __init__(self, table: SuperTable) -> None:
        buffer = table.buffer
        self.geometry = (buffer.bloom_hashes, buffer.bloom_bits)
        self.live = []
        self.by_incarnation = {}
        self.refused = {"full": 0, "cycle": 0}
        put, drain = buffer.put, buffer.drain

        def recording_put(key, value):
            full = len(buffer) >= buffer.capacity_items and buffer.get(key) is None
            accepted = put(key, value)
            if accepted:
                self.live.append(key)
            else:
                self.refused["full" if full else "cycle"] += 1
            return accepted

        def recording_drain():
            self.by_incarnation[table.next_incarnation_id] = self.column(self.live)
            self.live = []
            return drain()

        buffer.put = recording_put
        buffer.drain = recording_drain

    def column(self, keys):
        """``column_bytes`` of a filter that added ``keys``, one count each."""
        return reference_column(keys, *self.geometry), len(keys)

    def cascade_filter(self, table: SuperTable, handle):
        """The filter the cascade built: one over the incarnation's items."""
        pages, _latency = table.store.read_incarnation(handle.address, handle.num_pages)
        return self.column([key for image in pages for key, _value in iter_page_entries(image)])


def _table(capacity, bloom_bits, max_incarnations):
    clock = SimulationClock()
    ssd = SSD(clock=clock)
    return SuperTable(
        table_id=0,
        store=WholeDeviceLogStore(ssd),
        clock=clock,
        buffer_capacity_items=capacity,
        buffer_slots=capacity,  # utilisation 1.0: cuckoo paths cycle
        max_incarnations=max_incarnations,
        page_size=ssd.geometry.page_size,
        pages_per_incarnation=max(2, capacity // 16),
        bloom_bits=bloom_bits,
        eviction_policy=UpdateBasedEviction(),
    )


@pytest.mark.parametrize(
    "capacity, bloom_bits, operations",
    [(128, 2048, 6000), (20, 300, 3000)],
    ids=["m2048-walked", "m300-listed"],
)
@pytest.mark.parametrize("seed", [1, 2])
def test_every_flushed_filter_equals_the_reference(capacity, bloom_bits, operations, seed):
    table = _table(capacity, bloom_bits, max_incarnations=3)
    reference = ReferenceFilters(table)
    rng = random.Random(seed)
    recent = []
    hot = [b"hot-%d" % i for i in range(capacity)]
    reached = {"drained": 0, "cascaded": 0, "buffer_deletes": 0, "buffer_updates": 0}
    for step in range(operations):
        value = b"v%d" % step
        seen = set(table.incarnation_handles)
        roll = rng.random()
        if roll < 0.6 or not recent:
            key = b"fresh-%d-%d" % (seed, step)
            recent.append(key)
            table.insert(key, value)
        elif roll < 0.7:  # a recent key: often still in the buffer
            key = rng.choice(recent[-capacity // 2 :])
            reached["buffer_deletes"] += table.delete(key).removed_from_buffer
        else:
            key = rng.choice(recent[-capacity // 2 :]) if roll < 0.85 else rng.choice(hot)
            reached["buffer_updates"] += table.buffer.get(key) is not None
            table.insert(key, value)
        for handle in table.incarnation_handles:
            if handle in seen:
                continue
            expected = reference.by_incarnation.get(handle.incarnation_id)
            if expected is None:
                expected = reference.cascade_filter(table, handle)
                reached["cascaded"] += 1
            else:
                reached["drained"] += 1
            assert table.column_bytes(handle) == expected, (step, handle)
    # The streams reach every case they are meant to.
    assert min(reached.values()) > 0, reached
    assert min(reference.refused.values()) > 0, reference.refused
