"""An index keeps nothing per operation it serves.

Its DRAM grows with the entries it holds, never with the traffic it serves:
statistics are counts, totals and maxima, and a caller that wants one latency
sample per operation keeps it itself (``WorkloadRunner``'s ``RunReport``).
Each case runs thousands of operations that add no entry and counts the
Python heap blocks the index still holds afterwards.
"""

import gc
import sys

from repro.core import CLAM, CLAMConfig
from repro.service import ClusterService

#: Blocks a warm index may gain over a whole run: interpreter free lists and
#: caches settle by a few dozen, one block per operation would be thousands.
RETAINED_BLOCK_BOUND = 64


def _config() -> CLAMConfig:
    """The end-to-end benchmark's CLAM (16 super tables x 128 x 8)."""
    return CLAMConfig.scaled(
        num_super_tables=16, buffer_capacity_items=128, incarnations_per_table=8
    )


def _retained_blocks(run) -> int:
    gc.collect()
    before = sys.getallocatedblocks()
    run()
    gc.collect()
    return sys.getallocatedblocks() - before


def test_a_clam_retains_nothing_per_lookup_or_update():
    clam = CLAM(_config())
    keys = [b"resident-%d" % number for number in range(64)]

    def lookups_and_updates(rounds: int) -> None:
        for number in range(rounds):
            key = keys[number % len(keys)]
            clam.lookup(key)
            clam.update(key, b"value")

    lookups_and_updates(len(keys))  # every key buffer-resident, every digest cached
    assert _retained_blocks(lambda: lookups_and_updates(10_000)) < RETAINED_BLOCK_BOUND
    assert clam.total_flushes == 0, "the keys must stay in the DRAM buffers"
    assert clam.stats.lookups == clam.stats.inserts == 10_064


def test_an_in_process_cluster_retains_nothing_per_batch():
    cluster = ClusterService(num_shards=2, config=_config(), storage="intel-ssd")
    keys = [b"warm-%d" % number for number in range(64)]
    cluster.insert_batch([(key, b"value") for key in keys])

    def batches(count: int) -> None:
        for _ in range(count):
            cluster.lookup_batch(keys)

    batches(3)
    assert _retained_blocks(lambda: batches(300)) < RETAINED_BLOCK_BOUND
    assert all(result.found for result in cluster.lookup_batch(keys))
