#!/usr/bin/env python3
"""Eviction policies in action (§5.1.2 / §7.4 of the paper).

A CLAM evicts whole incarnations, as the paper's BufferHash does.  The
default FIFO policy discards the oldest incarnation outright; LRU re-inserts
items on use so hot keys migrate to newer incarnations; update-based and
priority-based policies scan the evicted incarnation and retain the entries
that are still wanted, at the cost of extra flash reads and occasional
cascaded evictions.

Run with::

    python examples/eviction_policies.py
"""

from __future__ import annotations

from repro.core import CLAM, CLAMConfig, LRUEviction, PriorityBasedEviction


def _small_clam(policy_name="fifo", eviction_policy=None):
    config = CLAMConfig.scaled(
        num_super_tables=4,
        buffer_capacity_items=32,
        incarnations_per_table=4,
        eviction_policy_name=policy_name,
    )
    return CLAM(config, storage="transcend-ssd", eviction_policy=eviction_policy)


def fifo_demo() -> None:
    print("=== FIFO (default): oldest content ages out ===")
    clam = _small_clam("fifo")
    keys = [b"object-%04d" % i for i in range(2_000)]
    for key in keys:
        clam.insert(key, b"fingerprint-location")
    oldest_found = sum(1 for key in keys[:200] if clam.lookup(key).found)
    newest_found = sum(1 for key in keys[-200:] if clam.lookup(key).found)
    print(f"oldest 200 keys still present: {oldest_found}")
    print(f"newest 200 keys still present: {newest_found}")
    print(f"evictions performed: {clam.total_evictions}")
    print()


def lru_demo() -> None:
    print("=== LRU: frequently used keys keep getting re-inserted ===")
    clam = _small_clam(eviction_policy=LRUEviction())
    hot = [b"hot-%d" % i for i in range(20)]
    cold = [b"cold-%d" % i for i in range(20)]
    for key in hot + cold:
        clam.insert(key, b"v")
    for round_number in range(25):
        for key in hot:
            clam.lookup(key)  # touching a key re-inserts it (asynchronously)
        for i in range(60):
            clam.insert(b"churn-%d-%d" % (round_number, i), b"x")
    print(f"hot keys surviving:  {sum(1 for k in hot if clam.lookup(k).found)}/20")
    print(f"cold keys surviving: {sum(1 for k in cold if clam.lookup(k).found)}/20")
    print()


def update_demo() -> None:
    print("=== Update-based partial discard: only stale entries are dropped ===")
    clam = _small_clam("update")
    stable = [b"stable-%d" % i for i in range(20)]
    for key in stable:
        clam.insert(key, b"v1")
    volatile = [b"volatile-%d" % i for i in range(400)]
    for round_number in range(15):
        # Updating the volatile keys leaves stale copies on flash that the
        # update-based policy discards at eviction time, while the untouched
        # stable keys are retained and re-inserted.
        for key in volatile:
            clam.insert(key, b"round-%d" % round_number)
    print(f"stable keys surviving: {sum(1 for k in stable if clam.lookup(k).found)}/20")
    print(f"latest volatile value correct: "
          f"{clam.lookup(volatile[0]).value == b'round-14'}")
    histogram = clam.cascade_histogram()
    cascaded = sum(count for tried, count in histogram.items() if tried > 1)
    print(f"flushes with cascaded evictions: {cascaded} of {sum(histogram.values())}")
    print(f"mean insert latency: {clam.stats.mean_insert_latency_ms:.4f} ms "
          "(higher than FIFO's because evictions now scan flash)")
    print()


def priority_demo() -> None:
    print("=== Priority-based partial discard: keep what the application values ===")
    policy = PriorityBasedEviction(
        priority_fn=lambda key, value: float(value[:1] == b"H"),
        threshold=0.5,
        retain_top_k=64,  # loosened semantics (§7.4) to bound cascades
    )
    clam = _small_clam(eviction_policy=policy)
    for i in range(40):
        clam.insert(b"gold-%d" % i, b"H" + b"x" * 7)
    for i in range(3_000):
        clam.insert(b"bulk-%d" % i, b"L" + b"y" * 7)
    gold = sum(1 for i in range(40) if clam.lookup(b"gold-%d" % i).found)
    bulk = sum(1 for i in range(40) if clam.lookup(b"bulk-%d" % i).found)
    print(f"high-priority keys surviving: {gold}/40")
    print(f"early low-priority keys surviving: {bulk}/40")


if __name__ == "__main__":
    fifo_demo()
    lru_demo()
    update_demo()
    priority_demo()
