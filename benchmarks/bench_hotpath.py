"""Hot-path microbenchmark: what one CLAM operation costs in wall-clock time.

BufferHash's premise is that an operation costs a handful of cheap in-memory
hash operations plus at most one flash read.  In pure Python the "cheap" part
is the part to watch, so this benchmark times the shipped per-operation path
with real wall-clock (it measures the implementation, not the simulated
device model) and counts how often key bytes are walked:

* ``hotpath`` — the headline insert/lookup microbench: a buffer-resident
  working set (no flushes) driven with interleaved insert+lookup rounds.
  This isolates the DRAM hot path the paper calls "a handful of in-memory
  hash operations".  It is timed as :data:`PASSES` passes of at least
  :data:`PASS_SECONDS` each and reported as their median.
* ``steady_state`` — a flash-touching steady state (buffers full, 8
  incarnations per super table) driven with a lookup/update mix: the honest
  end-to-end number, bounded by flash-page simulation.

* ``cache_overflow`` — the hotpath loop over three times as many distinct
  keys as the cross-operation digest cache holds while the loop's CLAM is
  alive (its retention, 24,576), so two thirds of the keys evict a cached
  digest.  Same sizes in ``--quick`` and full runs; what is
  kept are two same-run ratios that ``benchmarks/ratchet.py`` holds — the
  loop's rate over the ``hotpath`` rate, and its evicting part over its
  cache-filling part.  A digest-cache eviction that costs more than O(1)
  halves both; ``hotpath`` fits the cache and cannot see such a cliff.

* ``hash_once`` — two same-run, host-independent readings of "a key is hashed
  once": ``cold_key_fused_speedup`` (six single-seed ``fnv1a_64`` passes over
  a set of 20-byte keys ÷ one fused ``clam_words`` traversal of each) and
  ``wire_repeat_traversals_per_op`` (key traversals per operation when a
  shard worker is sent the same batch frame a second time: decoding interns
  keys in the worker's digest cache, so exactly 0).  ``benchmarks/ratchet.py``
  holds a floor of 1.5 on the first and the second exactly.

* ``digest_memory`` — DRAM a cached key costs, in two readings of warm
  digests (six CLAM words hashed, one Bloom probe of the standard geometry
  made): ``warm_digest_bytes``, the ``sys.getsizeof`` sum of what one digest
  owns (:func:`digest_owned`: itself and what it reaches, not its class and
  not its key bytes), and ``bytes_per_cached_key``, tracemalloc's bytes per
  key over :data:`DIGEST_MEMORY_KEYS` 20-byte keys brought into the digest
  cache with no index alive (digest, words, cache entry; the key bytes
  existed before).  Same sizes in ``--quick`` and full runs;
  ``benchmarks/ratchet.py`` holds the first exactly and both under a ceiling.

* ``index_memory`` — DRAM per indexed key of the standard CLAM
  (:func:`run_index_memory`), read twice: with its FIFO windows first full
  and in steady state, once every window has turned over
  :data:`STEADY_STATE_LAPS` times.  Each reading is tracemalloc's bytes per
  key it holds, in three tags — the digest cache, the simulated flash media
  (not DRAM in the paper's model) and index DRAM, with the bit-sliced Bloom
  arrays' part of the last.  Same sizes in ``--quick`` and full runs;
  ``benchmarks/ratchet.py`` holds the totals, the window-full index-DRAM tag
  and the steady-state media under ceilings.

* ``hash_calls_per_op`` — traversals of the key bytes per operation, by
  layer, counted with :func:`repro.core.hashing.count_hash_calls`: a cold key
  is digested once and walked exactly once (one fused traversal yields all
  six CLAM words, logged as ``fnv_clam_words``), a cached key never.  These
  exact counts are the rot detector: they hold on any host, and any layer
  that starts hashing key bytes on its own breaks them.

* ``call_budget`` — exact ``sys.setprofile`` counts of the Python frames and
  C calls between entering and leaving ``CLAM.lookup`` / ``CLAM.insert`` (that
  frame included, the key handed in as ``bytes``) on the standard CLAM (the
  end-to-end benchmark's 16 x 128 x 8 on the Intel SSD), by outcome class:
  served by one or by two page reads, a buffer hit, a Bloom-negative cold
  miss, an insert of a known key, an insert that flushes — and allocated
  blocks per kept ``LookupResult``.  Same sizes in ``--quick`` and full runs,
  and exact: ``benchmarks/ratchet.py`` holds each against the committed count
  as a ceiling and ``tests/test_core_call_budget.py`` against the budget.

* ``page_search`` — microseconds and C calls of one ``search_page`` over a
  page image of 8, 16, 64 and 128 uniform entries (20-byte keys, 8-byte
  values: 16 per 512-byte page up to the paper's 4 KB pages) and of 16 entries
  of mixed lengths, for a key that is there and one that is not.  Same sizes
  in ``--quick`` and full runs.  The invariant is the point of the columnar
  page: a hit among 128 entries costs the C calls of a hit among 8 and at
  most twice its time.

* ``flush`` — wall-clock microseconds of one buffer flush of the same CLAM
  under a stream of new keys, and the shares of it spent draining the buffer,
  building page images, writing them to the device, writing the new
  incarnation's Bloom filter into its column of the bit-sliced array and
  clearing the evicted incarnation's column.

* ``telemetry_ablation`` — every ``hotpath`` pass has three arms (the
  baseline, telemetry off spelled out, telemetry on) that take turns one
  sweep of the key set at a time; the two floors (off within 5 % of the
  baseline, on at least half of off) are held on the median of the per-pass
  ratios, so a host that speeds up or slows down mid-run reaches every arm
  alike.

There is no live "before": the per-layer re-hashing pipeline and big-int
Bloom storage this path replaced were deleted once their last measurement was
on record — see ``seed_reference`` in the output.

Results go to stdout (tables) and ``BENCH_hotpath.json`` —
``BENCH_hotpath_quick.json`` with ``--quick`` — (machine readable, see
``benchmarks/common.py``).  Run directly::

    PYTHONPATH=src:. python benchmarks/bench_hotpath.py [--quick] [--json PATH]

or through pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_hotpath.py -q -s
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import time
import tracemalloc
from contextlib import contextmanager
from statistics import median
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from benchmarks.common import (
    add_telemetry_arg,
    count_calls,
    dump_telemetry,
    print_table,
    standard_clam,
    write_bench_json,
)
from benchmarks.ratchet import assert_fraction
from repro.core import CLAM, CLAMConfig, supertable
from repro.core.buffer import Buffer
from repro.core.hashing import (
    CLAM_SEEDS,
    KeyDigest,
    as_digest,
    clam_words,
    clear_digest_cache,
    count_hash_calls,
    digest_cache_info,
    fnv1a_64,
)
from repro.core.incarnation import build_pages, search_page
from repro.core.results import ServedFrom
from repro.core.sliced_bloom import BitSlicedBloomArray
from repro.flashsim.device import StorageDevice
from repro.service import wire
from repro.service.shard import apply_batch
from repro.telemetry import build_snapshot
from repro.workloads.keygen import fingerprint_for
from repro.workloads.workload import OpKind

#: Workload sizes: full run and --quick (CI smoke) variants.
FULL = {"hot_keys": 4000, "steady_keys": 16000, "steady_ops": 16000, "flush_keys": 48000}
QUICK = {"hot_keys": 1500, "steady_keys": 6000, "steady_ops": 6000, "flush_keys": 16000}

#: Ceilings on the mean Python frames of ``call_budget``'s outcome classes (in
#: the comment, what each read at ``604ebec``, before the budget was first set).
#: The counts do not move with the host; a ceiling set from one interpreter's
#: reading keeps a few per cent over it for the others CI runs.
CALL_BUDGET = {
    "lookup_one_read": 10,  # 31
    "lookup_two_reads": 13,  # 43.1
    "lookup_buffer_hit": 7,  # 12
    "lookup_cold_miss": 11,  # 21
    "insert": 7,  # 15.0
    "insert_flush": 60,  # 1,863
}

#: Ceilings on the mean C calls of the classes whose C calls once grew with the
#: entries on a page (in the comment, what each read at ``837f393``, when
#: ``search_page`` walked a row-wise page entry by entry).
C_CALL_BUDGET = {
    "lookup_one_read": 8,  # 20.57
    "lookup_two_reads": 12,  # 47.42
    "insert_flush": 665,  # 2,029.2
}

#: ``page_search`` page shapes: uniform entry counts, and the mixed page's.
PAGE_SEARCH_UNIFORM = (8, 16, 64, 128)
PAGE_SEARCH_MIXED = 16

#: ``hotpath`` is timed as this many passes of at least this long each, in
#: ``--quick`` and full runs alike: a 15 ms timed loop reads 25 % off on a
#: shared two-core runner one run in three, a median of 0.2 s passes does not.
PASSES = 5
PASS_SECONDS = 0.2

#: ``cache_overflow`` distinct keys, as a multiple of the digest-cache capacity
#: (quick and full alike: the eviction cost being guarded grows with the
#: capacity, not with the run length).
OVERFLOW_FACTOR = 3

#: ``digest_memory``: warm keys whose traced bytes are averaged (fewer than
#: the digest cache holds with no index alive, so every one stays cached).
DIGEST_MEMORY_KEYS = 40_000

#: ``index_memory`` tags after the digest cache's: path fragments of the files
#: whose allocations are simulated flash media (page images, device maps).
FLASH_MEDIA_FILES = ("repro/flashsim/", "repro/core/incarnation.py")

#: The file whose allocations are the bit-sliced Bloom arrays (a byte slab each).
SLICED_BLOOM_FILE = "repro/core/sliced_bloom.py"

#: ``index_memory``'s steady-state reading: FIFO-window turnovers of every super table.
STEADY_STATE_LAPS = 4

#: Ceiling on ``digest_memory.warm_digest_bytes`` (564 with a tuple of words
#: and a memo of 11 Bloom positions; six words in one array read 208).
WARM_DIGEST_BYTES_CEILING = 220

#: Absolute anchors for the trajectory, recorded once with the FULL workloads
#: (single 24,000-operation timed loops) and never re-measured; what each is
#: is said in the ``comment`` that :func:`report` writes beside them.
SEED_REFERENCE = {
    "hotpath_ops_per_sec": 56576.6,
    "steady_ops_per_sec": 26712.4,
    "rehash_per_layer": {
        "hotpath_ops_per_sec": 38817.0,
        "steady_ops_per_sec": 24747.3,
        "lookup_traversals_per_op": 5.505,
        "insert_traversals_per_op": 5.0,
        "same_run_hash_once": {"hotpath_ops_per_sec": 260250.8, "steady_ops_per_sec": 79241.6},
        "speedup": {"hotpath": 6.7, "steady_state": 3.2},
    },
}

VALUE = b"v" * 8


def hotpath_clam(telemetry: bool = False) -> CLAM:
    """Buffers sized so the hotpath working set never flushes to flash."""
    config = CLAMConfig.scaled(
        num_super_tables=4,
        buffer_capacity_items=2048,
        incarnations_per_table=2,
        telemetry_enabled=telemetry,
    )
    return CLAM(config, storage="intel-ssd")


def steady_clam() -> CLAM:
    """The standard scaled configuration: small buffers, 8 incarnations."""
    config = CLAMConfig.scaled(
        num_super_tables=16, buffer_capacity_items=128, incarnations_per_table=8
    )
    return CLAM(config, storage="intel-ssd")


def sweep_seconds(clam: CLAM, keys) -> float:
    """Wall-clock seconds of one insert-then-lookup sweep over ``keys``."""
    start = time.perf_counter()
    for key in keys:
        clam.insert(key, VALUE)
        clam.lookup(key)
    return time.perf_counter() - start


def run_hotpath(sizes: Dict[str, int], clams: Sequence[CLAM]) -> List[float]:
    """Ops/sec of the buffer-resident insert+lookup loop, one figure per arm.

    An arm is one of ``clams`` (fresh :func:`hotpath_clam` instances), filled
    with the key set before timing starts.  The arms take turns, one sweep of
    the key set (milliseconds) at a time, until each has :data:`PASS_SECONDS`
    on its clock — so when the host speeds up or slows down mid-pass, which a
    shared runner does by a fifth for seconds at a time, every arm sees it
    alike.
    """
    clear_digest_cache()
    keys = [b"hotkey-%08d" % i for i in range(sizes["hot_keys"])]
    for clam in clams:
        for key in keys:  # cold fill, not timed
            clam.insert(key, VALUE)
        assert clam.total_flushes == 0, "hotpath workload must stay in DRAM"
    seconds = [0.0] * len(clams)
    sweeps = 0
    while min(seconds) < PASS_SECONDS:
        for arm, clam in enumerate(clams):
            seconds[arm] += sweep_seconds(clam, keys)
        sweeps += 1
    return [2 * len(keys) * sweeps / spent for spent in seconds]


def run_hotpath_passes(sizes: Dict[str, int]):
    """The headline ``hotpath`` rate and the telemetry off/on A/B, from
    :data:`PASSES` three-arm passes; also returns the last pass's snapshot.

    The arms are the baseline (the default configuration every other number
    in this file is measured with), ``telemetry_enabled=False`` spelled out,
    and ``telemetry_enabled=True``.  ``off_over_baseline`` and ``on_over_off``
    are medians of the per-pass ratios: the first says the disabled
    instrumentation (a cached ``None`` check per operation) costs nothing and
    that two samples of one configuration agree to within the 5 % the floor
    allows, i.e. that the run is quiet enough for the second to mean
    something; the second prices two histogram observations per operation.
    """
    passes = []
    for _ in range(PASSES):
        clams = [hotpath_clam(), hotpath_clam(telemetry=False), hotpath_clam(telemetry=True)]
        passes.append(run_hotpath(sizes, clams))
    ablation = {
        "passes": PASSES,
        "off_ops_per_sec": round(median(off for _, off, _ in passes), 1),
        "on_ops_per_sec": round(median(on for _, _, on in passes), 1),
        "off_over_baseline": round(median(off / baseline for baseline, off, _ in passes), 4),
        "on_over_off": round(median(on / off for _, off, on in passes), 4),
    }
    hotpath = round(median(baseline for baseline, _, _ in passes), 1)
    return hotpath, ablation, build_snapshot(per_shard={"clam": clams[-1].telemetry})


def blocks_ceiling(kept_results: int) -> int:
    """Allocated blocks ``kept_results`` kept ``LookupResult`` may cost: three
    each — the record, its latency float, its value bytes; a ``__dict__`` made
    it four — and a constant handful for the measuring loop itself."""
    return 3 * kept_results + 16


def measure_call_budget() -> Dict[str, Dict[str, float]]:
    """Exact frames and C calls per CLAM operation, by outcome class.

    One seeded script on :func:`standard_clam`: 12,000 new fingerprints go in
    (``insert_new_key``; those that flush a buffer are ``insert_flush``), the
    newest 2,000 go in again (``insert``: the digest is cached), then every third
    key is looked up (``lookup_buffer_hit``, ``lookup_one_read``,
    ``lookup_two_reads``) and 2,000 absent ones after them
    (``lookup_cold_miss``: the digest is built, the Bloom filters say no).
    The lookups start right after a flush, so the first few find the SSD's
    clean pool still refilling and take :meth:`SSD._read_latency`'s full route
    — ``lookup_one_read_pool_refilling``, four frames dearer, shown so that
    route stays in sight; the budget is on the steady state.

    Per class: ``samples``, the mean ``python_frames`` and ``c_calls`` (exact
    too: the script is seeded) and the fewest and most frames any sample took
    — equal for a class with one code path; an insert that displaces a cuckoo
    entry, or a second read that is an overflow probe and not a second
    candidate, is a frame or two off its class's usual.
    """
    clear_digest_cache()
    clam = standard_clam()
    device = clam.device
    keys = [fingerprint_for(i, namespace=b"budget") for i in range(12_000)]
    seen: Dict[str, List[Tuple[int, int]]] = {}

    def insert(key: bytes, known: bool) -> None:
        frames, c_calls, result = count_calls(clam.insert, key, VALUE)
        name = "insert_flush" if result.flushed else "insert" if known else "insert_new_key"
        seen.setdefault(name, []).append((frames, c_calls))

    def lookup(key: bytes) -> None:
        pool_full = device.clean_pool_fraction == 1.0 and not device.in_gc_mode
        frames, c_calls, result = count_calls(clam.lookup, key)
        reads = result.flash_reads
        if result.served_from is ServedFrom.BUFFER:
            name = "lookup_buffer_hit"
        elif result.served_from is ServedFrom.MISSING:
            name = "lookup_cold_miss" if reads == 0 else "lookup_cold_miss_false_positive"
        elif reads == 1:
            name = "lookup_one_read" if pool_full else "lookup_one_read_pool_refilling"
        else:
            name = "lookup_two_reads" if reads == 2 else "lookup_three_reads"
        seen.setdefault(name, []).append((frames, c_calls))

    for key in keys:
        insert(key, known=False)
    for key in keys[-2000:]:
        insert(key, known=True)
    filler = 0
    while not clam.insert(b"budget-filler-%d" % filler, VALUE).flushed:
        filler += 1
    for key in keys[::3]:
        lookup(key)
    for number in range(2000):
        lookup(fingerprint_for(number, namespace=b"absent"))

    warm = keys[:3000:3]  # all flash-resident, digests cached
    for key in warm:
        clam.lookup(key)
    kept: List[object] = [None] * len(warm)
    gc.collect()
    gc.disable()  # whatever else the process holds stays out of the count
    try:
        blocks = sys.getallocatedblocks()
        for index, key in enumerate(warm):
            kept[index] = clam.lookup(key)
        blocks = sys.getallocatedblocks() - blocks
    finally:
        gc.enable()
    clear_digest_cache()

    budget: Dict[str, Dict[str, float]] = {
        name: {
            "samples": len(rows),
            "python_frames": round(sum(frames for frames, _ in rows) / len(rows), 2),
            "python_frames_min": min(frames for frames, _ in rows),
            "python_frames_max": max(frames for frames, _ in rows),
            "c_calls": round(sum(c_calls for _, c_calls in rows) / len(rows), 2),
        }
        for name, rows in sorted(seen.items())
    }
    budget["kept_lookup_results"] = {
        "samples": len(kept),
        "allocated_blocks": blocks,
        "blocks_per_result": round(blocks / len(kept), 3),
    }
    return budget


def run_page_search() -> Dict[str, Dict[str, float]]:
    """Microseconds and C calls of one ``search_page``, by page shape.

    Each page is built by ``build_pages`` as the one page of an incarnation
    sized to hold exactly its entries.  ``hit_us`` is the mean over every key
    of the page (so over every position), ``miss_us`` is for an absent key of
    the usual length; both are the best of five timed loops.
    """
    rng = random.Random(23)
    shapes = {
        f"uniform_{count}": [(rng.randbytes(20), rng.randbytes(8)) for _ in range(count)]
        for count in PAGE_SEARCH_UNIFORM
    }
    shapes[f"mixed_{PAGE_SEARCH_MIXED}"] = [
        (rng.randbytes(rng.choice((16, 20, 24))), rng.randbytes(rng.choice((4, 8))))
        for _ in range(PAGE_SEARCH_MIXED)
    ]

    def best_us(keys: Sequence[bytes], page: bytes) -> float:
        sweeps = 20_000 // len(keys)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(sweeps):
                for key in keys:
                    search_page(page, key)
            best = min(best, time.perf_counter() - start)
        return round(best / (sweeps * len(keys)) * 1e6, 3)

    out: Dict[str, Dict[str, float]] = {}
    for name, entries in shapes.items():
        items = dict(entries)
        size = 3 + sum(4 + len(key) + len(value) for key, value in entries)
        (page,) = build_pages(items, [as_digest(key).clam_words() for key in items], 1, size)
        absent = rng.randbytes(20)
        assert len(page) == size and all(search_page(page, key)[0] == items[key] for key in items)
        assert search_page(page, absent) == (None, False)
        out[name] = {
            "entries": len(entries),
            "page_bytes": size,
            "hit_us": best_us(list(items), page),
            "miss_us": best_us([absent] * 8, page),
            "hit_c_calls": max(count_calls(search_page, page, key)[1] for key in items),
            "miss_c_calls": count_calls(search_page, page, absent)[1],
        }
    return out


@contextmanager
def stage_timers(**stages: Tuple[object, str]) -> Iterator[Dict[str, float]]:
    """Time ``owner.name`` (a method of a class, a function of a module) for
    the length of the block; yields the seconds spent per stage label."""
    spent = dict.fromkeys(stages, 0.0)
    originals = [(owner, name, getattr(owner, name)) for owner, name in stages.values()]

    def timed(label: str, original):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spent[label] += time.perf_counter() - start

        return wrapper

    for label, (owner, name, original) in zip(stages, originals):
        setattr(owner, name, timed(label, original))
    try:
        yield spent
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def run_flush(sizes: Dict[str, int]) -> Dict[str, float]:
    """Microseconds per buffer flush under a stream of new keys, by stage.

    The standard CLAM takes ``flush_keys`` new fingerprints (one flush per 128
    of them, every flush past the first 128 evicting an incarnation too).  A
    flush's stages are timed from outside, by wrapping the four calls for the
    length of the run: draining the buffer, ``build_pages``, the device's
    streaming write, ``append_keys``, the column writer that sets the new
    incarnation's Bloom positions, and ``evict``, the clear of the oldest
    incarnation's column; ``other`` is the rest of ``SuperTable.flush``
    (sizing, the rest of eviction, the log allocator).
    """
    clear_digest_cache()
    clam = standard_clam()
    keys = [fingerprint_for(i, namespace=b"flush") for i in range(sizes["flush_keys"])]
    with stage_timers(
        flush=(supertable.SuperTable, "flush"),
        drain=(Buffer, "drain"),
        build_pages=(supertable, "build_pages"),
        device_write=(StorageDevice, "write_range"),
        append_keys=(BitSlicedBloomArray, "append_keys"),
        evict=(BitSlicedBloomArray, "evict_oldest"),
    ) as spent:
        for key in keys:
            clam.insert(key, VALUE)
    clear_digest_cache()
    flushes = clam.total_flushes
    total = spent.pop("flush")
    shares = {f"{stage}_share": round(seconds / total, 3) for stage, seconds in spent.items()}
    shares["other_share"] = round(1.0 - sum(spent.values()) / total, 3)
    return {
        "keys": len(keys),
        "flushes": flushes,
        "live_incarnations": clam.total_incarnations,
        "us_per_flush": round(total / flushes * 1e6, 1),
        **shares,
    }


def run_cache_overflow() -> Dict[str, float]:
    """The hotpath loop, once, over more distinct keys than the digest cache holds.

    Every key is new, so every insert builds a digest and the lookup that
    follows finds the key in the buffer; buffers flush along the way (the key
    set is far larger than they are), which is part of a cold key's cost.  The
    first ``capacity`` keys fill the digest cache and the rest each evict its
    oldest entry, so the loop is timed in those two parts: ``evicting_over_
    filling`` compares like with like (same process, same work but for the
    eviction, seconds apart) and is the sharp detector — 0.8-1.05 across runs
    on a shared host, 0.35 when an eviction rescanned the cache.

    ``overflow_over_hotpath`` is the whole loop against the best of six
    ``hotpath`` passes at the FULL sizes, three on either side of the cold
    loop, whatever the run's own sizes are (a quick run's ratio is compared
    with a committed full run's, so both must measure the same thing).  Hot
    and cold keys respond differently to a noisy host, so it moves by a third
    either way between runs.
    """
    hotpath = max(run_hotpath(FULL, [hotpath_clam()])[0] for _ in range(3))
    clear_digest_cache()
    gc.collect()  # the hotpath arms' CLAMs no longer hold the cache open
    clam = hotpath_clam()
    capacity = digest_cache_info()["capacity"]
    keys = [b"coldkey-%08d" % i for i in range(OVERFLOW_FACTOR * capacity)]
    filling_seconds = sweep_seconds(clam, keys[:capacity])
    evicting_seconds = sweep_seconds(clam, keys[capacity:])
    assert digest_cache_info()["size"] == capacity, "the key set must overflow the digest cache"
    filling = 2 * capacity / filling_seconds
    evicting = 2 * (len(keys) - capacity) / evicting_seconds
    overflow = 2 * len(keys) / (filling_seconds + evicting_seconds)
    hotpath = max(hotpath, *(run_hotpath(FULL, [hotpath_clam()])[0] for _ in range(3)))
    clear_digest_cache()
    return {
        "distinct_keys": len(keys),
        "digest_cache_capacity": capacity,
        "hotpath_ops_per_sec": round(hotpath, 1),
        "filling_ops_per_sec": round(filling, 1),
        "evicting_ops_per_sec": round(evicting, 1),
        "overflow_ops_per_sec": round(overflow, 1),
        "evicting_over_filling": round(evicting / filling, 4),
        "overflow_over_hotpath": round(overflow / hotpath, 4),
    }


def run_hash_once() -> Dict[str, float]:
    """Host-independent readings of "a key is hashed once" (same sizes in
    ``--quick`` and full runs; both are ratios or counts of this run alone)."""
    keys = [fingerprint_for(i) for i in range(20_000)]  # 20-byte SHA-1 fingerprints

    def best_us_per_key(hash_one_key) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for key in keys:
                hash_one_key(key)
            best = min(best, time.perf_counter() - start)
        return best * 1e6 / len(keys)

    six_pass = best_us_per_key(lambda key: [fnv1a_64(key, seed) for seed in CLAM_SEEDS])
    fused = best_us_per_key(clam_words)

    # A worker's life: the same lookup frame (as a routing parent encodes it)
    # decoded and applied twice against a flash-resident CLAM.
    clear_digest_cache()
    clam = steady_clam()
    stored = keys[:8000]
    for key in stored:
        clam.insert(key, VALUE)
    frame = wire.encode_batch_request(
        0.0, [(OpKind.LOOKUP, KeyDigest(key), b"") for key in stored[::4]]
    )
    clear_digest_cache()
    traversals = []
    for _ in range(2):
        with count_hash_calls() as log:
            advance_ms, operations = wire.decode_batch_request(frame)
            apply_batch(clam, advance_ms, operations)
        traversals.append(log.total / len(operations))
    clear_digest_cache()
    return {
        "keys": len(keys),
        "six_pass_us_per_key": round(six_pass, 3),
        "fused_us_per_key": round(fused, 3),
        "cold_key_fused_speedup": round(six_pass / fused, 3),
        "wire_first_traversals_per_op": traversals[0],
        "wire_repeat_traversals_per_op": traversals[1],
    }


def digest_owned(digest: KeyDigest) -> List[object]:
    """The digest and every object reachable from it, except its class (and
    the class's namespace: shared, not owned) and its key bytes (the key's
    own cost, paid with or without a digest)."""
    seen, stack, owned = {id(digest), id(digest.data)}, [digest], [digest]
    while stack:
        for referent in gc.get_referents(stack.pop()):
            if isinstance(referent, type) or id(referent) in seen:
                continue
            seen.add(id(referent))
            stack.append(referent)
            owned.append(referent)
    return owned


def run_digest_memory() -> Dict[str, float]:
    """DRAM per cached key: what one warm digest owns, and tracemalloc's
    bytes per key over :data:`DIGEST_MEMORY_KEYS` keys brought into the
    digest cache and warmed as a CLAM lookup warms them (the six CLAM words,
    then one probe of an empty Bloom column of the standard geometry)."""
    buffer = standard_clam().tables[0].buffer
    bloom = BitSlicedBloomArray(buffer.bloom_bits, buffer.bloom_hashes, max_incarnations=1)
    bloom.append_keys([], 0, "empty")
    keys = [fingerprint_for(i) for i in range(DIGEST_MEMORY_KEYS)]
    clear_digest_cache()
    gc.collect()
    assert digest_cache_info()["capacity"] >= len(keys), "every key must stay cached"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for key in keys:
            as_digest(key).clam_words()
            bloom.candidates(key)
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    warm = as_digest(keys[-1])
    warm_bytes = sum(sys.getsizeof(referent) for referent in digest_owned(warm))
    clear_digest_cache()
    return {
        "keys": len(keys),
        "bloom_geometry": [buffer.bloom_hashes, buffer.bloom_bits],
        "warm_digest_bytes": warm_bytes,
        "bytes_per_cached_key": round(traced / len(keys), 1),
    }


def run_index_memory() -> Dict[str, float]:
    """DRAM per indexed key: the standard CLAM (the end-to-end benchmark's)
    takes new 20-byte keys, made as they go in, and tracemalloc's live bytes
    are read per key it holds (:func:`traced_per_indexed_key`) when every
    super table's FIFO window is first full, and again once every window has
    turned over :data:`STEADY_STATE_LAPS` times (the ``steady_state`` reading:
    what a long run holds, released incarnations long gone)."""
    clear_digest_cache()
    gc.collect()
    tracemalloc.start()
    try:
        clam = standard_clam()
        number = turn_windows(clam, 0)
        window_full = traced_per_indexed_key(clam)
        number = turn_windows(clam, STEADY_STATE_LAPS, number)
        steady = traced_per_indexed_key(clam)
    finally:
        tracemalloc.stop()
    return {
        "digest_cache_capacity": digest_cache_info()["capacity"],
        **window_full,
        "steady_state": {"laps": STEADY_STATE_LAPS, "inserted_keys": number, **steady},
    }


def turn_windows(clam: CLAM, laps: int, number: int = 0) -> int:
    """Insert new keys, numbered from ``number``, until every super table's
    FIFO window is full and has turned over ``laps`` times; returns the next
    key number."""
    tables, window = clam.tables, clam.incarnations_per_table
    while (
        min(table.incarnation_count for table in tables) < window
        or min(table.eviction_count for table in tables) < laps * window
    ):
        clam.insert(fingerprint_for(number, namespace=b"index"), VALUE)
        number += 1
    return number


def traced_per_indexed_key(clam: CLAM) -> Dict[str, float]:
    """tracemalloc's live bytes per key ``clam`` holds, by tag.

    The digest-cache tag is what :func:`clear_digest_cache` frees (the digests
    and the keys only they kept alive); the rest is split by the file that
    allocated it into simulated flash media (:data:`FLASH_MEDIA_FILES`) and
    index DRAM (Bloom filters, buffers and the keys in them, incarnation
    metadata), of which ``sliced_bloom_bytes`` is :data:`SLICED_BLOOM_FILE`'s."""
    gc.collect()
    total = tracemalloc.get_traced_memory()[0]
    clear_digest_cache()
    gc.collect()
    index = tracemalloc.get_traced_memory()[0]
    by_file = tracemalloc.take_snapshot().statistics("filename")
    flash_media = sum(
        stat.size
        for stat in by_file
        if any(part in stat.traceback[0].filename for part in FLASH_MEDIA_FILES)
    )
    sliced = sum(stat.size for stat in by_file if SLICED_BLOOM_FILE in stat.traceback[0].filename)
    keys = len(clam.snapshot_items())
    return {
        "indexed_keys": keys,
        "bytes_per_indexed_key": round(total / keys, 1),
        "digest_cache_bytes": round((total - index) / keys, 1),
        "flash_media_bytes": round(flash_media / keys, 1),
        "index_dram_bytes": round((index - flash_media) / keys, 1),
        "sliced_bloom_bytes": round(sliced / keys, 1),
    }


def run_steady_state(sizes: Dict[str, int]) -> float:
    """Ops/sec of a lookup/update mix against a flash-resident steady state."""
    clear_digest_cache()
    clam = steady_clam()
    num_keys = sizes["steady_keys"]
    keys = [b"sskey-%08d" % i for i in range(num_keys)]
    for key in keys:  # warm up into incarnations, not timed
        clam.insert(key, VALUE)
    operations = sizes["steady_ops"]
    start = time.perf_counter()
    for index in range(operations):
        key = keys[(index * 7919) % num_keys]  # deterministic stride "random"
        if index & 1:
            clam.insert(key, VALUE)
        else:
            clam.lookup(key)
    return operations / (time.perf_counter() - start)


def measure_hash_calls() -> Dict[str, Dict[str, float]]:
    """Per-operation traversals of the key bytes, by layer.

    ``lookup_cold`` clears the cross-operation digest cache first, so it
    shows the per-operation cost of a never-seen key: exactly one digest
    build and one fused traversal (``fnv_clam_words``), however many
    incarnations the lookup probes.  ``lookup_cached``/``insert_cached`` show
    the steady-state cost once the digest cache has seen the key.

    Lookups are sampled against the flash-resident steady-state CLAM (the
    interesting case: several incarnations probed per lookup); inserts
    against the flush-free hotpath CLAM, because a flush amortises
    whole-buffer serialisation (which hashes every *drained* key once for
    page placement) into whichever insert triggered it and would blur the
    per-operation accounting.
    """
    sample = 200

    def sampled(operation) -> Dict[str, float]:
        with count_hash_calls() as log:
            for index in range(sample):
                operation(index)
        return {name: count / sample for name, count in log.snapshot().items()}

    out: Dict[str, Dict[str, float]] = {}
    clear_digest_cache()
    clam = steady_clam()
    keys = [b"cntkey-%08d" % i for i in range(8000)]
    for key in keys:
        clam.insert(key, VALUE)
    clear_digest_cache()
    out["lookup_cold"] = sampled(lambda i: clam.lookup(keys[(i * 7919) % len(keys)]))
    out["lookup_cached"] = sampled(lambda i: clam.lookup(keys[(i * 7919) % len(keys)]))

    clear_digest_cache()
    buffered = hotpath_clam()
    hot_keys = [b"cntins-%08d" % i for i in range(2000)]
    for key in hot_keys:
        buffered.insert(key, VALUE)
    clear_digest_cache()
    out["insert_cold"] = sampled(lambda i: buffered.insert(hot_keys[(i * 6133) % 2000], VALUE))
    out["insert_cached"] = sampled(lambda i: buffered.insert(hot_keys[(i * 6133) % 2000], VALUE))
    return out


def report(results: Dict, sizes: Dict[str, int], json_path: Optional[str]) -> None:
    print_table(
        "Hot path: wall-clock ops/sec",
        ["workload", "ops/s"],
        [
            (f"hotpath (DRAM), median of {PASSES} passes", results["hotpath_ops_per_sec"]),
            ("steady state (flash)", results["steady_ops_per_sec"]),
        ],
    )
    calls = results["hash_calls_per_op"]
    print_table(
        "Traversals of the key bytes per operation, by layer",
        ["layer", *calls],
        [
            (layer, *(calls[name].get(layer, 0.0) for name in calls))
            for layer in sorted(set().union(*calls.values()))
        ],
    )
    budget = results["call_budget"]
    print_table(
        "Call budget: exact Python frames and C calls per CLAM operation",
        ["outcome", "samples", "frames", "min-max", "budget", "C calls", "budget"],
        [
            (
                name,
                row["samples"],
                row["python_frames"],
                f"{row['python_frames_min']}-{row['python_frames_max']}",
                CALL_BUDGET.get(name, "-"),
                row["c_calls"],
                C_CALL_BUDGET.get(name, "-"),
            )
            for name, row in budget.items()
            if "python_frames" in row
        ],
    )
    print_table(
        "search_page: one page image, a key that is there and one that is not",
        ["page", "bytes", "hit us", "miss us", "hit C calls", "miss C calls"],
        [
            (
                name, row["page_bytes"], row["hit_us"], row["miss_us"],
                row["hit_c_calls"], row["miss_c_calls"],
            )  # fmt: skip
            for name, row in results["page_search"].items()
        ],
    )
    kept = budget["kept_lookup_results"]
    flush = results["flush"]
    print(
        f"{kept['allocated_blocks']} blocks allocated for {kept['samples']} kept lookup results "
        f"({kept['blocks_per_result']:.3f} each); a flush costs {flush['us_per_flush']:.1f} us "
        f"over {flush['flushes']} flushes: build_pages {flush['build_pages_share']:.0%}, "
        f"append_keys {flush['append_keys_share']:.0%}, drain {flush['drain_share']:.0%}, "
        f"device write {flush['device_write_share']:.0%}, evict {flush['evict_share']:.0%}, "
        f"other {flush['other_share']:.0%}"
    )
    overflow = results["cache_overflow"]
    print(
        f"cache overflow ({overflow['distinct_keys']} distinct keys, digest cache "
        f"{overflow['digest_cache_capacity']}): {overflow['overflow_ops_per_sec']:.1f} ops/s, "
        f"{overflow['overflow_over_hotpath']:.3f} of hotpath "
        f"({overflow['hotpath_ops_per_sec']:.1f} ops/s, best of six); evicting keys at "
        f"{overflow['evicting_over_filling']:.3f} of the rate of keys that only fill the cache"
    )
    hash_once = results["hash_once"]
    print(
        f"cold key ({hash_once['keys']} 20-byte keys): six fnv1a_64 passes "
        f"{hash_once['six_pass_us_per_key']:.2f} us vs one fused traversal "
        f"{hash_once['fused_us_per_key']:.2f} us "
        f"({hash_once['cold_key_fused_speedup']:.2f}x); a batch frame served twice walks "
        f"{hash_once['wire_first_traversals_per_op']:.2f} then "
        f"{hash_once['wire_repeat_traversals_per_op']:.2f} keys per operation"
    )
    memory = results["digest_memory"]
    print(
        f"digest memory ({memory['keys']} warm 20-byte keys): one digest owns "
        f"{memory['warm_digest_bytes']} B; the digest cache traces "
        f"{memory['bytes_per_cached_key']:.1f} B per cached key"
    )
    index = results["index_memory"]
    steady = index["steady_state"]
    for name, row in (("FIFO window full", index), (f"{steady['laps']} window laps", steady)):
        print(
            f"index memory (standard CLAM, {name}, {row['indexed_keys']} keys, digest cache "
            f"{index['digest_cache_capacity']}): {row['bytes_per_indexed_key']:.1f} B per "
            f"indexed key = digest cache {row['digest_cache_bytes']:.1f} + simulated flash "
            f"media {row['flash_media_bytes']:.1f} + index DRAM {row['index_dram_bytes']:.1f} "
            f"(bit-sliced Bloom {row['sliced_bloom_bytes']:.1f}, "
            f"{row['sliced_bloom_bytes'] / row['index_dram_bytes']:.0%} of it)"
        )
    ablation = results["telemetry_ablation"]
    print(
        f"telemetry ablation (hotpath, medians of {ablation['passes']} interleaved passes): "
        f"off {ablation['off_ops_per_sec']:.1f} ops/s "
        f"({ablation['off_over_baseline']:.3f} of the baseline) vs on "
        f"{ablation['on_ops_per_sec']:.1f} ops/s (on/off {ablation['on_over_off']:.3f})"
    )
    quick = sizes != FULL
    payload = {
        "description": (
            "Wall-clock ops/sec of the CLAM insert/lookup hot path (hash-once "
            "KeyDigest pipeline, bytearray bitset Bloom) and exact counts of "
            "key-byte traversals, Python frames and C calls per operation."
        ),
        "workloads": {**sizes, "hot_passes": PASSES, "hot_pass_seconds": PASS_SECONDS},
        "quick": quick,
        **results,
        "seed_reference": {
            "comment": (
                "Absolute ops/sec recorded once with the FULL workloads and not "
                "re-measured: the seed tree, and (rehash_per_layer) the last live "
                "run, at PR 16, of the per-layer re-hashing + big-int Bloom "
                "'before' mode, beside the hash-once numbers of that same run."
            ),
            **SEED_REFERENCE,
        },
    }
    if not quick:
        payload["seed_reference"]["speedup_vs_seed"] = {
            "hotpath": round(
                results["hotpath_ops_per_sec"] / SEED_REFERENCE["hotpath_ops_per_sec"], 2
            ),
            "steady_state": round(
                results["steady_ops_per_sec"] / SEED_REFERENCE["steady_ops_per_sec"], 2
            ),
        }
    path = write_bench_json("hotpath", payload, quick=quick)
    if json_path is not None:
        import shutil

        shutil.copyfile(path, json_path)
    print(f"wrote {path}")


def check_invariants(results: Dict) -> None:
    """The claims this benchmark exists to enforce."""
    calls = results["hash_calls_per_op"]
    # Hash-once: a cold key is digested once and its bytes are walked once,
    # for every layer together; a cached key is never walked again.
    for name in ("lookup_cold", "insert_cold"):
        assert calls[name] == {
            "fnv_clam_words": 1.0,
            "fnv_total": 1.0,
            "digest_builds": 1.0,
        }, f"{name}: {calls[name]}"
    for name in ("lookup_cached", "insert_cached"):
        assert calls[name] == {"fnv_total": 0.0, "digest_builds": 0.0}, f"{name}: {calls[name]}"
    # The same across a process boundary: a worker walks each key of a frame
    # once, and not at all when the frame (or any of its keys) comes again.
    assert results["hash_once"]["wire_first_traversals_per_op"] == 1.0
    assert results["hash_once"]["wire_repeat_traversals_per_op"] == 0.0
    assert results["hash_once"]["cold_key_fused_speedup"] >= 1.5
    # DRAM per cached key: six words in one array, no memo of Bloom positions.
    memory = results["digest_memory"]
    assert memory["warm_digest_bytes"] <= WARM_DIGEST_BYTES_CEILING, memory
    # The per-operation budgets: a helper call or a per-key object that creeps
    # back onto a CLAM operation's path shows here as a whole number.
    budget = results["call_budget"]
    for name, ceiling in CALL_BUDGET.items():
        assert budget[name]["python_frames"] <= ceiling, f"{name}: {budget[name]}"
    for name, ceiling in C_CALL_BUDGET.items():
        assert budget[name]["c_calls"] <= ceiling, f"{name}: {budget[name]}"
    # A uniform page is searched with one find: the C calls of a hit do not
    # grow with the entries on the page, and its time at most doubles from 8
    # entries to 128 (a per-entry walk took eleven times as long).
    pages = results["page_search"]
    uniform = [pages[f"uniform_{count}"] for count in PAGE_SEARCH_UNIFORM]
    assert len({row["hit_c_calls"] for row in uniform}) == 1, pages
    assert uniform[-1]["hit_us"] <= 2 * uniform[0]["hit_us"], pages
    kept = budget["kept_lookup_results"]
    assert kept["allocated_blocks"] <= blocks_ceiling(kept["samples"]), kept
    # Telemetry: disabled it must not tax the hot path, enabled it may cost
    # real Python time (two histogram observations per operation) but is
    # priced in, not hidden.  Both are medians of same-run paired ratios (see
    # run_hotpath_passes) held through the shared ratchet primitive.
    ablation = results["telemetry_ablation"]
    assert_fraction(
        "hotpath telemetry-off A/B vs same-run baseline",
        fresh=ablation["off_over_baseline"],
        committed=1.0,
        floor=0.95,
    )
    assert_fraction(
        "hotpath telemetry-on floor vs telemetry-off",
        fresh=ablation["on_over_off"],
        committed=1.0,
        floor=0.5,
    )


def run_bench(
    quick: bool = False,
    json_path: Optional[str] = None,
    telemetry_out: Optional[str] = None,
) -> Dict:
    sizes = QUICK if quick else FULL
    # The two sections that time nothing against the others go first, so the
    # flush's stage wrappers are long gone when the telemetry A/B runs.
    call_budget = measure_call_budget()
    page_search = run_page_search()
    flush = run_flush(sizes)
    hotpath, ablation, snapshot = run_hotpath_passes(sizes)
    results = {
        "call_budget": call_budget,
        "page_search": page_search,
        "flush": flush,
        "hotpath_ops_per_sec": hotpath,
        "steady_ops_per_sec": round(run_steady_state(sizes), 1),
        "hash_calls_per_op": measure_hash_calls(),
        "cache_overflow": run_cache_overflow(),
        "hash_once": run_hash_once(),
        "digest_memory": run_digest_memory(),
        "index_memory": run_index_memory(),
        "telemetry_ablation": ablation,
    }
    report(results, sizes, json_path)
    check_invariants(results)
    dump_telemetry(telemetry_out, snapshot)
    return results


def test_bench_hotpath(benchmark):
    benchmark.pedantic(lambda: run_bench(quick=True), rounds=1, iterations=1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller workloads, for the CI smoke"
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also copy the BENCH file written to PATH",
    )
    add_telemetry_arg(parser)
    args = parser.parse_args()
    run_bench(quick=args.quick, json_path=args.json, telemetry_out=args.telemetry_out)
    print("hotpath benchmark invariants hold")


if __name__ == "__main__":
    main()
