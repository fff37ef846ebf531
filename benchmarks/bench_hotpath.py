"""Hot-path microbenchmark: hash-once KeyDigest + bitset Bloom vs the legacy path.

BufferHash's premise is that an operation costs a handful of cheap in-memory
hash operations plus at most one flash read.  In pure Python the "cheap"
part used to dominate: every layer (super-table partition, two cuckoo
buckets, Bloom base hashes, incarnation page, shard ring) re-hashed the full
key bytes, 6-10+ FNV passes per operation, and ``BloomFilter`` rebuilt an
immutable big-int on every set bit.  This benchmark measures the two fixes
landed together — the hash-once :class:`~repro.core.hashing.KeyDigest`
pipeline and the mutable ``bytearray`` Bloom bitset — by running identical
workloads in both modes:

* **before** — ``use_hash_once=False`` (every layer re-hashes, exactly the
  seed implementation's behaviour) with a big-int Bloom filter patched in
  (the seed implementation's bit storage);
* **after** — the shipped defaults.

Three workloads are timed with real wall-clock (this benchmark measures the
implementation, not the simulated device model):

* ``hotpath`` — the headline insert/lookup microbench: a buffer-resident
  working set (no flushes) driven with interleaved insert+lookup rounds.
  This isolates the DRAM hot path the paper calls "a handful of in-memory
  hash operations"; target is >= 3x ops/sec.
* ``steady_state`` — a flash-touching steady state (buffers full, 8
  incarnations per super table) driven with a lookup/update mix; flash-page
  simulation bounds the achievable speedup, so this is the honest
  end-to-end number.

* ``cache_overflow`` — the hotpath loop over three times as many distinct
  keys as the cross-operation digest cache holds, so two thirds of the keys
  evict a cached digest.  Only the shipped path is timed, with the same sizes
  in ``--quick`` and full runs; what is kept are two same-run ratios that
  ``benchmarks/ratchet.py`` holds — the loop's rate over the ``hotpath``
  rate, and its evicting part over its cache-filling part.  A digest-cache
  eviction that costs more than O(1) halves both; ``hotpath`` fits the cache
  and cannot see such a cliff.

* ``hash_once`` — two same-run, host-independent readings of "a key is hashed
  once": ``cold_key_fused_speedup`` (six single-seed ``fnv1a_64`` passes over
  a set of 20-byte keys ÷ one fused ``clam_words`` traversal of each, the
  work a cold key costs before and after the six CLAM words shared one
  traversal) and ``wire_repeat_traversals_per_op`` (key traversals per
  operation when a shard worker is sent the same batch frame a second time:
  decoding interns keys in the worker's digest cache, so exactly 0).
  ``benchmarks/ratchet.py`` holds a floor of 1.5 on the first and the second
  exactly.

Per-operation traversals of the key bytes are counted by layer with
:func:`repro.core.hashing.count_hash_calls` in both modes: the legacy path
walks a key once per layer *use*; the hash-once pipeline walks a cold key
exactly once (one fused traversal yields all six CLAM words, logged as
``fnv_clam_words``) and a cached key never.

Results go to stdout (tables) and ``BENCH_hotpath.json`` —
``BENCH_hotpath_quick.json`` with ``--quick`` — (machine readable, see
``benchmarks/common.py``).  Run directly::

    PYTHONPATH=src:. python benchmarks/bench_hotpath.py [--quick] [--json PATH]

or through pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_hotpath.py -q -s
"""

from __future__ import annotations

import argparse
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from benchmarks.common import add_telemetry_arg, dump_telemetry, print_table, write_bench_json
from benchmarks.ratchet import assert_fraction
from repro.core import CLAM, CLAMConfig
from repro.core.bloom import BloomFilter
from repro.core.hashing import (
    CLAM_SEEDS,
    KeyDigest,
    clam_words,
    clear_digest_cache,
    count_hash_calls,
    digest_cache_info,
    fnv1a_64,
)
from repro.service import wire
from repro.service.shard import apply_batch
from repro.telemetry import build_snapshot
from repro.workloads.keygen import fingerprint_for
from repro.workloads.workload import OpKind

#: Workload sizes: full run and --quick (CI smoke) variants.
FULL = {"hot_keys": 4000, "hot_rounds": 3, "steady_keys": 16000, "steady_ops": 16000}
QUICK = {"hot_keys": 1500, "hot_rounds": 2, "steady_keys": 6000, "steady_ops": 6000}

#: ``cache_overflow`` distinct keys, as a multiple of the digest-cache capacity
#: (quick and full alike: the eviction cost being guarded grows with the
#: capacity, not with the run length).
OVERFLOW_FACTOR = 3

#: Seed-tree reference, measured on the pre-PR implementation with exactly the
#: FULL workloads below (recorded once so the trajectory keeps an absolute
#: anchor; the enforced comparison is the live before/after ablation).
SEED_REFERENCE = {"hotpath_ops_per_sec": 56576.6, "steady_ops_per_sec": 26712.4}

VALUE = b"v" * 8


class LegacyBigIntBloom(BloomFilter):
    """The seed implementation's Bloom bit storage: one immutable big int.

    ``add`` therefore copies a ``num_bits``-sized integer per set bit —
    exactly the behaviour the bytearray bitset replaced.  Used only as the
    benchmark's "before" configuration.
    """

    __slots__ = ("_int_bits",)

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        super().__init__(num_bits, num_hashes)
        self._int_bits = 0

    def add(self, key) -> None:
        for position in self.bit_positions(key):
            self._int_bits |= 1 << position
        self._count += 1

    def __contains__(self, key) -> bool:
        bits = self._int_bits
        for position in self.bit_positions(key):
            if not (bits >> position) & 1:
                return False
        return True

    def iter_set_bits(self) -> Iterator[int]:
        bits = self._int_bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def fill_fraction(self) -> float:
        return self._int_bits.bit_count() / self.num_bits

    def clear(self) -> None:
        self._int_bits = 0
        self._count = 0

    def copy(self) -> "LegacyBigIntBloom":
        clone = LegacyBigIntBloom(self.num_bits, self.num_hashes)
        clone._int_bits = self._int_bits
        clone._count = self._count
        return clone


@contextmanager
def legacy_bloom_installed():
    """Patch the big-int Bloom filter into every module that constructs one."""
    import repro.core.buffer as buffer_mod
    import repro.core.clam as clam_mod
    import repro.core.supertable as supertable_mod

    originals = (buffer_mod.BloomFilter, supertable_mod.BloomFilter, clam_mod.BloomFilter)
    buffer_mod.BloomFilter = LegacyBigIntBloom
    supertable_mod.BloomFilter = LegacyBigIntBloom
    clam_mod.BloomFilter = LegacyBigIntBloom
    try:
        yield
    finally:
        buffer_mod.BloomFilter, supertable_mod.BloomFilter, clam_mod.BloomFilter = originals


def hotpath_clam(hash_once: bool, telemetry: bool = False) -> CLAM:
    """Buffers sized so the hotpath working set never flushes to flash."""
    config = CLAMConfig.scaled(
        num_super_tables=4,
        buffer_capacity_items=2048,
        incarnations_per_table=2,
        use_hash_once=hash_once,
        telemetry_enabled=telemetry,
    )
    return CLAM(config, storage="intel-ssd", keep_latency_samples=False)


def steady_clam(hash_once: bool) -> CLAM:
    """The standard scaled configuration: small buffers, 8 incarnations."""
    config = CLAMConfig.scaled(
        num_super_tables=16,
        buffer_capacity_items=128,
        incarnations_per_table=8,
        use_hash_once=hash_once,
    )
    return CLAM(config, storage="intel-ssd", keep_latency_samples=False)


def insert_lookup_ops_per_sec(clam: CLAM, keys, rounds: int) -> float:
    """Ops/sec of ``rounds`` passes of insert-then-lookup over ``keys``."""
    start = time.perf_counter()
    for _ in range(rounds):
        for key in keys:
            clam.insert(key, VALUE)
            clam.lookup(key)
    return 2 * rounds * len(keys) / (time.perf_counter() - start)


def run_hotpath(hash_once: bool, sizes: Dict[str, int], telemetry: bool = False):
    """(ops/sec, CLAM) of interleaved insert+lookup over a buffer-resident key set."""
    clear_digest_cache()
    clam = hotpath_clam(hash_once, telemetry=telemetry)
    keys = [b"hotkey-%08d" % i for i in range(sizes["hot_keys"])]
    for key in keys:  # cold fill, not timed
        clam.insert(key, VALUE)
    assert clam.bufferhash.total_flushes == 0, "hotpath workload must stay in DRAM"
    return insert_lookup_ops_per_sec(clam, keys, sizes["hot_rounds"]), clam


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
    hotpath = max(run_hotpath(True, FULL)[0] for _ in range(3))
    clear_digest_cache()
    capacity = digest_cache_info()["capacity"]
    clam = hotpath_clam(True)
    keys = [b"coldkey-%08d" % i for i in range(OVERFLOW_FACTOR * capacity)]
    filling = insert_lookup_ops_per_sec(clam, keys[:capacity], 1)
    evicting = insert_lookup_ops_per_sec(clam, keys[capacity:], 1)
    assert digest_cache_info()["size"] == capacity, "the key set must overflow the digest cache"
    seconds = 2 * capacity / filling + 2 * (len(keys) - capacity) / evicting
    overflow = 2 * len(keys) / seconds
    hotpath = max(hotpath, *(run_hotpath(True, FULL)[0] for _ in range(3)))
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
    clam = steady_clam(True)
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


def run_steady_state(hash_once: bool, sizes: Dict[str, int]) -> float:
    """Ops/sec of a lookup/update mix against a flash-resident steady state."""
    clear_digest_cache()
    clam = steady_clam(hash_once)
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


def measure_hash_calls(hash_once: bool) -> Dict[str, Dict[str, float]]:
    """Per-operation traversals of the key bytes, by layer.

    ``lookup_cold`` clears the cross-operation digest cache first, so it
    shows the per-operation cost of a never-seen key: with hash-once that is
    exactly one digest build and one fused traversal (``fnv_clam_words``),
    with the legacy path it is one pass per layer *use* (Bloom/page layers
    repeat across the incarnations probed).  ``lookup_cached``/
    ``insert_cached`` show the steady-state cost once the digest cache has
    seen the key.

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
    clam = steady_clam(hash_once)
    keys = [b"cntkey-%08d" % i for i in range(8000)]
    for key in keys:
        clam.insert(key, VALUE)
    clear_digest_cache()
    out["lookup_cold"] = sampled(lambda i: clam.lookup(keys[(i * 7919) % len(keys)]))
    out["lookup_cached"] = sampled(lambda i: clam.lookup(keys[(i * 7919) % len(keys)]))

    clear_digest_cache()
    buffered = hotpath_clam(hash_once)
    hot_keys = [b"cntins-%08d" % i for i in range(2000)]
    for key in hot_keys:
        buffered.insert(key, VALUE)
    clear_digest_cache()
    out["insert_cold"] = sampled(lambda i: buffered.insert(hot_keys[(i * 6133) % 2000], VALUE))
    out["insert_cached"] = sampled(lambda i: buffered.insert(hot_keys[(i * 6133) % 2000], VALUE))
    return out


def run_modes(sizes: Dict[str, int]) -> Dict[str, Dict]:
    """The full before/after comparison (timings plus hash-call accounting)."""
    with legacy_bloom_installed():
        before = {
            "mode": "legacy: per-layer re-hash (use_hash_once=False) + big-int Bloom",
            "hotpath_ops_per_sec": round(run_hotpath(False, sizes)[0], 1),
            "steady_ops_per_sec": round(run_steady_state(False, sizes), 1),
            "hash_calls_per_op": measure_hash_calls(False),
        }
    after = {
        "mode": "hash-once KeyDigest pipeline + bytearray bitset Bloom",
        "hotpath_ops_per_sec": round(run_hotpath(True, sizes)[0], 1),
        "steady_ops_per_sec": round(run_steady_state(True, sizes), 1),
        "hash_calls_per_op": measure_hash_calls(True),
    }
    speedup = {
        "hotpath": round(after["hotpath_ops_per_sec"] / before["hotpath_ops_per_sec"], 2),
        "steady_state": round(after["steady_ops_per_sec"] / before["steady_ops_per_sec"], 2),
    }
    return {"before": before, "after": after, "speedup": speedup}


def run_telemetry_ablation(sizes: Dict[str, int]):
    """Telemetry off/on A/B on the hotpath workload, plus the on-run snapshot.

    ``telemetry_enabled=False`` (the default every other number in this file
    is measured with) must cost nothing: the instrumentation collapses to a
    cached ``None`` check per operation.  The ratchet in
    :func:`check_invariants` holds the freshly measured off number within 5 %
    of the same-run ``after`` hotpath number — same process, same machine,
    same workload, so the bound is noise-tight in a way a cross-machine
    comparison against a committed BENCH file could never be.  The on run's
    registry becomes the ``--telemetry-out`` snapshot.
    """
    off = max(run_hotpath(True, sizes)[0] for _ in range(2))
    on, clam = run_hotpath(True, sizes, telemetry=True)
    snapshot = build_snapshot(per_shard={"clam": clam.telemetry})
    ablation = {
        "off_ops_per_sec": round(off, 1),
        "on_ops_per_sec": round(on, 1),
        "on_over_off": round(on / off, 4),
    }
    return ablation, snapshot


def report(
    results: Dict[str, Dict],
    sizes: Dict[str, int],
    json_path: Optional[str],
    ablation: Optional[Dict] = None,
) -> None:
    before, after, speedup = results["before"], results["after"], results["speedup"]
    print_table(
        "Hot path: ops/sec before (legacy re-hash + big-int Bloom) vs after (hash-once)",
        ["workload", "before ops/s", "after ops/s", "speedup"],
        [
            ("hotpath (DRAM)", before["hotpath_ops_per_sec"], after["hotpath_ops_per_sec"],
             f"{speedup['hotpath']:.2f}x"),
            ("steady state (flash)", before["steady_ops_per_sec"], after["steady_ops_per_sec"],
             f"{speedup['steady_state']:.2f}x"),
        ],
    )
    before_cold = before["hash_calls_per_op"]["lookup_cold"]
    after_cold = after["hash_calls_per_op"]["lookup_cold"]
    after_cached = after["hash_calls_per_op"]["lookup_cached"]
    layers = sorted(set(before_cold) | set(after_cold))
    print_table(
        "Traversals of the key bytes per lookup, by layer",
        ["layer", "before", "after (cold key)", "after (cached key)"],
        [
            (
                layer,
                before_cold.get(layer, 0.0),
                after_cold.get(layer, 0.0),
                after_cached.get(layer, 0.0),
            )
            for layer in layers
        ],
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
    payload = {
        "description": (
            "Wall-clock ops/sec of the CLAM insert/lookup hot path, before "
            "(per-layer re-hashing + big-int Bloom bit storage, the seed "
            "implementation's behaviour) vs after (hash-once KeyDigest "
            "pipeline + bytearray bitset Bloom)."
        ),
        "workloads": dict(sizes),
        "quick": sizes != FULL,
        "before": before,
        "after": after,
        "speedup": results["speedup"],
        "cache_overflow": overflow,
        "hash_once": hash_once,
        "seed_reference": {
            "comment": (
                "Absolute ops/sec measured on the pre-PR tree with the FULL "
                "workloads (anchor for the trajectory; the before/after pair "
                "above is re-measured live on every run)."
            ),
            **SEED_REFERENCE,
        },
    }
    if ablation is not None:
        payload["telemetry_ablation"] = ablation
        print(
            "telemetry ablation (hotpath): off "
            f"{ablation['off_ops_per_sec']:.1f} ops/s vs on "
            f"{ablation['on_ops_per_sec']:.1f} ops/s "
            f"(on/off {ablation['on_over_off']:.3f})"
        )
    if sizes == FULL:
        payload["seed_reference"]["speedup_vs_seed"] = {
            "hotpath": round(
                after["hotpath_ops_per_sec"] / SEED_REFERENCE["hotpath_ops_per_sec"], 2
            ),
            "steady_state": round(
                after["steady_ops_per_sec"] / SEED_REFERENCE["steady_ops_per_sec"], 2
            ),
        }
    path = write_bench_json("hotpath" if sizes == FULL else "hotpath_quick", payload)
    if json_path is not None:
        import shutil

        shutil.copyfile(path, json_path)
    print(f"wrote {path}")


def check_invariants(results: Dict[str, Dict], quick: bool) -> None:
    """The claims this benchmark exists to enforce."""
    after_calls = results["after"]["hash_calls_per_op"]
    before_calls = results["before"]["hash_calls_per_op"]
    # Hash-once: a cold key is digested once and its bytes are walked once,
    # for every layer together; a cached key is never walked again.
    for name in ("lookup_cold", "insert_cold"):
        assert after_calls[name] == {
            "fnv_clam_words": 1.0,
            "fnv_total": 1.0,
            "digest_builds": 1.0,
        }, f"{name}: {after_calls[name]}"
    assert after_calls["lookup_cached"]["fnv_total"] == 0.0
    assert after_calls["insert_cached"]["fnv_total"] == 0.0
    # The same across a process boundary: a worker walks each key of a frame
    # once, and not at all when the frame (or any of its keys) comes again.
    assert results["hash_once"]["wire_first_traversals_per_op"] == 1.0
    assert results["hash_once"]["wire_repeat_traversals_per_op"] == 0.0
    assert results["hash_once"]["cold_key_fused_speedup"] >= 1.5
    # The legacy path really does re-hash every operation (with bit-slicing
    # on and a single candidate incarnation its *cold* totals coincide with
    # hash-once; the repeated-use cases are where the passes disappear).
    assert before_calls["lookup_cold"]["fnv_total"] >= after_calls["lookup_cold"]["fnv_total"]
    assert before_calls["lookup_cached"]["fnv_total"] > 1.0
    assert before_calls["insert_cached"]["fnv_total"] > 1.0
    # Speedup floor: >= 3x on the full run (typical is ~4x).  The CI --quick
    # smoke only needs to catch rot (e.g. the digest pipeline silently
    # disabled, which would read ~1.0x), so its floor is a loose 1.2x that a
    # noisy shared runner cannot trip; the short quick workloads are too
    # small to gate tight wall-clock ratios on.
    floor = 1.2 if quick else 3.0
    assert results["speedup"]["hotpath"] >= floor, (
        f"hotpath speedup {results['speedup']['hotpath']}x below {floor}x floor"
    )


def check_telemetry_ratchet(results: Dict[str, Dict], ablation: Dict) -> None:
    """telemetry_enabled=False must not tax the hot path (the <5 % ratchet).

    Both numbers come from the same process and workload — the ``after``
    hotpath measurement (telemetry off, like every pre-existing number in
    BENCH_hotpath.json) and a fresh best-of-two telemetry-off run — so the
    comparison is immune to machine-to-machine throughput differences that a
    ratchet against a committed file would trip over.  The enabled run only
    gets a loose floor: recording two histogram observations per operation
    costs real Python time and is priced in, not hidden.  Both floors go
    through the shared :func:`benchmarks.ratchet.assert_fraction` primitive.
    """
    after_ops = results["after"]["hotpath_ops_per_sec"]
    off = ablation["off_ops_per_sec"]
    assert_fraction(
        "hotpath telemetry-off A/B vs same-run baseline",
        fresh=off,
        committed=after_ops,
        floor=0.95,
    )
    assert_fraction(
        "hotpath telemetry-on floor vs telemetry-off",
        fresh=ablation["on_ops_per_sec"],
        committed=off,
        floor=0.5,
    )


def run_bench(
    quick: bool = False,
    json_path: Optional[str] = None,
    telemetry_out: Optional[str] = None,
) -> Dict[str, Dict]:
    sizes = QUICK if quick else FULL
    results = run_modes(sizes)
    ablation, snapshot = run_telemetry_ablation(sizes)
    # Last: the telemetry A/B above is held within 5 % of run_modes' hotpath
    # number, so nothing long (or heap-churning) may run between the two.
    results["cache_overflow"] = run_cache_overflow()
    results["hash_once"] = run_hash_once()
    report(results, sizes, json_path, ablation)
    check_invariants(results, quick)
    check_telemetry_ratchet(results, ablation)
    dump_telemetry(telemetry_out, snapshot)
    return results


def test_bench_hotpath(benchmark):
    results = benchmark.pedantic(lambda: run_modes(QUICK), rounds=1, iterations=1)
    results["cache_overflow"] = run_cache_overflow()
    results["hash_once"] = run_hash_once()
    report(results, QUICK, None)
    check_invariants(results, quick=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller workloads and a loose rot-detection speedup floor, for CI smoke",
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
