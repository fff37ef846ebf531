"""Content-defined chunking throughput: reference vs optimized Rabin chunker.

The paper's evaluation pre-computes chunk boundaries and SHA-1 hashes (§8)
because content-defined chunking is the CPU bottleneck of a WAN optimizer.
:class:`~repro.wanopt.chunking.RabinChunker` computes candidate cuts with a
numpy scan over one cache-sized tile of window sums at a time, bit-identical
to the original per-byte loop, which is kept verbatim as
``reference_boundaries`` — the "before" side measured here, and the path a
chunker takes without numpy.

Three measurements land in ``BENCH_chunking.json``:

* **MB/s per workload** — seeded payloads across average chunk sizes, from
  one 4 KiB object, smaller than a tile, to 4 MiB, each chunked by the
  reference loop and by ``boundaries()``; with numpy the headline 64 KiB /
  4 KiB-average workload must show >= 10x.  Every rep runs on a fresh
  chunker: a chunker caches the chunks it cut, so a second pass over the
  same payload would time cache hits, not the scan;
* **a repeated stream** — the end-to-end benchmark's payload shape (512 KiB
  objects of eight 64 KiB blocks, five of them repeats, 8 KiB average
  chunks) through one chunker, as a long-running branch office cuts it:
  MB/s, the share of bytes its chunk cache served, and the same objects'
  MB/s on a fresh chunker each, so the cache's gain is a same-run ratio;
* **end-to-end objects/sec** — real payloads generated, chunked,
  SHA-1-fingerprinted and deduplicated through a
  :class:`~repro.wanopt.engine.CompressionEngine` on a CLAM index, i.e. the
  whole real-byte content pipeline rather than the chunker in isolation.

``--quick`` runs a reduced rep count, writes ``BENCH_chunking_quick.json``
(so the committed baseline is never clobbered) and enforces a **soft
regression ratchet**: if the committed ``BENCH_chunking.json`` contains a
result for the same workload shape (payload size, average size, seed, same
execution path), the fresh optimized-over-reference *speedup* must not fall
below 50 % of the committed one.  The speedup is a same-run ratio (both
sides run on the same box in the same process), which cancels much of a
runner's speed but not all of it: the same code read 36.6x in one recording
and 50-68x in five runs of another, so a committed figure recorded on a slow
host lifts the floor (ROADMAP item 4(b)'s interleaved ratio is the fix).
"""

from __future__ import annotations

import argparse
import json
import random
import time

from benchmarks.common import (
    REPO_ROOT,
    add_telemetry_arg,
    dump_telemetry,
    print_table,
    standard_clam,
    write_bench_json,
)
from benchmarks.e2e.streams import WORKLOADS as E2E_WORKLOADS
from benchmarks.e2e.streams import PayloadStream
from benchmarks.ratchet import assert_fraction
from repro.telemetry import build_snapshot
from repro.wanopt.chunking import HAVE_NUMPY, RabinChunker
from repro.wanopt.engine import CompressionEngine
from repro.wanopt.traces import build_payload_objects

#: (payload_kib, average_size) workloads; the first is the headline, the
#: fifth the end-to-end benchmark's object shape, the last one object
#: smaller than a tile of the scan.
WORKLOADS = [
    (64, 4096),
    (64, 1024),
    (64, 16384),
    (1024, 4096),
    (512, 8192),
    (4096, 8192),
    (4, 1024),
]

PAYLOAD_SEED = 11

#: Headline shape the >= 10x acceptance bar applies to.
HEADLINE = (64, 4096)

#: Ratchet floor: fresh optimized MB/s vs the committed JSON, same shape.
RATCHET_FRACTION = 0.5

#: Telemetry snapshot of the end-to-end CLAM, filled by
#: ``measure_end_to_end(telemetry=True)`` for ``--telemetry-out``.
_END_TO_END_SNAPSHOT = None

END_TO_END = dict(num_objects=12, object_size=96 * 1024, redundancy=0.5, seed=23)

#: The repeated stream: the end-to-end benchmark's payload objects (512 KiB
#: of eight 64 KiB blocks, five of them repeats; ``benchmarks/e2e/streams.py``)
#: at its warm-up length, cut at its harness's 8 KiB average chunk size.
REPEATED = dict(
    workload="wan_payload_inproc", seed=1, average_size=8192, warm_objects=272, timed_objects=600
)


def _mb_per_s(nbytes: int, seconds: float) -> float:
    return nbytes / 1e6 / seconds if seconds > 0 else float("inf")


def _best_rate(fn, nbytes: int, reps: int) -> float:
    """Best-of-N MB/s (the least noise-sensitive estimator)."""
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return _mb_per_s(nbytes, best)


def measure_workload(payload_kib: int, average: int, reps: int, reference_reps: int):
    # A run over a few KiB lasts microseconds: take best-of over as many
    # bytes as the 64 KiB rows do.
    reps, reference_reps = (n * max(1, 64 // payload_kib) for n in (reps, reference_reps))
    data = random.Random(PAYLOAD_SEED).randbytes(payload_kib * 1024)
    chunker = RabinChunker(average_size=average)
    boundaries = chunker.boundaries(data)
    reference = chunker.reference_boundaries(data)
    assert boundaries == reference, "optimized boundaries diverged from the reference"
    row = {
        "payload_kib": payload_kib,
        "average_size": average,
        "seed": PAYLOAD_SEED,
        "chunks": len(boundaries),
        "reference_mb_per_s": _best_rate(
            lambda: chunker.reference_boundaries(data), len(data), reference_reps
        ),
        "optimized_mb_per_s": _best_rate(
            lambda: RabinChunker(average_size=average).boundaries(data), len(data), reps
        ),
    }
    row["optimized_speedup"] = row["optimized_mb_per_s"] / row["reference_mb_per_s"]
    return row


def measure_repeated_stream(spec):
    """One chunker over the repeated stream, against a fresh chunker per object."""
    workload = next(w for w in E2E_WORKLOADS if w.name == spec["workload"])
    objects = (data for _, data in PayloadStream(workload, spec["seed"]))
    average = spec["average_size"]
    chunker = RabinChunker(average_size=average)
    for _ in range(spec["warm_objects"]):
        chunker.boundaries(next(objects))
    served_before = chunker.cache_hit_bytes
    total_bytes = chunks = 0
    one_chunker = fresh_chunkers = 0.0
    for _ in range(spec["timed_objects"]):
        data = next(objects)
        started = time.perf_counter()
        boundaries = chunker.boundaries(data)
        middle = time.perf_counter()
        cold = RabinChunker(average_size=average).boundaries(data)
        one_chunker += middle - started
        fresh_chunkers += time.perf_counter() - middle
        assert boundaries == cold, "a cached cut diverged from the scan"
        total_bytes += len(data)
        chunks += len(boundaries)
    row = {
        **spec,
        "chunks": chunks,
        "mb_per_s": _mb_per_s(total_bytes, one_chunker),
        "fresh_chunker_mb_per_s": _mb_per_s(total_bytes, fresh_chunkers),
        "cache_share": (chunker.cache_hit_bytes - served_before) / total_bytes,
    }
    row["cache_speedup"] = row["mb_per_s"] / row["fresh_chunker_mb_per_s"]
    return row


def measure_end_to_end(telemetry: bool = False):
    """Generate, chunk, fingerprint and deduplicate real objects on a CLAM."""
    started = time.perf_counter()
    objects = build_payload_objects(**END_TO_END)
    build_seconds = time.perf_counter() - started
    clam = standard_clam(telemetry_enabled=telemetry)
    engine = CompressionEngine(index=clam)
    started = time.perf_counter()
    for obj in objects:
        engine.process_object_batched(obj)
    engine_seconds = time.perf_counter() - started
    total_bytes = sum(obj.size_bytes for obj in objects)
    total_seconds = build_seconds + engine_seconds
    if telemetry:
        global _END_TO_END_SNAPSHOT
        _END_TO_END_SNAPSHOT = build_snapshot(per_shard={"clam": clam.telemetry})
    return {
        **END_TO_END,
        "total_bytes": total_bytes,
        "chunk_and_fingerprint_seconds": round(build_seconds, 4),
        "engine_seconds": round(engine_seconds, 4),
        "objects_per_second": len(objects) / total_seconds,
        "mb_per_second": _mb_per_s(total_bytes, total_seconds),
        "dedup_hit_rate": (
            sum(r.chunks_matched for r in engine.results)
            / max(1, sum(r.chunks_total for r in engine.results))
        ),
    }


def apply_ratchet(rows) -> list:
    """Compare fresh optimized-over-reference speedups against the committed JSON.

    Only rows with the same workload shape *and* the same execution path
    (the tiled scan with numpy, the reference loop without) are comparable;
    a missing or foreign-shaped committed file ratchets nothing.  The
    speedup is a same-run ratio (both sides on the same box in the same
    process), so a uniformly slower runner moves it little; it is not
    machine-invariant, though, and a committed figure recorded on a slow
    host lifts the floor (see the module docstring).  The floor itself is
    enforced by the shared :func:`benchmarks.ratchet.assert_fraction`
    primitive.
    """
    committed_path = REPO_ROOT / "BENCH_chunking.json"
    if not committed_path.exists():
        return []
    committed = json.loads(committed_path.read_text())
    if committed.get("spec", {}).get("numpy_available") != HAVE_NUMPY:
        return []
    by_shape = {
        (row["payload_kib"], row["average_size"], row["seed"]): row
        for row in committed.get("workloads", [])
    }
    checked = []
    for row in rows:
        old = by_shape.get((row["payload_kib"], row["average_size"], row["seed"]))
        if old is None:
            continue
        check = assert_fraction(
            f"chunking speedup on {row['payload_kib']} KiB / avg {row['average_size']}",
            fresh=row["optimized_speedup"],
            committed=old["optimized_speedup"],
            floor=RATCHET_FRACTION,
        )
        checked.append(
            {
                "payload_kib": row["payload_kib"],
                "average_size": row["average_size"],
                "committed_speedup": old["optimized_speedup"],
                "fresh_speedup": row["optimized_speedup"],
                "floor_speedup": check["floor"],
            }
        )
    return checked


def check_invariants(payload) -> None:
    headline = next(
        row for row in payload["workloads"] if (row["payload_kib"], row["average_size"]) == HEADLINE
    )
    if HAVE_NUMPY:
        assert headline["optimized_speedup"] >= 10.0, headline
    assert payload["end_to_end"]["dedup_hit_rate"] > 0.0, payload["end_to_end"]
    repeated = payload["repeated_stream"]
    assert (repeated["cache_share"] > 0.0) == HAVE_NUMPY, repeated


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer reps + regression ratchet for CI"
    )
    add_telemetry_arg(parser)
    args = parser.parse_args()
    global WORKLOADS, END_TO_END, REPEATED
    reps, reference_reps = (3, 1) if args.quick else (7, 3)
    if args.quick:
        WORKLOADS = [w for w in WORKLOADS if w[0] <= 64]
        END_TO_END = dict(END_TO_END, num_objects=6, object_size=64 * 1024)
        REPEATED = dict(REPEATED, warm_objects=40, timed_objects=40)

    started = time.perf_counter()
    rows = [measure_workload(*workload, reps, reference_reps) for workload in WORKLOADS]
    repeated = measure_repeated_stream(REPEATED)
    end_to_end = measure_end_to_end(telemetry=args.telemetry_out is not None)
    ratchet = apply_ratchet(rows) if args.quick else []

    print_table(
        "Rabin chunking throughput (bit-identical boundaries, seeded payloads)",
        ["payload", "avg", "chunks", "ref MB/s", "opt MB/s", "speedup"],
        [
            (
                f"{row['payload_kib']} KiB",
                row["average_size"],
                row["chunks"],
                row["reference_mb_per_s"],
                row["optimized_mb_per_s"],
                f"{row['optimized_speedup']:.1f}x",
            )
            for row in rows
        ],
    )
    print(
        f"repeated stream, one chunker: {repeated['mb_per_s']:.1f} MB/s, "
        f"{repeated['cache_share']:.1%} of bytes from the chunk cache; "
        f"a fresh chunker per object: {repeated['fresh_chunker_mb_per_s']:.1f} MB/s "
        f"({repeated['cache_speedup']:.2f}x)"
    )
    print(
        f"end to end (chunk + SHA-1 + dedup on CLAM): "
        f"{end_to_end['objects_per_second']:.1f} objects/s, "
        f"{end_to_end['mb_per_second']:.1f} MB/s, "
        f"hit rate {end_to_end['dedup_hit_rate']:.3f}"
    )
    if ratchet:
        print(f"ratchet: {len(ratchet)} workload(s) checked against the committed JSON")
    if not HAVE_NUMPY:
        print("numpy unavailable: the tiled scan is skipped (the reference loop measured twice)")

    payload = {
        "spec": {
            "workloads": [list(w) for w in WORKLOADS],
            "headline": list(HEADLINE),
            "payload_seed": PAYLOAD_SEED,
            "numpy_available": HAVE_NUMPY,
            "quick": args.quick,
        },
        "workloads": rows,
        "repeated_stream": repeated,
        "end_to_end": end_to_end,
        "ratchet": ratchet,
    }
    check_invariants(payload)
    path = write_bench_json(
        "chunking", payload, quick=args.quick, elapsed_seconds=time.perf_counter() - started
    )
    print(f"wrote {path}")
    dump_telemetry(args.telemetry_out, _END_TO_END_SNAPSHOT)


if __name__ == "__main__":
    main()
