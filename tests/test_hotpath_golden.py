"""Bit-identity of the CLAM hot path against values frozen at an earlier commit.

The per-operation path (canonicalise -> partition -> delete list -> cuckoo
buffer -> Bloom candidates -> incarnation pages -> device accounting) is pure
interpreter overhead around a deterministic simulation, so it may be
restructured freely as long as *every* simulated outcome stays bit-identical:
each result record, the final clock reading and every counter.  This test
replays one seeded operation stream per device profile (and per hot-path
ablation switch) and compares a digest of all of that against ``GOLDEN``,
which was generated with the implementation of PR 14 (``python
tests/test_hotpath_golden.py`` prints a fresh table) and must only ever be
regenerated by a change that *means* to alter simulated behaviour.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import tempfile

import pytest

from repro.core import CLAM, CLAMConfig, DurableCLAM
from repro.core.hashing import clear_digest_cache, count_hash_calls, hold_digest_cache
from repro.core.results import ServedFrom
from repro.flashsim.device import DeviceGeometry
from repro.telemetry.trace import Tracer, tracing

_OPERATIONS = 20_000
_SEED = 0xC1A4


def _stream(operations: int, seed: int):
    """Deterministic mix of lookups, inserts, updates and deletes.

    Keys are 20-byte SHA-1 fingerprints; values vary from a few bytes to a
    few hundred so some incarnation pages overflow into their neighbours.
    Lookups favour recently inserted keys (buffer and flash hits), reach back
    beyond the retention window (evicted keys) and probe never-inserted keys
    (Bloom-negative misses and, at 4 bits per entry, false positives).
    """
    rng = random.Random(seed)
    inserted = []
    fresh = 0
    for _ in range(operations):
        draw = rng.random()
        if draw < 0.30 or not inserted:
            key = hashlib.sha1(b"golden-%d" % fresh).digest()
            fresh += 1
            inserted.append(key)
            size = rng.choice((4, 8, 8, 8, 24, 60, 200))
            yield "insert", key, rng.randbytes(size)
        elif draw < 0.40:
            key = inserted[-1 - int(rng.random() ** 2 * min(len(inserted), 400))]
            yield "update", key, rng.randbytes(8)
        elif draw < 0.45:
            key = inserted[-1 - int(rng.random() ** 2 * min(len(inserted), 400))]
            yield "delete", key, None
        elif draw < 0.55:
            yield "lookup", hashlib.sha1(b"absent-%d" % rng.randrange(1 << 30)).digest(), None
        elif draw < 0.60:
            yield "lookup", rng.choice(inserted), None
        else:
            key = inserted[-1 - int(rng.random() ** 2 * min(len(inserted), 600))]
            yield "lookup", key, None


#: The persistent device of the ``durable`` case: 2 MiB, 1 KiB pages.
_DURABLE_GEOMETRY = DeviceGeometry(page_size=1024, pages_per_block=64, num_blocks=32)


def _drive(clam, operations, records) -> tuple:
    """Run ``operations`` on ``clam``, digesting every result into ``records``;
    returns ``(false positive reads, overflow probes)``."""
    false_positives = 0
    overflow_probes = 0
    for kind, key, value in operations:
        if kind == "lookup":
            result = clam.lookup(key)
            false_positives += result.false_positive_reads
            if (
                result.served_from is ServedFrom.INCARNATION
                and result.flash_reads - result.false_positive_reads > 1
            ):
                overflow_probes += 1
            line = "L|%s|%s|%d|%d|%r" % (
                result.latency_ms.hex(),
                result.served_from.value,
                result.flash_reads,
                result.false_positive_reads,
                result.value,
            )
        elif kind == "delete":
            result = clam.delete(key)
            line = "D|%s|%r" % (result.latency_ms.hex(), result.removed_from_buffer)
        else:
            result = clam.insert(key, value) if kind == "insert" else clam.update(key, value)
            line = "I|%s|%r|%d|%d|%d" % (
                result.latency_ms.hex(),
                result.flushed,
                result.flash_writes,
                result.flash_reads,
                result.incarnations_tried,
            )
        records.update(line.encode())
    return false_positives, overflow_probes


def run_case(storage, operations: int = _OPERATIONS, **overrides) -> dict:
    """Drive one CLAM through the stream; digest everything it reports.

    ``storage`` is what :class:`CLAM` takes (a profile name or a list of
    them), or ``"durable"``: a :class:`DurableCLAM` on a file that is closed
    halfway through the stream and reopened, so its second half reads pages
    the reopened device decodes from the file.  Its clock and counters are
    the reopened CLAM's.
    """
    config = CLAMConfig.scaled(
        num_super_tables=4,
        buffer_capacity_items=32,
        incarnations_per_table=4,
        bloom_bits_per_entry=4.0,
        **overrides,
    )
    records = hashlib.sha256()
    stream = _stream(operations, _SEED)
    if storage == "durable":
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "golden.clam")
            with DurableCLAM(path, config=config, geometry=_DURABLE_GEOMETRY) as clam:
                first = _drive(clam, itertools.islice(stream, operations // 2), records)
            with DurableCLAM(path) as clam:
                second = _drive(clam, stream, records)
                counters = clam.counters()
                clock = clam.clock.now_ms
        false_positives, overflow_probes = (a + b for a, b in zip(first, second))
    else:
        clam = CLAM(config, storage=storage)
        false_positives, overflow_probes = _drive(clam, stream, records)
        counters = clam.counters()
        clock = clam.clock.now_ms
    counter_text = "|".join(f"{name}={float(counters[name]).hex()}" for name in sorted(counters))
    return {
        "records": records.hexdigest()[:32],
        "clock": clock.hex(),
        "counters": hashlib.sha256(counter_text.encode()).hexdigest()[:32],
        "flushes": int(counters["flushes"]),
        "evictions": int(counters["evictions"]),
        "device_read_ops": int(counters["device_read_ops"]),
        "false_positive_reads": false_positives,
        "overflow_probes": overflow_probes,
    }


#: case name -> (storage, operations, config overrides)
CASES = {
    "intel-ssd": ("intel-ssd", _OPERATIONS, {}),
    "transcend-ssd": ("transcend-ssd", _OPERATIONS, {}),
    "flash-chip": ("flash-chip", _OPERATIONS, {}),
    "disk": ("disk", _OPERATIONS, {}),
    "dram": ("dram", _OPERATIONS, {}),
    # The switches that select a different branch of the per-operation path.
    "intel-ssd/per-incarnation-bloom": ("intel-ssd", 6_000, {"use_bit_slicing": False}),
    "intel-ssd/no-bloom": ("intel-ssd", 6_000, {"use_bloom_filters": False}),
    "intel-ssd/lru": ("intel-ssd", 6_000, {"eviction_policy_name": "lru"}),
    "intel-ssd/update-eviction": ("intel-ssd", 6_000, {"eviction_policy_name": "update"}),
    "intel-ssd/telemetry": ("intel-ssd", 6_000, {"telemetry_enabled": True}),
    # The store layouts that read from a device other than a single in-memory one.
    "two-intel-ssds": (["intel-ssd", "intel-ssd"], 6_000, {}),
    "durable": ("durable", 6_000, {}),
}

_FIELDS = (
    "records", "clock", "counters",
    "flushes", "evictions", "device_read_ops", "false_positive_reads", "overflow_probes",
)  # fmt: skip


def _golden(*values) -> dict:
    return dict(zip(_FIELDS, values, strict=True))


# fmt: off
GOLDEN = {
    "intel-ssd": _golden(
        "26307036ceaba228b8c5e2e0f70977e2", "0x1.4ae94f7ddc79cp+10", "7cbdec4d1feca2ee0192c5c059329127",
        211, 195, 8588, 3579, 337,
    ),
    "transcend-ssd": _golden(
        "13d77d35eafb5adab7221df0a00b6705", "0x1.db94adbfe782fp+11", "f4337f9c6fb61a6045279f911cbf4297",
        211, 195, 8588, 3579, 337,
    ),
    "flash-chip": _golden(
        "6f161f93aa02ec091b0dd16db79d2103", "0x1.07ff06f693fe6p+12", "451ba54502c5135584e57845b0f80f78",
        211, 195, 7476, 2813, 0,
    ),
    "disk": _golden(
        "63a5338d2bf0e3dc040e387f7bf81de1", "0x1.aa0253df964acp+15", "2d7567d1009eb39d4be1f703d79dee10",
        211, 195, 8588, 3579, 337,
    ),
    "dram": _golden(
        "ae47487e80b75048fe91f4b282ac0ee5", "0x1.27951e82a99a5p+7", "3d515d9ee368027a1302c224bd8371ce",
        211, 195, 8588, 3579, 337,
    ),
    "intel-ssd/per-incarnation-bloom": _golden(
        "2aa38d29f7d100ff0bd771aec369551a", "0x1.7365d2f1aa180p+8", "54ebd283e84012a491203bf04875bbd0",
        61, 45, 2407, 898, 91,
    ),
    "intel-ssd/no-bloom": _golden(
        "5824b7730792dd106161d666fb8deb2a", "0x1.cc45cdd2f1429p+9", "a38d6bc5b763c1cc113e3e3259850bfb",
        61, 45, 6725, 5216, 91,
    ),
    "intel-ssd/lru": _golden(
        "5ce555fda237a9184591184033d66f1b", "0x1.70be77a96650fp+8", "731568ea0754f60a4cc45cd945ef46d9",
        102, 86, 2283, 977, 70,
    ),
    "intel-ssd/update-eviction": _golden(
        "49e3b0244a11fecf15717471dc9a7c37", "0x1.a241ce1dd7d01p+8", "b4c6a65f28b76be4dc935930dd5576d2",
        159, 143, 2667, 1000, 110,
    ),
    "intel-ssd/telemetry": _golden(
        "3246c48118b524b726f1f25989f28045", "0x1.749b958106554p+8", "3d3174ec6cffc2f065fc20a4bef40cb5",
        61, 45, 2407, 898, 91,
    ),
    # Recorded at 47e4140, before the page-read path stopped going through the store.
    "two-intel-ssds": _golden(
        "43632ca138d0797f5f34675e4ff5d66e", "0x1.7120b43958407p+8", "1508b6117e57373451f6eb253035b761",
        61, 45, 2407, 898, 91,
    ),
    "durable": _golden(
        "3d53d546a596b2d86c65080503e465b6", "0x1.e0751f212d800p+6", "6811bcf33814ccc094bce94608ec01b0",
        32, 32, 1223, 726, 12,
    ),
}
# fmt: on


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulated_outcomes_are_bit_identical(case):
    storage, operations, overrides = CASES[case]
    assert run_case(storage, operations, **overrides) == GOLDEN[case]


def test_stream_reaches_every_branch_it_claims():
    """Flushes, evictions, Bloom false positives and overflow-page probes all
    occur in the default-config stream, so the digests above cover them."""
    for case in ("intel-ssd", "transcend-ssd", "disk", "dram"):
        golden = GOLDEN[case]
        assert golden["flushes"] > 100
        assert golden["evictions"] > 100
        assert golden["false_positive_reads"] > 50
        assert golden["overflow_probes"] > 0


class _StreamIndex:
    """An object whose life bounds a digest-cache hold."""


@pytest.mark.parametrize("policy", ["fifo", "lru", "update"])
def test_stream_walks_each_key_once_under_every_eviction_policy(policy):
    """There is one key pipeline: whatever an operation sets off — a flush, a
    cuckoo displacement, LRU re-insertion, the partial-discard scan of an
    evicted incarnation and the cascade it can start — nothing below the API
    boundary hashes key bytes on its own.  A stand-in index that retains the
    stream's keys keeps them all in the digest cache (the CLAM alone retains
    fewer), so each is digested once and walked once."""
    distinct = len({key for _kind, key, _value in _stream(6_000, _SEED)})
    clear_digest_cache()
    keeper = _StreamIndex()
    hold_digest_cache(keeper, distinct)
    with count_hash_calls() as log:
        run_case("intel-ssd", 6_000, eviction_policy_name=policy)
    del keeper
    assert log.digest_builds == distinct
    assert log.total == log.digest_builds
    assert log.by_layer() == {"clam_words": distinct}


@pytest.mark.parametrize("storage", ["intel-ssd", "durable"])
def test_a_tracer_changes_no_simulated_outcome(storage):
    """One script with a tracer listening and without: every result record,
    counter and clock reading is the same (the traced path charges what the
    untraced one does, in the same order)."""
    with tracing(Tracer()):
        traced = run_case(storage, 3_000)
    assert traced == run_case(storage, 3_000)


def traced_span_digest(operations: int = 3_000) -> tuple:
    """Digest of every span a tracer-on run records: the ``clam.*`` operation
    spans and the ``device.read`` / ``device.write`` events under them, with
    their tree shape, clock windows and attributes."""
    config = CLAMConfig.scaled(
        num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4
    )
    clam = CLAM(config, storage="intel-ssd")
    tracer = Tracer()
    with tracing(tracer):
        for kind, key, value in _stream(operations, _SEED):
            if kind == "lookup":
                clam.lookup(key)
            elif kind == "delete":
                clam.delete(key)
            else:
                clam.insert(key, value)
    digest = hashlib.sha256()
    names: dict = {}
    for span in tracer.spans:
        names[span.name] = names.get(span.name, 0) + 1
        digest.update(
            repr(
                (
                    span.trace_id,
                    span.span_id,
                    span.parent_id,
                    span.name,
                    span.start_ms.hex(),
                    span.end_ms.hex(),
                    sorted(span.attributes.items()),
                )
            ).encode()
        )
    return digest.hexdigest()[:32], names


GOLDEN_TRACE = (
    "e82012749ca9ef080933632fe5cb6476",
    {"clam.insert": 1202, "clam.lookup": 1654, "device.write": 28, "device.read": 712},
)


def test_traced_run_emits_identical_spans():
    assert traced_span_digest() == GOLDEN_TRACE


if __name__ == "__main__":
    print(f"GOLDEN_TRACE = {traced_span_digest()!r}")
    for name, (storage, operations, overrides) in CASES.items():
        values = run_case(storage, operations, **overrides)
        print(f"    {name!r}: _golden{tuple(values[field] for field in _FIELDS)!r},")
