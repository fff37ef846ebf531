"""The closed loop, the pass-through index proxy and the end-to-end metrics.

Layers are measured from outside, by timing calls into their public
functions: the benchmark owns an :class:`IndexProxy` that sits between the
workload driver (the per-chunk CLAM loop or the WAN compression engine) and
the index, timestamps every call and checks every answer against a model of
what the benchmark itself inserted.  Everything except the two
``perf_counter`` reads and one list append per call happens after the object's
timed interval has closed.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import struct
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import CLAM, CLAMConfig
from repro.core.hashing import as_digest, clear_digest_cache, digest_cache_info
from repro.core.results import ServedFrom
from repro.flashsim.clock import SimulationClock
from repro.service import ClusterService, ParallelClusterService
from repro.wanopt.chunking import RabinChunker
from repro.wanopt.engine import CompressionEngine
from repro.wanopt.fingerprint import Chunk, fingerprint_bytes
from repro.wanopt.traces import TraceObject

from benchmarks.e2e.streams import (
    DIGEST_CACHE_FIT,
    RECENT_WINDOW,
    Workload,
    make_stream,
    warm_objects_for,
)

#: Bytes a matched chunk still costs on the wire (the engine's default).
REFERENCE_BYTES = 40

#: Rabin average chunk size of the payload workload.
AVERAGE_CHUNK_BYTES = 8192

#: A lookup of a key inserted at most this many inserts ago must hit (the
#: window repeats are drawn from, plus one object of slack).
MUST_HIT_WINDOW = RECENT_WINDOW + 256

_LOOKUP, _INSERT, _LOOKUP_BATCH, _INSERT_BATCH = range(4)

SPAN_NAMES = (
    "object",
    "chunk",
    "fingerprint",
    "engine",
    "index.lookup_batch",
    "index.insert_batch",
    "clam.lookup",
    "clam.insert",
)
(
    SPAN_OBJECT,
    SPAN_CHUNK,
    SPAN_FINGERPRINT,
    SPAN_ENGINE,
    SPAN_LOOKUP_BATCH,
    SPAN_INSERT_BATCH,
    SPAN_CLAM_LOOKUP,
    SPAN_CLAM_INSERT,
) = range(len(SPAN_NAMES))

_CALL_SPAN = {
    _LOOKUP: SPAN_CLAM_LOOKUP,
    _INSERT: SPAN_CLAM_INSERT,
    _LOOKUP_BATCH: SPAN_LOOKUP_BATCH,
    _INSERT_BATCH: SPAN_INSERT_BATCH,
}


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an ascending, non-empty sequence."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(sorted(values), 0.5)


#: Unit definition, not a measurement: reported times are those of a host on
#: which one :meth:`HostKernel.sample` takes this long.
REFERENCE_KERNEL_S = 125e-6


class HostKernel:
    """Fixed, standard-library-only work whose cost moves with the host's.

    On a shared host every wall-clock *and* CPU-time number moves by tens of
    percent for minutes at a time (``REPEATABILITY.md``).  The loop times one
    sample of this kernel after every object, outside the object's interval;
    a phase's ``host_slowness`` is the median sample over
    ``REFERENCE_KERNEL_S``.  The work is shaped like the program's (records
    found through a dict of 20-byte keys, packed into frames and unpacked,
    small lists scanned, a SHA-1, a sort: many object kinds and C functions
    over a few megabytes) and shares none of its code, so a change to the
    program cannot move it.
    """

    RECORDS = 1 << 16
    STEPS = 32
    STRIDE = 331

    def __init__(self) -> None:
        self._keys = [hashlib.sha1(b"host-kernel-%d" % n).digest() for n in range(self.RECORDS)]
        self._table = {key: (key[:8], n, float(n)) for n, key in enumerate(self._keys)}
        self._lists = [[(n * 7 + j) & 255 for j in range(16)] for n in range(4096)]
        self._frame = struct.Struct("<QdI")
        self._cursor = 0
        self._checksum = 0

    def sample(self) -> float:
        """Seconds one run of the kernel takes right now."""
        keys, table, lists = self._keys, self._table, self._lists
        pack, unpack = self._frame.pack, self._frame.unpack
        mask = self.RECORDS - 1
        start = self._cursor
        self._cursor = (start + self.STEPS * self.STRIDE) & mask
        total = 0
        frames = []
        started = time.perf_counter()
        for step in range(self.STEPS):
            key = keys[(start + step * self.STRIDE) & mask]
            address, number, weight = table[key]
            frame = pack(number, weight, step) + key + address
            if unpack(frame[:20])[0] != number:
                raise AssertionError("host kernel frame did not round-trip")
            small = lists[number & 4095]
            total += sum(small) + small.index(small[step & 15])
            total += int.from_bytes(key[:4], "little") % 1021
            frames.append(frame)
        blob = b"".join(frames)
        hashlib.sha1(blob).digest()
        offsets = {blob[at : at + 8]: at for at in range(0, len(blob) - 28, 48)}
        sorted(offsets.values(), reverse=True)
        elapsed = time.perf_counter() - started
        self._checksum = total
        return elapsed


def stolen_seconds(cpu: int) -> float:
    """Seconds the hypervisor has so far kept ``cpu`` from running this guest
    (the ``steal`` column of ``/proc/stat``; 0.0 where there is none)."""
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                if line.startswith(f"cpu{cpu} "):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


class SpanRecorder:
    """In-memory span store: name, start, end, parent span, object id.

    Columnar on purpose: a traced ``clam_*`` pass records one span per index
    call (several hundred thousand), kept as five flat arrays and written
    out once, when the benchmark ends.
    """

    def __init__(self) -> None:
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.object_id = array("l")

    def add(self, name: int, start: float, end: float, parent: int, object_id: int) -> int:
        self.name.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.object_id.append(object_id)
        return len(self.name) - 1

    def totals(self) -> Tuple[List[float], List[float]]:
        """Per span name: total duration, and total self time (the span
        minus the part of it its child spans cover), in seconds."""
        count = len(self.name)
        child_time = [0.0] * count
        for index in range(count):
            parent = self.parent[index]
            if parent >= 0:
                child_time[parent] += self.end[index] - self.start[index]
        total = [0.0] * len(SPAN_NAMES)
        self_time = [0.0] * len(SPAN_NAMES)
        for index in range(count):
            duration = self.end[index] - self.start[index]
            total[self.name[index]] += duration
            self_time[self.name[index]] += duration - child_time[index]
        return total, self_time

    def to_json(self) -> Dict[str, object]:
        origin = self.start[0] if len(self.start) else 0.0
        return {
            "names": list(SPAN_NAMES),
            "name": self.name.tolist(),
            "start_us": [round((value - origin) * 1e6, 3) for value in self.start],
            "end_us": [round((value - origin) * 1e6, 3) for value in self.end],
            "parent": self.parent.tolist(),
            "object_id": self.object_id.tolist(),
        }


@dataclass
class LayerTally:
    """What the traced pass reads off the proxy's call records."""

    #: Wall microseconds of single ``lookup``/``insert`` calls by outcome class.
    class_us: Dict[str, List[float]] = field(
        default_factory=lambda: {
            "lookup_buffer": [],
            "lookup_flash": [],
            "lookup_miss": [],
            "insert": [],
            "insert_flush": [],
        }
    )
    lookups: int = 0
    incarnations_checked: int = 0
    batch_calls: int = 0
    shards_touched: int = 0
    lookup_batch_s: float = 0.0
    lookup_batch_keys: int = 0
    insert_batch_s: float = 0.0
    insert_batch_keys: int = 0
    #: The most recent batched calls ``(kind, keys, values, results)``, kept
    #: for the wire-codec replay.
    captured: List[Tuple[int, tuple, tuple, tuple]] = field(default_factory=list)


_SERVED_CLASS = {
    ServedFrom.BUFFER: "lookup_buffer",
    ServedFrom.INCARNATION: "lookup_flash",
    ServedFrom.MISSING: "lookup_miss",
    ServedFrom.DELETED: "lookup_miss",
}

#: Calls kept for the codec replay (the tail of the run: steady state).
_CAPTURE_LIMIT = 256


class IndexProxy:
    """Benchmark-owned pass-through in front of the index; always on.

    Forwards ``lookup``/``insert``/``lookup_batch``/``insert_batch`` (and,
    through ``__getattr__``, whatever else the engine reads: ``clock``,
    ``last_batch``), timestamps each call and queues ``(call, answer)`` for
    :meth:`settle`, which the loop runs after the object's interval closed.
    A queued call is ``(kind, keys, values or None, results, start, end,
    shards touched)``.
    """

    def __init__(self, index) -> None:
        self.index = index
        #: Set by :meth:`Session.attach_recorder` for the traced pass.
        self.recorder: Optional[SpanRecorder] = None
        self.tally: Optional[LayerTally] = None
        #: fingerprint -> (address the benchmark inserted, insert sequence number)
        self.model: Dict[bytes, Tuple[bytes, int]] = {}
        self.inserts_seen = 0
        #: Keys whose answer was checked, over every phase (never reset).
        self.checked = 0
        self.failed = 0
        self.failure_notes: List[str] = []
        self._pending: List[tuple] = []
        self.reset_samples()

    def __getattr__(self, name):
        return getattr(self.index, name)

    def reset_samples(self) -> None:
        """Start a new phase: drop latency samples and op counts, keep the model."""
        self.lookup_us: List[float] = []
        self.insert_us: List[float] = []
        self.lookup_keys = 0
        self.insert_keys = 0
        #: Key + value bytes handed to ``insert``/``insert_batch`` (user bytes).
        self.insert_bytes = 0
        if self.tally is not None:
            self.tally = LayerTally()

    # -- The four forwarded calls ------------------------------------------------------

    def lookup(self, key):
        start = time.perf_counter()
        result = self.index.lookup(key)
        end = time.perf_counter()
        self._pending.append((_LOOKUP, (key,), None, (result,), start, end, 0))
        return result

    def insert(self, key, value):
        start = time.perf_counter()
        result = self.index.insert(key, value)
        end = time.perf_counter()
        self._pending.append((_INSERT, (key,), (value,), (result,), start, end, 0))
        return result

    def lookup_batch(self, keys):
        keys = tuple(keys)
        start = time.perf_counter()
        results = self.index.lookup_batch(keys)
        end = time.perf_counter()
        shards = self.index.last_batch.shards_touched
        self._pending.append((_LOOKUP_BATCH, keys, None, tuple(results), start, end, shards))
        return results

    def insert_batch(self, items):
        items = list(items)
        start = time.perf_counter()
        results = self.index.insert_batch(items)
        end = time.perf_counter()
        shards = self.index.last_batch.shards_touched
        keys = tuple(key for key, _value in items)
        values = tuple(value for _key, value in items)
        self._pending.append((_INSERT_BATCH, keys, values, tuple(results), start, end, shards))
        return results

    # -- After the interval ------------------------------------------------------------

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.failure_notes) < 8:
            self.failure_notes.append(note)

    def discard_pending(self) -> None:
        self._pending.clear()

    def settle(self, parent: int = -1, object_id: int = -1) -> None:
        """Fold the queued calls into samples, checks and (traced) spans."""
        model = self.model
        tally = self.tally
        for call in self._pending:
            kind, keys, values, results, start, end, _shards = call
            per_key_us = (end - start) * 1e6 / max(1, len(keys))
            self.checked += len(keys)
            if len(results) != len(keys):
                self.fail(f"{len(keys)} keys in, {len(results)} results out")
            if values is None:
                self.lookup_us.append(per_key_us)
                self.lookup_keys += len(keys)
                for key, result in zip(keys, results):
                    entry = model.get(key)
                    if result.value is None:
                        if entry is not None and self.inserts_seen - entry[1] <= MUST_HIT_WINDOW:
                            self.fail(f"miss on a key inserted {self.inserts_seen - entry[1]} ago")
                    elif entry is None:
                        self.fail("hit on a fingerprint that was never inserted")
                    elif result.value != entry[0]:
                        self.fail("hit returned an address the benchmark did not insert")
            else:
                self.insert_us.append(per_key_us)
                self.insert_keys += len(keys)
                for key, value in zip(keys, values):
                    model[key] = (value, self.inserts_seen)
                    self.inserts_seen += 1
                    self.insert_bytes += len(key) + len(value)
            if tally is not None:
                self.recorder.add(_CALL_SPAN[kind], start, end, parent, object_id)
                self._tally_call(tally, call, per_key_us)
        self._pending.clear()

    @staticmethod
    def _tally_call(tally: LayerTally, call: tuple, per_key_us: float) -> None:
        kind, keys, values, results, start, end, shards = call
        if values is None:
            tally.lookups += len(results)
            for result in results:
                tally.incarnations_checked += result.incarnations_checked
        if kind == _LOOKUP:
            tally.class_us[_SERVED_CLASS[results[0].served_from]].append(per_key_us)
        elif kind == _INSERT:
            name = "insert_flush" if results[0].flushed else "insert"
            tally.class_us[name].append(per_key_us)
        else:
            tally.batch_calls += 1
            tally.shards_touched += shards
            if kind == _LOOKUP_BATCH:
                tally.lookup_batch_s += end - start
                tally.lookup_batch_keys += len(keys)
            else:
                tally.insert_batch_s += end - start
                tally.insert_batch_keys += len(keys)
            tally.captured.append((kind, keys, values, results))
            if len(tally.captured) > _CAPTURE_LIMIT:
                del tally.captured[0]


# -- Workload drivers ------------------------------------------------------------------


@dataclass
class Outcome:
    """What one object's processing produced (accounted after the interval)."""

    object_id: int
    original_bytes: int
    compressed_bytes: int
    fingerprints: Sequence[bytes]
    matched_flags: Sequence[bool]
    #: ``(span name, start, end)`` stages under the object span, in order.
    stages: Sequence[Tuple[int, float, float]] = ()


class ClamLoop:
    """The paper's section-8 single-box loop on a bare CLAM: ``lookup``, on a
    miss ``insert`` the chunk's content-cache address."""

    def __init__(self, proxy: IndexProxy) -> None:
        self.proxy = proxy
        self._next_address = 0

    def sim_ms(self) -> float:
        return self.proxy.index.clock.now_ms

    def process(self, obj: TraceObject):
        lookup, insert = self.proxy.lookup, self.proxy.insert
        address = self._next_address
        found = []
        for chunk in obj.chunks:
            fingerprint = chunk.fingerprint
            if lookup(fingerprint).value is None:
                address += 1
                insert(fingerprint, address.to_bytes(8, "big"))
                found.append(False)
            else:
                found.append(True)
        self._next_address = address
        return found

    def account(self, obj: TraceObject, found) -> Outcome:
        compressed = sum(
            min(REFERENCE_BYTES, chunk.size) if hit else chunk.size
            for chunk, hit in zip(obj.chunks, found)
        )
        return Outcome(
            object_id=obj.object_id,
            original_bytes=obj.size_bytes,
            compressed_bytes=compressed,
            fingerprints=[chunk.fingerprint for chunk in obj.chunks],
            matched_flags=found,
        )


class WanPipeline:
    """One branch office: (chunk -> SHA-1 ->) compression engine -> index.

    The engine runs with no content cache, so every new fingerprint is
    inserted with address 0; the branch's own simulated clock collects the
    fingerprint cost and both round trips' makespans.
    """

    def __init__(self, proxy: IndexProxy, payload: bool) -> None:
        self.proxy = proxy
        self.payload = payload
        self.engine = CompressionEngine(index=proxy, reference_size=REFERENCE_BYTES)
        self.chunker = RabinChunker(average_size=AVERAGE_CHUNK_BYTES)
        self.clock = SimulationClock()

    def sim_ms(self) -> float:
        return self.clock.now_ms

    def process(self, item):
        if not self.payload:
            started = time.perf_counter()
            result = self.engine.process_object_batched(item, clock=self.clock)
            return item, result, (started, started, started, time.perf_counter())
        object_id, data = item
        started = time.perf_counter()
        pieces = list(self.chunker.split(data))
        chunked = time.perf_counter()
        chunks = tuple(Chunk(fingerprint_bytes(piece), len(piece), piece) for piece in pieces)
        fingerprinted = time.perf_counter()
        obj = TraceObject(object_id, chunks)
        result = self.engine.process_object_batched(obj, clock=self.clock)
        return obj, result, (started, chunked, fingerprinted, time.perf_counter())

    def account(self, _item, processed) -> Outcome:
        obj, result, (started, chunked, fingerprinted, ended) = processed
        self.engine.results.clear()  # the engine keeps every result; the loop does not need them
        stages = [(SPAN_ENGINE, fingerprinted, ended)]
        if self.payload:
            stages = [
                (SPAN_CHUNK, started, chunked),
                (SPAN_FINGERPRINT, chunked, fingerprinted),
            ] + stages
        return Outcome(
            object_id=obj.object_id,
            original_bytes=result.original_bytes,
            compressed_bytes=result.compressed_bytes,
            fingerprints=[chunk.fingerprint for chunk in obj.chunks],
            matched_flags=result.matched_flags,
            stages=stages,
        )


# -- One index plus its stream ---------------------------------------------------------


def fill_digest_cache() -> None:
    """Bring the digest cache to the steady state of a long-running box: full.

    A workload of mostly new keys evicts one cached digest per new key for as
    long as it runs; reaching that regime through the index would take 65,536
    inserts per set-up, so the cache is filled with throwaway keys through the
    public ``as_digest`` instead (the digests themselves stay lazy).
    """
    for number in range(digest_cache_info()["capacity"]):
        as_digest(b"e2e-cache-filler-%d" % number)


def build_index(kind: str, telemetry: bool = False):
    """The index of one workload, on the repository's standard scaled CLAM
    config (16 super tables x 128-item buffers x 8 incarnations)."""
    config = CLAMConfig.scaled(
        num_super_tables=16,
        buffer_capacity_items=128,
        incarnations_per_table=8,
        telemetry_enabled=telemetry,
    )
    if kind == "clam":
        return CLAM(config, storage="intel-ssd")
    if kind == "inproc":
        return ClusterService(num_shards=2, config=config, storage="intel-ssd")
    if kind == "rpc":
        return ParallelClusterService(num_shards=2, config=config, storage="intel-ssd")
    raise ValueError(f"unknown index kind {kind!r}")


@dataclass
class Phase:
    """Accumulated measurements of one run of objects."""

    #: ``Workload.host_sensitivity`` of the workload the objects belong to.
    host_sensitivity: float
    object_s: List[float] = field(default_factory=list)
    #: Process CPU seconds of the same intervals (the parent's share).
    object_cpu_s: List[float] = field(default_factory=list)
    #: One :class:`HostKernel` sample per object, taken right after its interval.
    kernel_s: List[float] = field(default_factory=list)
    #: Wall time of the whole loop, and how much of it the hypervisor kept the
    #: pinned CPU from this guest (:func:`stolen_seconds`).
    wall_s: float = 0.0
    stolen_s: float = 0.0
    #: Time spent drawing objects from the stream (outside every interval).
    stream_s: float = 0.0
    original_bytes: int = 0
    compressed_bytes: int = 0
    chunks: int = 0
    matched_flags: List[Tuple[bool, ...]] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.object_s)

    def host_slowness(self) -> float:
        """How much slower than the reference host this phase's host ran
        (1.0 = ``REFERENCE_KERNEL_S``): the median of its kernel samples."""
        return median(self.kernel_s) / REFERENCE_KERNEL_S

    def slowdown(self) -> float:
        """What the host's slowness did to this workload's times: the host
        slowness to the power of the workload's sensitivity to it."""
        return self.host_slowness() ** self.host_sensitivity

    def at_reference(self, seconds: float) -> float:
        """``seconds`` of this phase's intervals at the reference host speed:
        less the share of the stolen time that fell into them, over the
        slowdown."""
        stolen = self.stolen_s * seconds / self.wall_s if self.wall_s else 0.0
        return (seconds - stolen) / self.slowdown()


class Session:
    """A freshly built index, its proxy, driver and object stream."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        smoke: bool,
        kernel: HostKernel,
        index_kind: Optional[str] = None,
        telemetry: bool = False,
    ) -> None:
        self.workload = workload
        self.kernel = kernel
        #: A twin on another index kind is not the workload the sensitivity
        #: was measured for; it moves with the host kernel.
        self.host_sensitivity = workload.host_sensitivity if index_kind is None else 1.0
        kind = index_kind if index_kind is not None else workload.index
        # The digest cache is module-global: without this, a second set-up in
        # one interpreter would find every warm-up key already hashed.
        clear_digest_cache()
        gc.collect()
        started = time.perf_counter()
        if not workload.fits_digest_cache:
            fill_digest_cache()
        self.index = build_index(kind, telemetry)
        built = time.perf_counter()
        self.proxy = IndexProxy(self.index)
        self.driver = (
            ClamLoop(self.proxy) if kind == "clam" else WanPipeline(self.proxy, workload.payload)
        )
        self.stream = make_stream(workload, seed, smoke)
        #: Objects whose processing raised, over every phase.
        self.exceptions = 0
        _prefill, warm = warm_objects_for(workload, smoke)
        warm_phase = self.run_objects(warm)
        #: Set-up is construction plus the warm-up objects' intervals.
        self.build_s = built - started
        self.warm_phase = warm_phase
        self.proxy.reset_samples()

    def attach_recorder(self, recorder: SpanRecorder) -> None:
        """Record spans and layer tallies from here on (the traced pass)."""
        self.proxy.recorder = recorder
        self.proxy.tally = LayerTally()

    def run_objects(self, count: int) -> Phase:
        """The closed loop: next object only after the previous one completed.

        Only ``driver.process`` is inside the interval; drawing the object
        from the stream, the output checks and the span bookkeeping are not.
        """
        phase = Phase(self.host_sensitivity)
        proxy, driver, stream = self.proxy, self.driver, self.stream
        recorder = proxy.recorder
        model = proxy.model
        sample_kernel = self.kernel.sample
        cpu = min(os.sched_getaffinity(0))  # the one CPU this process is pinned to
        stolen_before = stolen_seconds(cpu)
        loop_started = time.perf_counter()
        for _ in range(count):
            drawn = time.perf_counter()
            item = next(stream)
            phase.stream_s += time.perf_counter() - drawn
            cpu_start = time.process_time()
            start = time.perf_counter()
            try:
                processed = driver.process(item)
            except Exception as error:  # an operation that raised is a failed operation
                self.exceptions += 1
                proxy.fail(f"{type(error).__name__}: {error}")
                proxy.discard_pending()
                continue
            end = time.perf_counter()
            cpu_end = time.process_time()
            phase.kernel_s.append(sample_kernel())
            phase.object_s.append(end - start)
            phase.object_cpu_s.append(cpu_end - cpu_start)
            outcome = driver.account(item, processed)
            phase.original_bytes += outcome.original_bytes
            phase.compressed_bytes += outcome.compressed_bytes
            phase.chunks += len(outcome.fingerprints)
            parent = -1
            if recorder is not None:
                parent = recorder.add(SPAN_OBJECT, start, end, -1, outcome.object_id)
                stage = parent
                for name, stage_start, stage_end in outcome.stages:
                    stage = recorder.add(name, stage_start, stage_end, parent, outcome.object_id)
                parent = stage  # the engine stage comes last; index calls nest inside it
            proxy.settle(parent, outcome.object_id)
            for fingerprint, matched in zip(outcome.fingerprints, outcome.matched_flags):
                if matched and fingerprint not in model:
                    proxy.fail("matched chunk is not in the benchmark's seen-set")
            phase.matched_flags.append(tuple(outcome.matched_flags))
        phase.wall_s = time.perf_counter() - loop_started
        phase.stolen_s = stolen_seconds(cpu) - stolen_before
        return phase

    # -- Readings ----------------------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Flat CLAM/device counters, summed over shards for a cluster."""
        if isinstance(self.index, CLAM):
            return self.index.counters()
        return self.index.stats.combined()

    def worker_cpu_s(self) -> float:
        if isinstance(self.index, ParallelClusterService):
            return sum(self.index.worker_cpu_seconds().values())
        return 0.0

    def worker_peak_rss_mb(self) -> float:
        """Sum of the worker processes' peak resident sets (``VmHWM``)."""
        if not isinstance(self.index, ParallelClusterService):
            return 0.0
        total_kb = 0
        for pid in self.index.worker_pids().values():
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def close(self) -> None:
        close = getattr(self.index, "close", None)
        if close is not None:
            close()


# -- One run -----------------------------------------------------------------------------


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    #: For a time (or rate): the value as measured, before scaling to the
    #: reference host speed.
    raw: Optional[float] = None


@dataclass
class Timed:
    """The timed pass over a freshly set-up session, with its readings."""

    phase: Phase
    lookup_us: List[float]
    insert_us: List[float]
    operations: int
    counters_before: Dict[str, float]
    counters_after: Dict[str, float]
    worker_cpu_s: float
    sim_ms: float
    distinct_keys: int


def run_timed(session: Session, objects: int) -> Timed:
    proxy = session.proxy
    gc.collect()  # once, before the timed phase; the collector stays on
    if not session.workload.fits_digest_cache:
        cache = digest_cache_info()
        if cache["size"] < cache["capacity"]:
            proxy.fail(f"digest cache holds {cache['size']} entries: not at capacity")
    counters_before = session.counters()
    worker_cpu_before = session.worker_cpu_s()
    sim_before = session.driver.sim_ms()
    phase = session.run_objects(objects)
    sim_ms = session.driver.sim_ms() - sim_before
    worker_cpu_s = session.worker_cpu_s() - worker_cpu_before
    distinct = len(proxy.model)
    if session.workload.fits_digest_cache and distinct >= DIGEST_CACHE_FIT:
        proxy.fail(f"{distinct} distinct fingerprints do not fit the digest cache")
    return Timed(
        phase=phase,
        lookup_us=proxy.lookup_us,
        insert_us=proxy.insert_us,
        operations=proxy.lookup_keys + proxy.insert_keys,
        counters_before=counters_before,
        counters_after=session.counters(),
        worker_cpu_s=worker_cpu_s,
        sim_ms=sim_ms,
        distinct_keys=distinct,
    )


def exact_outputs(timed: Timed) -> Dict[str, float]:
    """Outputs that are functions of the inputs alone (never of a clock)."""
    phase = timed.phase
    return {
        "operations": timed.operations,
        "bench.distinct_keys": timed.distinct_keys,
        "sim_ms_per_op": timed.sim_ms / timed.operations,
        "bytes_saved_fraction": (phase.original_bytes - phase.compressed_bytes)
        / phase.original_bytes,
    }


#: ``name -> (unit, better)`` of the wall-clock and CPU-time metrics of a timed
#: pass.  ``BENCHMARK.json`` decides which are end-to-end (bounded) and which
#: are reported by the traced pass only.
TIMINGS = {
    "ops_per_s": ("ops/s", "higher"),
    "payload_mb_per_s": ("MB/s", "higher"),
    "lookup_p50_us": ("us", "lower"),
    "insert_p50_us": ("us", "lower"),
    "lookup_p90_us": ("us", "lower"),
    "insert_p90_us": ("us", "lower"),
    "object_p50_ms": ("ms", "lower"),
    "object_p90_ms": ("ms", "lower"),
    "cpu_us_per_op": ("us", "lower"),
}


def timing_metrics(timed: Timed) -> Dict[str, Metric]:
    """The ``TIMINGS`` of one timed pass: as measured (``raw``) and at the
    reference host speed (``value``)."""
    phase, operations = timed.phase, timed.operations
    lookups, inserts = sorted(timed.lookup_us), sorted(timed.insert_us)
    objects_ms = sorted(value * 1e3 for value in phase.object_s)
    busy_s = phase.busy_s
    cpu_s = sum(phase.object_cpu_s) + timed.worker_cpu_s
    measured = {
        "ops_per_s": (operations / busy_s, operations),
        "payload_mb_per_s": (phase.original_bytes / 1e6 / busy_s, len(objects_ms)),
        "lookup_p50_us": (percentile(lookups, 0.5), len(lookups)),
        "insert_p50_us": (percentile(inserts, 0.5), len(inserts)),
        "lookup_p90_us": (percentile(lookups, 0.9), len(lookups)),
        "insert_p90_us": (percentile(inserts, 0.9), len(inserts)),
        "object_p50_ms": (percentile(objects_ms, 0.5), len(objects_ms)),
        "object_p90_ms": (percentile(objects_ms, 0.9), len(objects_ms)),
        "cpu_us_per_op": (cpu_s * 1e6 / operations, operations),
    }
    # A rate is work over the busy time, which loses its share of the stolen
    # time; a percentile sits on an interval the hypervisor left alone, and
    # process CPU time never includes stolen time: both only change speed.
    slowdown = phase.slowdown()
    busy_ratio = busy_s / phase.at_reference(busy_s)
    metrics = {}
    for name, (unit, better) in TIMINGS.items():
        raw, samples = measured[name]
        scaled = raw * busy_ratio if better == "higher" else raw / slowdown
        metrics[name] = Metric(scaled, unit, samples, raw)
    return metrics


#: The end-to-end metrics, in report order (``BENCHMARK.json`` holds their
#: bounds).  A timing that is not here is reported by the traced pass.
END_TO_END = (
    "setup_s",
    "ops_per_s",
    "payload_mb_per_s",
    "lookup_p50_us",
    "insert_p50_us",
    "object_p50_ms",
    "cpu_us_per_op",
    "peak_rss_mb",
    "sim_ms_per_op",
    "bytes_saved_fraction",
)


@dataclass
class Measured:
    """An untraced run."""

    #: Every end-to-end candidate by name (``run.py`` reports the declared ones).
    metrics: Dict[str, Metric]
    exact: Dict[str, float]
    attempted: int
    failed: int
    failure_notes: List[str]
    host_slowness: float
    busy_s: float
    stream_s: float


def measure(workload: Workload, seed: int, smoke: bool, objects: int) -> Measured:
    """Set the workload up, time ``objects`` objects once, read the metrics."""
    session = Session(workload, seed, smoke, HostKernel())
    try:
        timed = run_timed(session, objects)
        peak_rss_mb = session.worker_peak_rss_mb()
    finally:
        session.close()
    peak_rss_mb += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phase, warm = timed.phase, session.warm_phase
    exact = exact_outputs(timed)
    setup_s = session.build_s + warm.busy_s
    setup_at_reference = session.build_s / warm.slowdown() + warm.at_reference(warm.busy_s)
    metrics = {"setup_s": Metric(setup_at_reference, "s", 1, setup_s)}
    metrics.update(timing_metrics(timed))
    metrics["peak_rss_mb"] = Metric(peak_rss_mb, "MB", 1)
    metrics["sim_ms_per_op"] = Metric(exact["sim_ms_per_op"], "sim_ms/op", timed.operations)
    metrics["bytes_saved_fraction"] = Metric(
        exact["bytes_saved_fraction"], "fraction", len(phase.object_s)
    )
    return Measured(
        metrics=metrics,
        exact=exact,
        attempted=session.proxy.checked + session.exceptions,
        failed=session.proxy.failed,
        failure_notes=session.proxy.failure_notes,
        host_slowness=phase.host_slowness(),
        busy_s=phase.busy_s,
        stream_s=phase.stream_s,
    )
