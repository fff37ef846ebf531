"""The traced pass: per-layer metrics, read from spans, counters and replays.

A traced run repeats the workload with spans recorded around every call into
a layer (``object``, ``chunk``, ``fingerprint``, ``engine``,
``index.lookup_batch``, ``index.insert_batch``, ``clam.lookup``,
``clam.insert``) and under ``count_hash_calls()``.  Before it, untraced
*reference segments* (the first fifth of the same objects on a freshly set-up
index) run in the same process, so that every ratio reported compares like
with like: traced vs untraced, telemetry on vs off, worker processes vs the
in-process twin.  A metric whose layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.hashing import (
    PARTITION_SEED,
    HashCallLog,
    as_digest,
    digest_cache_info,
    fnv1a_64,
)
from repro.service import ShardRouter, wire
from repro.workloads.workload import OpKind

from benchmarks.e2e.harness import (
    REFERENCE_KERNEL_S,
    SPAN_CHUNK,
    SPAN_ENGINE,
    SPAN_FINGERPRINT,
    HostKernel,
    Metric,
    Session,
    SpanRecorder,
    Timed,
    median,
    percentile,
    timing_metrics,
)
from benchmarks.e2e.streams import Workload

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("core.lookup_buffer_us", "us", "lower"),
    ("core.lookup_buffer_us.busy_share", "fraction", "lower"),
    ("core.lookup_flash_us", "us", "lower"),
    ("core.lookup_flash_us.busy_share", "fraction", "lower"),
    ("core.lookup_miss_us", "us", "lower"),
    ("core.lookup_miss_us.busy_share", "fraction", "lower"),
    ("core.insert_us", "us", "lower"),
    ("core.insert_us.busy_share", "fraction", "lower"),
    ("core.insert_flush_us", "us", "lower"),
    ("core.insert_flush_us.busy_share", "fraction", "lower"),
    ("core.bloom_checks_per_lookup", "count", "lower"),
    ("core.false_positive_reads", "count", "lower"),
    ("core.flushes", "count", "lower"),
    ("core.evictions", "count", "lower"),
    ("core.hashing.fnv_passes_per_op", "count", "lower"),
    ("core.hashing.digest_builds_per_op", "count", "lower"),
    ("core.hashing.fnv1a_us_per_call", "us", "lower"),
    ("core.hashing.digest_cache_size", "count", "lower"),
    ("flashsim.read_ops", "count", "lower"),
    ("flashsim.write_ops", "count", "lower"),
    ("flashsim.write_bytes_per_user_byte", "bytes/byte", "lower"),
    ("flashsim.read_sim_ms", "sim_ms", "lower"),
    ("flashsim.write_sim_ms", "sim_ms", "lower"),
    ("wanopt.chunking.busy_share", "fraction", "lower"),
    ("wanopt.chunking.mb_per_s", "MB/s", "higher"),
    ("wanopt.chunking.chunks", "count", "lower"),
    ("wanopt.fingerprint.us_per_chunk", "us", "lower"),
    ("wanopt.engine.self_share", "fraction", "lower"),
    ("service.cluster.lookup_batch_us_per_key", "us", "lower"),
    ("service.cluster.insert_batch_us_per_key", "us", "lower"),
    ("service.batch.shards_touched_per_call", "count", "lower"),
    ("service.router.route_us_per_key", "us", "lower"),
    ("service.wire.encode_request_us_per_op", "us", "lower"),
    ("service.wire.decode_request_us_per_op", "us", "lower"),
    ("service.wire.encode_response_us_per_op", "us", "lower"),
    ("service.wire.decode_response_us_per_op", "us", "lower"),
    ("service.wire.request_bytes_per_op", "bytes", "lower"),
    ("service.parallel.parent_cpu_us_per_op", "us", "lower"),
    ("service.parallel.worker_cpu_us_per_op", "us", "lower"),
    ("service.parallel.wait_share", "fraction", "lower"),
    ("service.parallel.frames_per_object", "count", "lower"),
    ("service.parallel.single_op_roundtrip_us", "us", "lower"),
    ("service.parallel.rpc_tax_ratio", "ratio", "lower"),
    ("telemetry.on_over_off", "ratio", "higher"),
    ("lookup_p90_us", "us", "lower"),
    ("insert_p90_us", "us", "lower"),
    ("object_p90_ms", "ms", "lower"),
    ("bench.distinct_keys", "count", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.host_slowness", "ratio", "lower"),
)

#: Workload keys replayed through ``fnv1a_64`` and ``route_many``.
_REPLAY_KEYS = 10_000
#: Single-operation round trips timed against one worker.
_ROUNDTRIPS = 2_000


def _replay_hashing(keys: List[bytes]) -> float:
    """Microseconds per full-key FNV pass over the workload's own keys."""
    started = time.perf_counter()
    for key in keys:
        fnv1a_64(key, PARTITION_SEED)
    return (time.perf_counter() - started) * 1e6 / len(keys)


def _replay_routing(session: Session, keys: List[bytes]) -> float:
    """Microseconds per key of ``route_many`` on the digests the run left
    behind (a repeated key's ring hash is already memoised, as in the run)."""
    router = getattr(session.index, "router", None)
    if router is None:
        router = ShardRouter(["shard-0", "shard-1"])
    digests = [as_digest(key) for key in keys]
    started = time.perf_counter()
    router.route_many(digests)
    return (time.perf_counter() - started) * 1e6 / len(digests)


def _replay_wire(session: Session) -> Dict[str, float]:
    """Run the four public codecs over the per-shard groups of the run's last
    batched calls; microseconds (and request bytes) per operation."""
    captured = session.proxy.tally.captured
    router = getattr(session.index, "router", None)
    if not captured or router is None:
        return {}
    seconds = [0.0, 0.0, 0.0, 0.0]
    request_bytes = 0
    operations = 0
    for _kind, keys, values, results in captured:
        op_kind = OpKind.LOOKUP if values is None else OpKind.INSERT
        groups: Dict[str, List[int]] = {}
        for position, key in enumerate(keys):
            groups.setdefault(router.route(key), []).append(position)
        for positions in groups.values():
            request = [
                (op_kind, as_digest(keys[i]), b"" if values is None else values[i])
                for i in positions
            ]
            answers = [results[i] for i in positions]
            marks = [time.perf_counter()]
            payload = wire.encode_batch_request(0.02, request)
            marks.append(time.perf_counter())
            wire.decode_batch_request(payload)
            marks.append(time.perf_counter())
            response = wire.encode_batch_response(answers, wire.ERR_NONE, "", 1.0, 1.0)
            marks.append(time.perf_counter())
            wire.decode_batch_response(response)
            marks.append(time.perf_counter())
            for stage in range(4):
                seconds[stage] += marks[stage + 1] - marks[stage]
            request_bytes += len(payload)
            operations += len(positions)
    names = ("encode_request", "decode_request", "encode_response", "decode_response")
    out = {
        f"service.wire.{name}_us_per_op": seconds[stage] * 1e6 / operations
        for stage, name in enumerate(names)
    }
    out["service.wire.request_bytes_per_op"] = request_bytes / operations
    return out


def _single_op_roundtrip_us(session: Session) -> float:
    """Median wall time of ``RemoteShard.lookup`` of a never-inserted key:
    one frame out, a Bloom-negative miss in the worker, one frame back."""
    shard = next(iter(session.index.shards.values()))
    samples = []
    for _ in range(_ROUNDTRIPS):
        started = time.perf_counter()
        shard.lookup(b"e2e-roundtrip-probe")
        samples.append((time.perf_counter() - started) * 1e6)
    samples.sort()
    return percentile(samples, 0.5)


#: The reference variants run the first 1/REFERENCE_SHARE of the timed objects.
REFERENCE_SHARE = 5


@dataclass
class References:
    """Object intervals of the untraced reference variants, each variant at
    the reference host speed (its own pass's ``Phase.slowdown``)."""

    object_s: Dict[str, List[float]]
    #: Operations checked, and found wrong, over all variants (warm-ups included).
    attempted: int = 0
    failed: int = 0

    def ratio(self, numerator: str, denominator: str) -> Tuple[float, int]:
        """Median over the objects of one variant's interval over another's
        (the same object in both, so a burst that hit one object moves one
        ratio, not the median)."""
        return median_ratio(self.object_s[numerator], self.object_s[denominator])


def median_ratio(numerators: List[float], denominators: List[float]) -> Tuple[float, int]:
    ratios = sorted(top / bottom for top, bottom in zip(numerators, denominators))
    return percentile(ratios, 0.5), len(ratios)


def reference_segments(
    workload: Workload, seed: int, smoke: bool, objects: int, kernel: HostKernel
) -> References:
    """Run the first fifth of the timed objects untraced, once per variant,
    each on a fresh set-up.

    ``untraced`` is the workload as it is; ``telemetry_on`` (``clam_redundant``
    only) the same with ``telemetry_enabled=True``; ``twin_inproc``
    (``wan_rpc_2w`` only) the same objects through an in-process 2-shard
    ``ClusterService``.  They run before the traced session is built, so each
    starts from the clean heap an untraced run sees.
    """
    variants: Dict[str, Dict[str, object]] = {"untraced": {}}
    if workload.name == "clam_redundant":
        variants["telemetry_on"] = {"telemetry": True}
    if workload.index == "rpc":
        variants["twin_inproc"] = {"index_kind": "inproc"}
    object_s: Dict[str, List[float]] = {}
    flags = {}
    attempted = failed = 0
    for name, options in variants.items():
        session = Session(workload, seed, smoke, kernel, **options)
        try:
            phase = session.run_objects(max(1, objects // REFERENCE_SHARE))
        finally:
            session.close()
        attempted += session.proxy.checked + session.exceptions
        failed += session.proxy.failed
        flags[name] = phase.matched_flags
        slowdown = phase.slowdown()
        object_s[name] = [value / slowdown for value in phase.object_s]
    if "twin_inproc" in flags and flags["untraced"] != flags["twin_inproc"]:
        failed += 1  # worker processes and in-process twin disagreed
    return References(object_s=object_s, attempted=attempted, failed=failed)


def layer_metrics(
    session: Session,
    timed: Timed,
    recorder: SpanRecorder,
    hash_log: HashCallLog,
    references: References,
) -> Dict[str, Metric]:
    """Every per-layer metric of one traced run (``session`` is still open)."""
    workload = session.workload
    proxy, phase, operations = session.proxy, timed.phase, timed.operations
    tally = proxy.tally
    busy_s = phase.busy_s
    objects = len(phase.object_s)
    values: Dict[str, Tuple[float, int]] = {}

    # core: outcome classes of single lookup/insert calls (clam_* workloads).
    for name, samples in tally.class_us.items():
        if samples:
            ordered = sorted(samples)
            values[f"core.{name}_us"] = (percentile(ordered, 0.5), len(ordered))
            values[f"core.{name}_us.busy_share"] = (sum(ordered) / 1e6 / busy_s, len(ordered))
    if tally.lookups:
        values["core.bloom_checks_per_lookup"] = (
            tally.incarnations_checked / tally.lookups,
            tally.lookups,
        )

    def delta(counter: str) -> float:
        return timed.counters_after.get(counter, 0.0) - timed.counters_before.get(counter, 0.0)

    values["core.false_positive_reads"] = (delta("false_positive_reads"), operations)
    values["core.flushes"] = (delta("flushes"), operations)
    values["core.evictions"] = (delta("evictions"), operations)
    values["core.hashing.fnv_passes_per_op"] = (hash_log.total / operations, operations)
    values["core.hashing.digest_builds_per_op"] = (hash_log.digest_builds / operations, operations)
    values["core.hashing.digest_cache_size"] = (digest_cache_info()["size"], 1)

    # flashsim: exact device counts; a wall-clock optimisation must not move them.
    values["flashsim.read_ops"] = (delta("device_read_ops"), operations)
    values["flashsim.write_ops"] = (delta("device_write_ops"), operations)
    values["flashsim.read_sim_ms"] = (delta("device_read_ms"), operations)
    values["flashsim.write_sim_ms"] = (delta("device_write_ms"), operations)
    if proxy.insert_bytes:
        values["flashsim.write_bytes_per_user_byte"] = (
            delta("device_write_bytes") / proxy.insert_bytes,
            proxy.insert_keys,
        )

    # wanopt: stage spans; self time is a span minus what its children cover.
    total_s, self_s = recorder.totals()
    if workload.payload:
        values["wanopt.chunking.busy_share"] = (total_s[SPAN_CHUNK] / busy_s, objects)
        values["wanopt.chunking.mb_per_s"] = (
            phase.original_bytes / 1e6 / total_s[SPAN_CHUNK],
            objects,
        )
        values["wanopt.chunking.chunks"] = (phase.chunks, objects)
        values["wanopt.fingerprint.us_per_chunk"] = (
            total_s[SPAN_FINGERPRINT] * 1e6 / phase.chunks,
            phase.chunks,
        )
    if workload.index != "clam":
        values["wanopt.engine.self_share"] = (self_s[SPAN_ENGINE] / busy_s, objects)
        values["service.cluster.lookup_batch_us_per_key"] = (
            tally.lookup_batch_s * 1e6 / tally.lookup_batch_keys,
            tally.lookup_batch_keys,
        )
        values["service.cluster.insert_batch_us_per_key"] = (
            tally.insert_batch_s * 1e6 / tally.insert_batch_keys,
            tally.insert_batch_keys,
        )
        values["service.batch.shards_touched_per_call"] = (
            tally.shards_touched / tally.batch_calls,
            tally.batch_calls,
        )

    # Replays over the workload's own keys and its last batched calls.
    replay_keys = list(proxy.model)[-_REPLAY_KEYS:]
    values["core.hashing.fnv1a_us_per_call"] = (_replay_hashing(replay_keys), len(replay_keys))
    values["service.router.route_us_per_key"] = (
        _replay_routing(session, replay_keys),
        len(replay_keys),
    )
    for name, value in _replay_wire(session).items():
        values[name] = (value, len(tally.captured))

    if workload.index == "rpc":
        parent_cpu_s = sum(phase.object_cpu_s)
        cpu_s = parent_cpu_s + timed.worker_cpu_s
        values["service.parallel.parent_cpu_us_per_op"] = (
            parent_cpu_s * 1e6 / operations,
            operations,
        )
        values["service.parallel.worker_cpu_us_per_op"] = (
            timed.worker_cpu_s * 1e6 / operations,
            operations,
        )
        values["service.parallel.wait_share"] = (1.0 - cpu_s / busy_s, operations)
        values["service.parallel.frames_per_object"] = (tally.shards_touched / objects, objects)
        values["service.parallel.single_op_roundtrip_us"] = (
            _single_op_roundtrip_us(session),
            _ROUNDTRIPS,
        )
        values["service.parallel.rpc_tax_ratio"] = references.ratio("untraced", "twin_inproc")

    # Ratios against the untraced reference segments (same objects, same process).
    head = len(references.object_s["untraced"])
    head_slowdown = (
        median(phase.kernel_s[:head]) / REFERENCE_KERNEL_S
    ) ** phase.host_sensitivity
    values["bench.trace_overhead_ratio"] = median_ratio(
        [value / head_slowdown for value in phase.object_s[:head]],
        references.object_s["untraced"],
    )
    if "telemetry_on" in references.object_s:
        values["telemetry.on_over_off"] = references.ratio("untraced", "telemetry_on")

    # The timings that could not hold an end-to-end bound (``REPEATABILITY.md``).
    declared = {name for name, _unit, _better in PER_LAYER}
    for name, metric in timing_metrics(timed).items():
        if name in declared:
            values[name] = (metric.raw, metric.samples)
    values["bench.distinct_keys"] = (timed.distinct_keys, 1)
    values["bench.host_slowness"] = (phase.host_slowness(), len(phase.kernel_s))

    unknown = set(values) - declared
    if unknown:
        raise KeyError(f"per-layer values without a declared metric: {sorted(unknown)}")
    # Times are reported at the reference host speed, like the end-to-end ones.
    slowdown = phase.slowdown()
    to_reference = {"us": 1.0 / slowdown, "ms": 1.0 / slowdown, "MB/s": slowdown}
    metrics = {}
    for name, unit, _better in PER_LAYER:
        value, samples = values.get(name, (0.0, 0))
        metrics[name] = Metric(float(value) * to_reference.get(unit, 1.0), unit, int(samples))
    return metrics


def write_spans(recorder: SpanRecorder, directory: Path, stem: str) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{stem}.spans.json"
    with open(path, "w") as handle:
        json.dump(recorder.to_json(), handle, separators=(",", ":"))
    return path
