"""Tests for the unified telemetry plane (registry, tracing, events, schema).

Covers the contracts the observability layer stands on:

* histogram **merge exactness** — merging shard histograms is bucket-wise
  addition over identical boundaries, so ``merge(A, B)`` is *identical* to
  the histogram of the concatenated stream, percentiles included, and merge
  order cannot matter (hypothesis-checked);
* **percentile conservatism** — reported percentiles are bucket upper edges
  clamped to the observed max, so they never under-report and never exceed
  one bucket width of the true nearest-rank value;
* **trace propagation** — spans opened across CLAM → device and cluster →
  batch executor share one trace, including the failover re-dispatch path
  where a mid-batch shard death reroutes operations to a replica;
* **event-log ordering** — monotonic sequence numbers over the shard
  up/down/heal/recovery lifecycle, and :meth:`ClusterStats.health` telling a
  downed-and-healed shard apart from one that never failed;
* **snapshot schema** — every envelope produced by the exporters validates
  against the checked-in ``telemetry_schema.json`` via the stdlib validator.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CLAM, CLAMConfig
from repro.service import ClusterService
from repro.telemetry import (
    EventLog,
    LatencyHistogram,
    MetricsRegistry,
    SchemaError,
    Tracer,
    build_snapshot,
    default_latency_buckets,
    load_schema,
    tracing,
    validate,
    validate_snapshot,
    write_snapshot,
)
from repro.workloads import Operation, OpKind, fingerprint_for


def telemetry_config(**overrides) -> CLAMConfig:
    defaults = dict(
        num_super_tables=4,
        buffer_capacity_items=32,
        incarnations_per_table=4,
        telemetry_enabled=True,
    )
    defaults.update(overrides)
    return CLAMConfig.scaled(**defaults)


def make_cluster(**overrides) -> ClusterService:
    kwargs = dict(num_shards=4, replication_factor=2, config=telemetry_config())
    kwargs.update(overrides)
    return ClusterService(**kwargs)


#: Millisecond latencies in the histogram's covered range, with sub-bucket
#: jitter so bucket assignment is exercised away from the edges.
latencies = st.lists(
    st.floats(min_value=1e-3, max_value=5e3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


class TestHistogram:
    def test_observe_updates_scalars(self):
        hist = LatencyHistogram("h")
        for value in (0.5, 2.0, 8.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(10.5)
        assert hist.min == 0.5
        assert hist.max == 8.0

    def test_percentiles_are_conservative_and_bounded(self):
        hist = LatencyHistogram("h")
        values = [0.01 * (i + 1) for i in range(1000)]  # 0.01 .. 10.0 ms
        for value in values:
            hist.observe(value)
        boundaries = hist.boundaries
        ratio = boundaries[1] / boundaries[0]  # one bucket width, multiplicatively
        for fraction in (0.5, 0.9, 0.99, 0.999):
            true_value = values[max(1, math.ceil(fraction * len(values))) - 1]
            reported = hist.percentile(fraction)
            assert reported >= true_value or reported == hist.max
            assert reported <= true_value * ratio * (1 + 1e-9)

    def test_percentile_monotonic(self):
        hist = LatencyHistogram("h")
        for index in range(500):
            hist.observe(0.001 * (1.3 ** (index % 30)))
        snap = hist.snapshot()["percentiles_ms"]
        assert snap["p50"] <= snap["p90"] <= snap["p99"] <= snap["p999"]

    def test_overflow_values_clamp_to_observed_max(self):
        hist = LatencyHistogram("h")
        hist.observe(5e6)  # beyond the last boundary
        assert hist.percentile(0.5) == 5e6

    def test_merge_requires_identical_boundaries(self):
        left = LatencyHistogram("h")
        right = LatencyHistogram("h", boundaries=default_latency_buckets()[::2])
        with pytest.raises(ValueError):
            left.merge(right)

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(first=latencies, second=latencies)
    def test_merge_equals_whole_stream(self, first, second):
        merged = LatencyHistogram("h")
        for value in first:
            merged.observe(value)
        other = LatencyHistogram("h")
        for value in second:
            other.observe(value)
        merged.merge(other)

        whole = LatencyHistogram("h")
        for value in first + second:
            whole.observe(value)

        assert merged.counts == whole.counts
        assert merged.count == whole.count
        assert merged.sum == pytest.approx(whole.sum)
        assert merged.min == whole.min
        assert merged.max == whole.max
        for fraction in (0.5, 0.9, 0.99, 0.999):
            assert merged.percentile(fraction) == whole.percentile(fraction)

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(streams=st.lists(latencies, min_size=2, max_size=4))
    def test_merged_is_order_independent(self, streams):
        histograms = []
        for stream in streams:
            hist = LatencyHistogram("h")
            for value in stream:
                hist.observe(value)
            histograms.append(hist)
        forward = LatencyHistogram.merged("h", histograms)
        backward = LatencyHistogram.merged("h", list(reversed(histograms)))
        assert forward.counts == backward.counts
        assert forward.percentiles() == backward.percentiles()


class TestRegistry:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("ops").inc()
        registry.counter("ops").inc(4)
        registry.gauge("live").set(3)
        registry.gauge("live").add(-1)
        snap = registry.snapshot()
        assert snap["counters"]["ops"] == 5
        assert snap["gauges"]["live"] == 2
        with pytest.raises(ValueError):
            registry.counter("ops").inc(-1)

    def test_merge_combines_shards(self):
        shard_a, shard_b = MetricsRegistry(), MetricsRegistry()
        shard_a.counter("operations").inc(10)
        shard_b.counter("operations").inc(5)
        shard_a.histogram("lat").observe(1.0)
        shard_b.histogram("lat").observe(2.0)
        merged = MetricsRegistry.merged([shard_a, shard_b])
        assert merged.counter("operations").value == 15
        assert merged.histogram("lat").count == 2

    def test_snapshot_round_trips_with_buckets(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.histogram("lat").observe(0.5)
        snapshot = registry.snapshot(include_buckets=True)
        assert snapshot["counters"] == {"requests": 3}
        assert sum(snapshot["histograms"]["lat"]["bucket_counts"]) == 1
        restored = MetricsRegistry.from_snapshot(snapshot)
        assert restored.snapshot(include_buckets=True) == snapshot


class TestEventLog:
    def test_sequence_is_monotonic(self):
        log = EventLog()
        for index in range(5):
            log.record("tick", index=index)
        seqs = [event.seq for event in log]
        assert seqs == sorted(seqs) == list(range(len(seqs)))

    def test_kind_filter(self):
        log = EventLog()
        log.record("a")
        log.record("b")
        log.record("a")
        assert len(log.events(kind="a")) == 2
        assert set(log.kinds()) == {"a", "b"}


class TestTracer:
    def test_parenthood_follows_stack(self):
        tracer = Tracer()
        root = tracer.begin("root")
        child = tracer.begin("child")
        leaf = tracer.event("leaf", duration_ms=0.0)
        tracer.end(child)
        tracer.end(root)
        assert child.parent_id == root.span_id
        assert leaf.parent_id == child.span_id
        assert {span.trace_id for span in (root, child, leaf)} == {root.trace_id}
        assert tracer.roots() == [root]
        assert set(tracer.descendants(root)) == {child, leaf}

    def test_separate_roots_get_separate_traces(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        first, second = tracer.roots()
        assert first.trace_id != second.trace_id

    def test_tracing_context_restores_previous(self):
        from repro.telemetry import trace as trace_mod

        assert trace_mod.ACTIVE is None
        with tracing(Tracer()) as tracer:
            assert trace_mod.ACTIVE is tracer
        assert trace_mod.ACTIVE is None

    def test_double_end_does_not_drain_the_stack(self):
        """Regression: ending an already-ended span must not pop other spans.

        Before the stack guard, a second ``end`` on a closed span drained the
        open stack down to (and including) whatever happened to be open, so
        one double-end on an exception path orphaned every span the next
        operation opened.
        """
        tracer = Tracer()
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        tracer.end(inner)
        tracer.end(inner)  # double-end: must be a stamp-only no-op
        assert tracer.current is outer
        late = tracer.begin("late")
        assert late.parent_id == outer.span_id
        tracer.end(late)
        tracer.end(outer)
        assert tracer.current is None

    def test_ending_foreign_span_leaves_stack_intact(self):
        tracer = Tracer()
        other = Tracer()
        foreign = other.begin("foreign")
        mine = tracer.begin("mine")
        tracer.end(foreign)  # not on this tracer's stack
        assert tracer.current is mine
        tracer.end(mine)

    def test_stack_balanced_when_batch_operation_raises(self):
        """Regression: the executor's shard span closes on *any* exception.

        An operation that raises something other than DeviceFailedError used
        to leave the ``shard.batch`` span open forever; every later span was
        then silently parented under a dead branch of the trace.
        """
        cluster = ClusterService(
            num_shards=2,
            config=CLAMConfig.scaled(
                num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4
            ),
        )
        owner = cluster.shard_for(b"key")

        def exploding_insert(key, value):
            raise ValueError("buggy shard")

        cluster.shards[owner].clam.insert = exploding_insert
        with tracing(Tracer()) as tracer:
            with pytest.raises(ValueError, match="buggy shard"):
                cluster.execute_batch([Operation(OpKind.INSERT, b"key", b"value")])
            assert tracer.current is None  # every span closed despite the raise
            # The next root span starts a fresh trace instead of being
            # silently parented under the failed batch's leftovers.
            follow_up = tracer.begin("follow-up")
            assert follow_up.parent_id is None
            tracer.end(follow_up)
            shard_spans = tracer.find("shard.batch")
            assert shard_spans and all(s.attributes.get("failed") for s in shard_spans)


class TestClamTelemetry:
    def test_disabled_by_default(self):
        clam = CLAM(telemetry_config(telemetry_enabled=False))
        assert clam.telemetry is None
        clam.insert(fingerprint_for(1), b"v")
        assert clam.lookup(fingerprint_for(1)).found

    def test_enabled_records_histograms_and_ops(self):
        clam = CLAM(telemetry_config())
        for identifier in range(50):
            clam.insert(fingerprint_for(identifier), b"v")
        for identifier in range(50):
            clam.lookup(fingerprint_for(identifier))
        assert clam.telemetry.histogram("insert_latency_ms").count == 50
        assert clam.telemetry.histogram("lookup_latency_ms").count == 50
        assert clam.telemetry.counter("operations").value == 100

    def test_trace_reaches_device_io(self):
        clam = CLAM(telemetry_config(buffer_capacity_items=8))
        tracer = Tracer()
        with tracing(tracer):
            for identifier in range(200):  # enough to flush to flash
                clam.insert(fingerprint_for(identifier), b"v")
        inserts = tracer.find("clam.insert")
        assert len(inserts) == 200
        device_events = [
            span for span in tracer.spans if span.name.startswith("device.")
        ]
        assert device_events, "flushes must surface as device.* spans"
        # Device I/O triggered by an insert is parented under that insert.
        insert_ids = {span.span_id for span in inserts}
        assert any(span.parent_id in insert_ids for span in device_events)


class TestClusterTelemetry:
    def test_batch_failover_redispatch_stays_in_one_trace(self):
        cluster = make_cluster()
        keys = [fingerprint_for(identifier) for identifier in range(200)]
        cluster.execute_batch([Operation(OpKind.INSERT, key, b"v") for key in keys])
        victim = cluster.shard_for(keys[0])
        cluster.fail_shard(victim)

        tracer = Tracer()
        with tracing(tracer):
            batch = cluster.execute_batch([Operation(OpKind.LOOKUP, key) for key in keys])
        assert batch.retried_operations > 0
        assert all(result is not None and result.found for result in batch.results)

        (root,) = tracer.roots()
        assert root.name == "cluster.batch"
        assert root.attributes["retried_operations"] == batch.retried_operations
        shard_spans = [
            span for span in tracer.descendants(root) if span.name == "shard.batch"
        ]
        shards_touched = {span.attributes["shard"] for span in shard_spans}
        # The victim's sub-batch and its re-dispatch to survivors are all
        # spans of the same trace.
        assert victim in shards_touched
        assert len(shards_touched) >= 2
        assert any(span.attributes.get("failed") for span in shard_spans)
        assert {span.trace_id for span in shard_spans} == {root.trace_id}

    def test_events_cover_down_heal_lifecycle(self):
        cluster = make_cluster()
        keys = [fingerprint_for(identifier) for identifier in range(100)]
        for key in keys:
            cluster.insert(key, b"v")
        victim = cluster.shard_for(keys[0])
        cluster.fail_shard(victim)
        for key in keys:
            cluster.lookup(key)  # trips the failure detector
        cluster.heal_shard(victim)
        kinds = [event.kind for event in cluster.events]
        assert kinds.index("failure_injected") < kinds.index("shard_down")
        assert kinds.index("shard_down") < kinds.index("shard_healed")
        seqs = [event.seq for event in cluster.events]
        assert seqs == sorted(seqs)

    def test_health_distinguishes_healed_from_never_failed(self):
        cluster = make_cluster()
        keys = [fingerprint_for(identifier) for identifier in range(100)]
        for key in keys:
            cluster.insert(key, b"v")
        victim = cluster.shard_for(keys[0])
        cluster.fail_shard(victim)
        for key in keys:
            cluster.lookup(key)
        cluster.heal_shard(victim)

        health = cluster.stats.health()
        assert victim in health["healed_shards"]
        assert victim in health["shards_ever_down"]
        assert victim not in health["shards_never_failed"]
        untouched = set(cluster.live_shard_ids) - {victim}
        assert untouched
        assert untouched <= set(health["shards_never_failed"])
        # Back in the live set: without the event log the heal would have
        # erased the distinction this asserts.
        assert victim in health["live_shards"]

    def test_snapshot_has_per_shard_percentiles_and_validates(self):
        cluster = make_cluster()
        for identifier in range(200):
            cluster.insert(fingerprint_for(identifier), b"v")
        for identifier in range(200):
            cluster.lookup(fingerprint_for(identifier))
        snapshot = cluster.telemetry_snapshot()
        validate_snapshot(snapshot)
        assert snapshot["enabled"] is True
        assert set(snapshot["per_shard"]) == set(cluster.shards)
        for registry in snapshot["per_shard"].values():
            percentiles = registry["histograms"]["lookup_latency_ms"]["percentiles_ms"]
            assert set(percentiles) == {"p50", "p90", "p99", "p999"}

    def test_disabled_cluster_still_exports_events(self):
        cluster = make_cluster(config=telemetry_config(telemetry_enabled=False))
        cluster.fail_shard("shard-0")
        snapshot = cluster.telemetry_snapshot()
        validate_snapshot(snapshot)
        assert snapshot["enabled"] is False
        assert any(event["kind"] == "failure_injected" for event in snapshot["events"])


class TestSchema:
    def test_valid_snapshot_passes(self):
        registry = MetricsRegistry()
        registry.counter("ops").inc()
        registry.histogram("lat").observe(1.0)
        events = EventLog()
        events.record("something", detail=1)
        tracer = Tracer()
        with tracer.span("root"):
            tracer.event("leaf")
        snapshot = build_snapshot(
            registry=registry, events=events, tracer=tracer, include_buckets=True
        )
        validate_snapshot(snapshot)

    def test_missing_required_key_fails(self):
        snapshot = build_snapshot(registry=MetricsRegistry())
        del snapshot["events"]
        with pytest.raises(SchemaError):
            validate_snapshot(snapshot)

    def test_wrong_type_fails(self):
        snapshot = build_snapshot(registry=MetricsRegistry())
        snapshot["schema_version"] = "one"
        with pytest.raises(SchemaError):
            validate_snapshot(snapshot)

    def test_bool_is_not_an_integer(self):
        with pytest.raises(SchemaError):
            validate(True, {"type": "integer"})

    def test_cli_validates_file(self, tmp_path, capsys):
        from repro.telemetry.schema import _main

        path = tmp_path / "snap.json"
        write_snapshot(path, build_snapshot(registry=MetricsRegistry()))
        assert _main([str(path)]) == 0
        path.write_text(json.dumps({"not": "a snapshot"}))
        assert _main([str(path)]) != 0

    def test_cli_accepts_bench_envelope(self, tmp_path):
        from repro.telemetry.schema import _main

        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps({"bench": "x", "telemetry": build_snapshot(registry=MetricsRegistry())})
        )
        assert _main([str(path)]) == 0

    def test_schema_file_loads(self):
        schema = load_schema()
        assert schema["$defs"]["histogram"]["required"]
