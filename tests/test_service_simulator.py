"""Tests for the closed-loop multi-client traffic simulator."""

import pytest

from repro.core import CLAMConfig
from repro.service import ClusterService, TrafficSimulator, TrafficSpec
from repro.workloads import fingerprint_for


def make_cluster(num_shards=4):
    config = CLAMConfig.scaled(
        num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4
    )
    return ClusterService(num_shards=num_shards, config=config)


def small_spec(**overrides):
    defaults = dict(
        num_clients=4, requests_per_client=15, batch_size=4, key_space=500, seed=77
    )
    defaults.update(overrides)
    return TrafficSpec(**defaults)


class TestTrafficSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficSpec(num_clients=0)
        with pytest.raises(ValueError):
            TrafficSpec(batch_size=0)
        with pytest.raises(ValueError):
            TrafficSpec(lookup_fraction=1.5)
        with pytest.raises(ValueError):
            TrafficSpec(lookup_fraction=0.8, update_fraction=0.3)
        with pytest.raises(ValueError):
            TrafficSpec(hot_shard_threshold=0.5)


class TestSimulatorRun:
    def test_completes_every_request(self):
        spec = small_spec()
        report = TrafficSimulator(make_cluster(), spec).run()
        assert report.requests == spec.num_clients * spec.requests_per_client
        assert report.operations == report.requests * spec.batch_size
        assert len(report.clients) == spec.num_clients
        for client in report.clients:
            assert client.requests == spec.requests_per_client
            assert client.operations == spec.requests_per_client * spec.batch_size
            assert len(client.request_latencies_ms) == spec.requests_per_client
            assert sum(client.request_latencies_ms) > 0
        assert sum(report.ops_per_shard.values()) == report.operations

    def test_deterministic_given_seed(self):
        first = TrafficSimulator(make_cluster(), small_spec()).run()
        second = TrafficSimulator(make_cluster(), small_spec()).run()
        assert first.operations == second.operations
        assert first.duration_ms == pytest.approx(second.duration_ms)
        assert first.ops_per_shard == second.ops_per_shard
        assert first.hot_shards == second.hot_shards
        different = TrafficSimulator(make_cluster(), small_spec(seed=78)).run()
        assert different.ops_per_shard != first.ops_per_shard

    def test_duration_is_slowest_client(self):
        report = TrafficSimulator(make_cluster(), small_spec()).run()
        assert report.duration_ms == pytest.approx(
            max(client.finish_time_ms for client in report.clients)
        )
        assert report.throughput_ops_per_second > 0

    def test_warmup_gives_lookups_hits(self):
        cluster = make_cluster()
        simulator = TrafficSimulator(
            cluster, small_spec(lookup_fraction=0.8, zipf_skew=1.2)
        )
        inserted = simulator.warmup(300)
        assert inserted == 300
        report = simulator.run()
        assert report.lookups > 0
        assert report.lookup_success_rate > 0.5

    def test_latency_summary(self):
        report = TrafficSimulator(make_cluster(), small_spec()).run()
        summary = report.request_latency_summary()
        assert summary.count == report.requests
        assert summary.min_ms <= summary.p99_ms <= summary.max_ms


class TestHotShardDetection:
    def test_extreme_skew_flags_a_hot_shard(self):
        # With near-degenerate Zipf skew almost all traffic hits one key,
        # which lands on exactly one shard of eight.
        spec = small_spec(
            num_clients=2,
            requests_per_client=20,
            zipf_skew=4.0,
            lookup_fraction=0.9,
            update_fraction=0.1,
        )
        report = TrafficSimulator(make_cluster(num_shards=8), spec).run()
        assert report.hot_shards
        hottest = max(report.ops_per_shard, key=report.ops_per_shard.get)
        assert hottest in report.hot_shards
        assert report.imbalance_factor > spec.hot_shard_threshold

    def test_uniform_traffic_flags_nothing(self):
        # Skew near zero spreads load: nobody should exceed 1.5x the mean by
        # much; use a generous threshold to keep the test robust.
        spec = small_spec(zipf_skew=0.01, key_space=4000, hot_shard_threshold=2.0)
        report = TrafficSimulator(make_cluster(), spec).run()
        assert report.hot_shards == []

    def test_idle_shards_count_toward_mean(self):
        # All traffic on one key -> one shard of eight; idle shards must drag
        # the mean down so both hot detection and imbalance see the skew.
        spec = small_spec(
            key_space=2, zipf_skew=3.0, lookup_fraction=0.9, update_fraction=0.1
        )
        report = TrafficSimulator(make_cluster(num_shards=8), spec).run()
        assert set(report.ops_per_shard) == {f"shard-{i}" for i in range(8)}
        assert report.hot_shards
        assert report.imbalance_factor > spec.hot_shard_threshold

    def test_report_includes_idle_shards_with_zero_ops(self):
        report = TrafficSimulator(make_cluster(num_shards=4), small_spec()).run()
        assert set(report.ops_per_shard) == set(report.busy_ms_per_shard)
        assert len(report.ops_per_shard) == 4


class TestFailureSchedule:
    def replicated_cluster(self, telemetry_enabled=False):
        config = CLAMConfig.scaled(
            num_super_tables=4,
            buffer_capacity_items=32,
            incarnations_per_table=4,
            telemetry_enabled=telemetry_enabled,
        )
        return ClusterService(num_shards=4, config=config, replication_factor=2)

    def test_hot_shards_do_not_depend_on_telemetry(self):
        """Hot shards are read off every shard's always-on counters, which
        also count the hint replays of the heal below, telemetry on or off."""
        from repro.service import FailureEvent

        def run(telemetry_enabled):
            cluster = self.replicated_cluster(telemetry_enabled)
            simulator = TrafficSimulator(
                cluster,
                small_spec(
                    requests_per_client=20,
                    zipf_skew=0.01,
                    lookup_fraction=0.2,
                    update_fraction=0.6,
                    hot_shard_threshold=1.05,
                ),
                schedule=[
                    FailureEvent(at_request=5, action="fail", shard_id="shard-0"),
                    FailureEvent(at_request=60, action="heal", shard_id="shard-0"),
                ],
            )
            simulator.warmup(200)
            return simulator.run().hot_shards, cluster.hinted_handoffs

        (hot_on, replays_on), (hot_off, replays_off) = run(True), run(False)
        assert replays_on == replays_off > 0
        assert hot_on == hot_off == ["shard-1", "shard-3"]

    def test_event_validation(self):
        from repro.core.errors import ConfigurationError
        from repro.service import FailureEvent

        with pytest.raises(ConfigurationError):
            FailureEvent(at_request=-1, action="fail", shard_id="shard-0")
        with pytest.raises(ConfigurationError):
            FailureEvent(at_request=0, action="explode", shard_id="shard-0")
        with pytest.raises(ConfigurationError):
            FailureEvent(at_request=0, action="fail")  # no shard
        FailureEvent(at_request=0, action="recover")  # recover needs no shard

    def test_scheduled_kill_and_recovery_loses_nothing_with_rf2(self):
        from repro.service import FailureEvent
        from repro.workloads import fingerprint_for

        cluster = self.replicated_cluster()
        simulator = TrafficSimulator(
            cluster,
            small_spec(requests_per_client=20),
            schedule=[
                FailureEvent(at_request=15, action="fail", shard_id="shard-2"),
                FailureEvent(at_request=40, action="recover"),
            ],
        )
        warmed = simulator.warmup(300)
        report = simulator.run()
        assert [event[1] for event in report.fired_events] == ["fail", "recover"]
        assert len(report.recovery_reports) == 1
        recovery = report.recovery_reports[0]
        assert recovery.keys_lost == 0
        assert "shard-2" not in cluster.shards
        # Every warmed key survived the mid-run shard death.
        for identifier in range(warmed):
            assert cluster.lookup(fingerprint_for(identifier)).found
        # RF=2 masks the outage completely.
        assert report.availability == 1.0
        assert report.failed_requests == 0

    def test_scheduled_runs_are_deterministic(self):
        from repro.service import FailureEvent

        def run_once():
            cluster = self.replicated_cluster()
            simulator = TrafficSimulator(
                cluster,
                small_spec(requests_per_client=20),
                schedule=[
                    FailureEvent(at_request=10, action="fail", shard_id="shard-1"),
                    FailureEvent(at_request=30, action="recover"),
                ],
            )
            simulator.warmup(200)
            report = simulator.run()
            return (
                report.operations,
                report.requests,
                round(report.duration_ms, 6),
                report.fired_events,
                report.recovery_reports[0].keys_re_replicated,
            )

        assert run_once() == run_once()

    def test_unreplicated_outage_costs_availability(self):
        from repro.service import FailureEvent

        cluster = make_cluster()
        simulator = TrafficSimulator(
            cluster,
            small_spec(requests_per_client=20),
            schedule=[FailureEvent(at_request=10, action="fail", shard_id="shard-0")],
        )
        simulator.warmup(200)
        report = simulator.run()
        assert report.failed_requests > 0
        assert report.availability < 1.0
        total = report.requests + report.failed_requests
        assert total == 4 * 20

    def test_events_beyond_the_request_count_fire_at_end_of_run(self):
        from repro.service import FailureEvent

        cluster = self.replicated_cluster()
        total = 4 * 15  # num_clients * requests_per_client of small_spec()
        simulator = TrafficSimulator(
            cluster,
            small_spec(),
            schedule=[
                FailureEvent(at_request=total - 5, action="fail", shard_id="shard-0"),
                FailureEvent(at_request=total + 100, action="recover"),
            ],
        )
        simulator.warmup(200)
        report = simulator.run()
        assert [event[1] for event in report.fired_events] == ["fail", "recover"]
        assert len(report.recovery_reports) == 1
        assert "shard-0" not in cluster.shards  # the late recover still ran

    def test_a_recover_event_drains_the_migration_in_flight(self):
        """Like a scale event, a ``recover`` drains a still-running migration
        before its own membership change: here a scale-out's."""
        from repro.service import FailureEvent

        config = CLAMConfig.scaled(
            num_super_tables=4, buffer_capacity_items=64, incarnations_per_table=4
        )
        cluster = ClusterService(num_shards=4, config=config, replication_factor=2)
        simulator = TrafficSimulator(
            cluster,
            small_spec(requests_per_client=20),
            schedule=[
                FailureEvent(at_request=10, action="scale-out"),
                FailureEvent(at_request=12, action="fail", shard_id="shard-0"),
                FailureEvent(at_request=14, action="recover"),
            ],
        )
        simulator.warmup(300)
        report = simulator.run()
        assert [event[1] for event in report.fired_events] == ["scale-out", "fail", "recover"]
        assert [m.direction for m in report.migrations] == ["scale-out", "recovery"]
        (recovery,) = report.recovery_reports
        assert recovery is report.migrations[1]
        assert (recovery.subject, recovery.keys_lost, recovery.lost_fraction) == ("shard-0", 0, 0)
        assert "shard-0" not in cluster.shards and "shard-4" in cluster.shards
        assert report.availability == 1.0
        for identifier in range(300):
            assert cluster.lookup(fingerprint_for(identifier)).found
