"""Tests for online elastic rebalancing (service.rebalance).

Covers the exact migration-arc computation, the seed scan of the old owners,
the KeyMigrator lifecycle for scale-out and scale-in (including the atomic
cut-over and copy retirement), the double-read window's equivalence with a
quiesced cluster (property test), the kill-the-joining-shard drill at RF=2,
abort semantics, the membership freeze while a migration is in flight, the
autoscale policy and the TrafficSimulator's scale-out/scale-in schedule
actions.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import CLAMConfig
from repro.core.errors import ConfigurationError, ShardUnavailableError
from repro.core.hashing import RING_SEED, hash_key, ring_position
from repro.service import (
    ArcState,
    AutoscaleConfig,
    AutoscalePolicy,
    ClusterService,
    FailureEvent,
    KeyMigrator,
    MigrationState,
    TrafficSimulator,
    TrafficSpec,
    changed_arcs,
)
from repro.service.router import ShardRouter
from repro.workloads import fingerprint_for
from repro.workloads.workload import Operation, OpKind

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def populated_cluster(num_shards=4, replication_factor=2, keys=250, **kwargs):
    kwargs.setdefault("virtual_nodes", 16)
    cluster = ClusterService(
        num_shards=num_shards, replication_factor=replication_factor, **kwargs
    )
    inserted = [fingerprint_for(i, namespace=b"rebalance") for i in range(keys)]
    for key in inserted:
        cluster.insert(key, b"value-" + key[:6])
    return cluster, inserted


def telemetry_cluster(num_shards=3, **kwargs):
    return ClusterService(
        num_shards=num_shards,
        replication_factor=2,
        virtual_nodes=16,
        config=CLAMConfig.scaled(telemetry_enabled=True),
        **kwargs,
    )


def event_kinds(cluster):
    return [event.kind for event in cluster.events.events()]


class TestChangedArcs:
    @pytest.mark.parametrize(
        "old_ids,new_ids",
        [
            ([f"s{i}" for i in range(4)], [f"s{i}" for i in range(5)]),
            ([f"s{i}" for i in range(5)], [f"s{i}" for i in range(5) if i != 2]),
        ],
        ids=["scale-out", "scale-in"],
    )
    def test_arcs_match_bruteforce_preference_diff(self, old_ids, new_ids):
        old = ShardRouter(old_ids, virtual_nodes=16)
        new = ShardRouter(new_ids, virtual_nodes=16)
        arcs = changed_arcs(old, new, 2)
        state = MigrationState(arcs, new, 2)
        for i in range(3_000):
            key = b"probe-%d" % i
            old_pref = old.preference_list(key, 2)
            new_pref = new.preference_list(key, 2)
            arc = state.arc_for_hash(hash_key(key, seed=RING_SEED))
            assert (old_pref != new_pref) == (arc is not None), key
            if arc is not None:
                assert arc.old_replicas == old_pref
                assert arc.new_replicas == new_pref

    def test_moved_fraction_matches_router_handoff(self):
        # At RF=1 a changed arc is exactly a changed owner, so the arc
        # fractions must reproduce the router's own exact handoff stats.
        old = ShardRouter([f"s{i}" for i in range(4)], virtual_nodes=16)
        new = ShardRouter([f"s{i}" for i in range(4)], virtual_nodes=16)
        handoff = new.add_shard("s4")
        arcs = changed_arcs(old, new, 1)
        assert sum(arc.fraction for arc in arcs) == pytest.approx(handoff.moved_fraction)

    def test_identical_rings_produce_no_arcs(self):
        router = ShardRouter(["a", "b", "c"], virtual_nodes=16)
        same = ShardRouter(["a", "b", "c"], virtual_nodes=16)
        assert changed_arcs(router, same, 2) == []

    def test_union_replicas_keeps_old_owners_first(self):
        old = ShardRouter(["a", "b", "c", "d"], virtual_nodes=16)
        new = ShardRouter(["a", "b", "c", "d", "e"], virtual_nodes=16)
        for arc in changed_arcs(old, new, 2):
            union = arc.union_replicas
            assert union[: len(arc.old_replicas)] == arc.old_replicas
            assert set(union) == set(arc.old_replicas) | set(arc.new_replicas)


class TestScaleOut:
    def test_scale_out_loses_nothing_and_retires_old_copies(self):
        cluster, inserted = populated_cluster()
        migrator = KeyMigrator(cluster, batch_size=40)
        joining = migrator.start_add()
        assert cluster.migration is not None
        steps = 0
        while cluster.migration is not None:
            migrator.step()
            # Live traffic mid-migration: reads and writes keep working.
            assert cluster.lookup(inserted[steps % len(inserted)]).found
            cluster.insert(fingerprint_for(steps, namespace=b"mid"), b"mid")
            steps += 1
        report = migrator.reports[-1]
        assert report.direction == "scale-out"
        assert report.subject == joining
        assert report.keys_copied > 0
        assert joining in cluster.shard_ids
        for key in inserted:
            assert cluster.lookup(key).found
        for i in range(steps):
            assert cluster.lookup(fingerprint_for(i, namespace=b"mid")).found
        # Retirement: every key's copies now live exactly on its preference
        # list — a shard pushed out of an arc's list no longer has them.
        for key in inserted[:50]:
            replicas = cluster.replicas_for(key)
            for shard_id in cluster.shard_ids:
                found = cluster._shard_op(shard_id, "lookup", key).found
                assert found == (shard_id in replicas), (key, shard_id)

    def test_migration_events_in_causal_order(self):
        cluster, _ = populated_cluster(keys=120)
        migrator = KeyMigrator(cluster, batch_size=50)
        migrator.start_add()
        migrator.run_to_completion()
        kinds = event_kinds(cluster)
        assert kinds.index("migration_started") < kinds.index("arc_cut_over")
        assert kinds.index("arc_cut_over") < kinds.index("migration_done")

    def test_membership_frozen_while_migrating(self):
        cluster, _ = populated_cluster(keys=60)
        migrator = KeyMigrator(cluster)
        migrator.start_add()
        with pytest.raises(ConfigurationError, match="frozen"):
            cluster.add_shard()
        with pytest.raises(ConfigurationError, match="frozen"):
            cluster.remove_shard("shard-0")
        with pytest.raises(ConfigurationError, match="already in flight"):
            migrator.start_add()
        migrator.run_to_completion()
        cluster.add_shard()  # membership thaws once the migration drains


class TestSeedScan:
    """A migration seeds its copy queues from the old owners' own contents."""

    def test_scan_seeds_exactly_what_the_old_owners_owe(self):
        # A 96-item FIFO window per shard, far smaller than the flood below.
        config = CLAMConfig.scaled(
            num_super_tables=2, buffer_capacity_items=16, incarnations_per_table=2
        )
        cluster = ClusterService(num_shards=2, virtual_nodes=16, config=config)

        def keys(namespace, count):
            return [fingerprint_for(i, namespace=namespace) for i in range(count)]

        evicted, deleted, reinserted, live = (
            keys(name, 40) for name in (b"evicted", b"deleted", b"reinserted", b"live")
        )
        for key in evicted + keys(b"flood", 600) + deleted + live:
            cluster.insert(key, b"v")
        for key in deleted:
            cluster.delete(key)  # on flash by now: a lazy delete-list entry
        for key in reinserted:
            cluster.insert(key, b"old")
            cluster.delete(key)
            cluster.insert(key, b"new")
        assert not any(cluster.lookup(key).found for key in evicted)
        migrator = KeyMigrator(cluster)
        migrator.start_add()
        state = cluster.migration
        seeded = set().union(*(arc.keys for arc in state.arcs))

        def moving(group):
            inside = {key for key in group if state.arc_for_hash(ring_position(key))}
            assert inside, "no key of the group lies in a moving arc"
            return inside

        assert not moving(evicted) & seeded
        assert not moving(deleted) & seeded
        assert moving(reinserted) <= seeded
        assert moving(live) <= seeded
        migrator.run_to_completion()
        assert all(cluster.lookup(key).value == b"new" for key in reinserted)

    def test_old_owner_crashed_at_install_is_covered_by_its_partner(self):
        cluster, inserted = populated_cluster()
        cluster.fail_shard("shard-1")  # crashed, not yet detected
        migrator = KeyMigrator(cluster)
        migrator.start_add()
        assert cluster.shard_errors == {"shard-1": 1}
        state = cluster.migration
        assert all(arc.seeded for arc in state.arcs)
        owed = {key for key in inserted if state.arc_for_hash(ring_position(key))}
        victims = {
            key for key in owed if "shard-1" in state.arc_for_hash(ring_position(key)).old_replicas
        }
        assert victims  # the crashed owner had arcs to move
        assert owed <= set().union(*(arc.keys for arc in state.arcs))
        migrator.run_to_completion()
        assert all(cluster.lookup(key).found for key in inserted)

    def test_scan_charges_the_shard_clock_and_flash_reads(self):
        config = CLAMConfig.scaled(
            num_super_tables=2, buffer_capacity_items=16, incarnations_per_table=4
        )
        cluster = ClusterService(num_shards=1, config=config)
        for i in range(100):
            cluster.insert(fingerprint_for(i, namespace=b"scan"), b"v")
        shard = cluster.shards["shard-0"]
        clock, counters = shard.clock.now_ms, shard.counters()
        assert len(shard.live_keys()) == 100
        after = shard.counters()
        assert shard.clock.now_ms > clock
        assert after["flash_reads"] > counters["flash_reads"]
        assert after["device_read_ops"] > counters["device_read_ops"]

    def test_write_applied_by_a_failing_batch_still_moves(self):
        """A write a pending arc's old owners applied reaches its copy queue
        even when the batch ends in ShardUnavailableError: the executor hands
        the applied results over with the error."""
        cluster, _ = populated_cluster()
        migrator = KeyMigrator(cluster)
        joining = migrator.start_add()
        state = cluster.migration

        def placement(key):
            return set(state.replicas_for(key))

        good_key = next(
            key
            for key in (fingerprint_for(i, namespace=b"moving") for i in range(5_000))
            if (arc := state.arc_for_hash(ring_position(key))) is not None
            and arc.state is ArcState.PENDING
            and joining in arc.new_replicas
        )
        bad_key = next(
            key
            for key in (fingerprint_for(i, namespace=b"doomed") for i in range(5_000))
            if not placement(key) & placement(good_key)
        )
        doomed = placement(bad_key)
        for shard_id in doomed:
            cluster.fail_shard(shard_id)  # crashed, not yet detected
        with pytest.raises(ShardUnavailableError) as raised:
            cluster.execute_batch(
                [Operation(OpKind.INSERT, good_key, b"v"), Operation(OpKind.LOOKUP, bad_key)]
            )
        assert raised.value.partial_results[0] is not None
        for shard_id in doomed:
            cluster.heal_shard(shard_id)
        migrator.run_to_completion()
        assert cluster.shards[joining].lookup(good_key).value == b"v"


class TestScaleIn:
    def test_scale_in_drains_then_decommissions(self):
        cluster, inserted = populated_cluster(num_shards=5)
        migrator = KeyMigrator(cluster, batch_size=40)
        migrator.start_remove("shard-1")
        # Off the ring immediately, but still instantiated (and serving as an
        # old owner) until its last arc cuts over.
        assert "shard-1" not in cluster.router
        assert "shard-1" in cluster.shards
        migrator.run_to_completion()
        assert "shard-1" not in cluster.shards
        for key in inserted:
            assert cluster.lookup(key).found

    def test_scale_in_refuses_to_violate_replication_factor(self):
        cluster, _ = populated_cluster(num_shards=2)
        migrator = KeyMigrator(cluster)
        with pytest.raises(ConfigurationError, match="replication_factor"):
            migrator.start_remove("shard-0")


class TestDoubleReadWindow:
    @given(
        partial_steps=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=12, **COMMON)
    def test_inflight_migration_reads_match_quiesced_cluster(self, partial_steps, seed):
        """Double-read during an in-flight arc == a cluster that never moved.

        Two identical clusters get identical data; one starts a scale-out and
        steps it only partially (arcs left in every state), with interleaved
        writes applied to both.  Every key must then read back identically —
        same found flag, same value — from the migrating cluster and the
        quiesced one.
        """
        keys = [fingerprint_for(i, namespace=b"prop-%d" % seed) for i in range(80)]
        moving = ClusterService(num_shards=3, replication_factor=2, virtual_nodes=8)
        quiesced = ClusterService(num_shards=3, replication_factor=2, virtual_nodes=8)
        for cluster in (moving, quiesced):
            for index, key in enumerate(keys):
                cluster.insert(key, b"v-%d" % index)
        migrator = KeyMigrator(moving, batch_size=10, max_active_arcs=2)
        migrator.start_add("joiner")
        for step in range(partial_steps):
            if moving.migration is not None:
                migrator.step()
            # Interleaved writes land on both clusters mid-window.
            update = keys[(seed + step) % len(keys)]
            moving.insert(update, b"updated-%d" % step)
            quiesced.insert(update, b"updated-%d" % step)
            deleted = keys[(seed + 3 * step + 1) % len(keys)]
            moving.delete(deleted)
            quiesced.delete(deleted)
        if moving.migration is not None:
            states = {arc.state for arc in moving.migration.arcs}
            assert states <= {ArcState.PENDING, ArcState.MIGRATING, ArcState.DONE}
        for key in keys:
            here = moving.lookup(key)
            there = quiesced.lookup(key)
            assert here.found == there.found, key
            assert here.value == there.value, key


class TestKillJoiningShard:
    def test_rf2_survives_joining_shard_crash_mid_migration(self):
        cluster, inserted = populated_cluster(failure_threshold=1)
        migrator = KeyMigrator(cluster, batch_size=30)
        joining = migrator.start_add()
        migrator.step()
        cluster.fail_shard(joining)
        cluster.record_shard_error(joining)
        assert joining in cluster.down_shard_ids
        # The migration still completes: surviving old owners that stay in
        # each arc's new preference list confirm every key; the dead joiner
        # accumulates hinted handoffs instead of blocking the cut-over.
        report = migrator.run_to_completion()
        assert report.direction == "scale-out"
        backlog = len(cluster._hints.get(joining, ()))
        assert backlog > 0
        for key in inserted:
            assert cluster.lookup(key).found
        # Healing replays the backlog; the joiner converges.
        replayed_before = cluster.hinted_handoffs
        cluster.heal_shard(joining)
        assert cluster.hinted_handoffs - replayed_before > 0
        for key in inserted:
            assert cluster.lookup(key).found

    def test_rf1_migration_stalls_instead_of_losing_keys(self):
        cluster, _ = populated_cluster(
            num_shards=3, replication_factor=1, failure_threshold=1
        )
        migrator = KeyMigrator(cluster, batch_size=30)
        joining = migrator.start_add()
        cluster.fail_shard(joining)
        cluster.record_shard_error(joining)
        # With no replica to confirm on, draining must refuse to cut over.
        with pytest.raises(ShardUnavailableError, match="stalled"):
            migrator.run_to_completion()


class TestAbort:
    def test_abort_restores_old_ring_and_scrubs_copies(self):
        cluster, inserted = populated_cluster()
        before = cluster.shard_ids
        migrator = KeyMigrator(cluster, batch_size=1, max_active_arcs=1)
        joining = migrator.start_add()
        # Copy a few keys without letting any arc drain: an arc only cuts
        # over when its queue empties, so stop while the active arc still
        # has more than one pending key.
        state = cluster.migration
        for _ in range(3):
            active = next(arc for arc in state.arcs if arc.state is not ArcState.DONE)
            if len(active.pending) <= 1:
                break
            migrator.step()
        assert not any(arc.state is ArcState.DONE for arc in state.arcs)
        migrator.abort()
        assert cluster.migration is None
        assert cluster.shard_ids == before
        assert joining not in cluster.shards
        for key in inserted:
            assert cluster.lookup(key).found
        assert "migration_aborted" in event_kinds(cluster)
        # Fully aborted: direct membership changes work again.
        cluster.add_shard()

    def test_abort_after_cut_over_is_refused(self):
        cluster, _ = populated_cluster()
        migrator = KeyMigrator(cluster, batch_size=1, max_active_arcs=1)
        migrator.start_add()
        state = cluster.migration
        while cluster.migration is not None and not any(
            arc.state is ArcState.DONE for arc in state.arcs
        ):
            migrator.step()
        assert cluster.migration is not None, "first arc should not be the only arc"
        with pytest.raises(ConfigurationError, match="cut over"):
            migrator.abort()
        migrator.run_to_completion()


class TestAutoscale:
    def test_scale_out_on_hot_shard(self):
        cluster = telemetry_cluster()
        migrator = KeyMigrator(cluster, batch_size=64)
        policy = AutoscalePolicy(
            cluster,
            migrator,
            AutoscaleConfig(evaluate_every=1, cooldown=0, hot_shard_threshold=1.01),
        )
        hot = fingerprint_for(0, namespace=b"hot")
        cluster.insert(hot, b"hot-value")
        for _ in range(50):
            cluster.lookup(hot)
        decision = policy.tick(1)
        assert decision is not None and decision.action == "scale-out"
        assert cluster.migration is not None
        migrator.run_to_completion()
        assert event_kinds(cluster).count("autoscale_decision") == 1

    def test_cooldown_and_inflight_migration_suppress_decisions(self):
        cluster = telemetry_cluster()
        migrator = KeyMigrator(cluster, batch_size=4)
        policy = AutoscalePolicy(
            cluster,
            migrator,
            AutoscaleConfig(evaluate_every=1, cooldown=100, hot_shard_threshold=1.01),
        )
        hot = fingerprint_for(0, namespace=b"hot")
        cluster.insert(hot, b"hot-value")

        def hammer():
            for _ in range(50):
                cluster.lookup(hot)

        hammer()
        assert policy.tick(1) is not None
        hammer()
        assert policy.tick(2) is None  # migration still in flight
        migrator.run_to_completion()
        hammer()
        assert policy.tick(3) is None  # cooldown
        hammer()
        assert policy.tick(150) is not None  # cooldown elapsed

    def test_scale_in_picks_coldest_shard_when_balanced(self):
        cluster = telemetry_cluster(num_shards=5)
        migrator = KeyMigrator(cluster, batch_size=64)
        policy = AutoscalePolicy(
            cluster,
            migrator,
            AutoscaleConfig(
                evaluate_every=1,
                cooldown=0,
                min_shards=2,
                hot_shard_threshold=10.0,  # nothing counts as hot
                scale_in_imbalance=100.0,
            ),
        )
        for i in range(200):
            cluster.insert(fingerprint_for(i, namespace=b"even"), b"v")
        decision = policy.tick(1)
        assert decision is not None and decision.action == "scale-in"
        migrator.run_to_completion()
        assert len(cluster.shard_ids) == 4


class TestSimulatorIntegration:
    def test_schedule_scale_events_validate_shard_id(self):
        with pytest.raises(ConfigurationError):
            FailureEvent(at_request=0, action="scale-in")
        FailureEvent(at_request=0, action="scale-out")  # shard_id optional

    def test_scripted_churn_under_live_traffic(self):
        cluster, inserted = populated_cluster()
        simulator = TrafficSimulator(
            cluster,
            TrafficSpec(
                num_clients=4, requests_per_client=30, batch_size=4, key_space=400, seed=9
            ),
            schedule=[
                FailureEvent(at_request=20, action="scale-out"),
                FailureEvent(at_request=70, action="scale-in", shard_id="shard-1"),
            ],
        )
        report = simulator.run()
        assert report.availability == 1.0
        assert len(report.migrations) == 2
        assert [m.direction for m in report.migrations] == ["scale-out", "scale-in"]
        assert "shard-1" not in cluster.shard_ids
        for key in inserted:
            assert cluster.lookup(key).found

    def test_autoscaler_shares_the_simulators_migrator(self):
        cluster = telemetry_cluster()
        policy = AutoscalePolicy(cluster, KeyMigrator(cluster))
        simulator = TrafficSimulator(cluster, autoscaler=policy)
        assert simulator.migrator is policy.migrator
        with pytest.raises(ConfigurationError, match="share"):
            TrafficSimulator(cluster, migrator=KeyMigrator(cluster), autoscaler=policy)
