"""Tests for consistent-hash shard routing and the ring diff
(``changed_arcs``) a membership change hands off."""

from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.service import RING_SPACE, ShardRouter, changed_arcs
from repro.workloads import fingerprint_for


def sample_keys(count, namespace=b"router-test"):
    return [fingerprint_for(i, namespace=namespace) for i in range(count)]


class TestRouting:
    def test_route_is_deterministic_across_instances(self):
        keys = sample_keys(500)
        first = ShardRouter(["a", "b", "c", "d"]).route_many(keys)
        second = ShardRouter(["a", "b", "c", "d"]).route_many(keys)
        assert first == second

    def test_route_independent_of_declaration_order(self):
        keys = sample_keys(500)
        forward = ShardRouter(["a", "b", "c", "d"]).route_many(keys)
        backward = ShardRouter(["d", "c", "b", "a"]).route_many(keys)
        assert forward == backward

    def test_same_key_always_same_shard(self):
        router = ShardRouter(["a", "b", "c"])
        key = fingerprint_for(7)
        assert len({router.route(key) for _ in range(10)}) == 1

    def test_mixed_key_types_route_consistently(self):
        router = ShardRouter(["a", "b"])
        assert router.route(b"hello") == router.route("hello")

    def test_all_shards_receive_traffic(self):
        router = ShardRouter(["a", "b", "c", "d"], virtual_nodes=64)
        owners = set(router.route_many(sample_keys(2000)))
        assert owners == {"a", "b", "c", "d"}

    def test_virtual_nodes_smooth_the_split(self):
        keys = sample_keys(4000)
        coarse = ShardRouter(["a", "b", "c", "d"], virtual_nodes=128)
        counts = {}
        for owner in coarse.route_many(keys):
            counts[owner] = counts.get(owner, 0) + 1
        for owner, count in counts.items():
            share = count / len(keys)
            assert 0.10 < share < 0.45, (owner, share)

    def test_ownership_fractions_sum_to_one(self):
        router = ShardRouter(["a", "b", "c", "d", "e"])
        fractions = router.ownership_fractions()
        assert set(fractions) == {"a", "b", "c", "d", "e"}
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert all(value > 0 for value in fractions.values())

    def test_rejects_bad_construction(self):
        with pytest.raises(ConfigurationError):
            ShardRouter([])
        with pytest.raises(ConfigurationError):
            ShardRouter(["a", "a"])
        with pytest.raises(ConfigurationError):
            ShardRouter(["a"], virtual_nodes=0)


class TestMembershipChanges:
    def test_add_shard_is_monotone(self):
        """Consistent hashing: adding a shard only moves keys *to* it."""
        keys = sample_keys(2000)
        router = ShardRouter(["a", "b", "c"])
        before = router.route_many(keys)
        router.add_shard("d")
        after = router.route_many(keys)
        for old, new in zip(before, after):
            assert new == old or new == "d"

    def test_remove_shard_only_moves_its_keys(self):
        keys = sample_keys(2000)
        router = ShardRouter(["a", "b", "c", "d"])
        before = router.route_many(keys)
        router.remove_shard("d")
        after = router.route_many(keys)
        for old, new in zip(before, after):
            if old != "d":
                assert new == old
            else:
                assert new != "d"

    def test_add_then_remove_restores_routing(self):
        keys = sample_keys(1000)
        router = ShardRouter(["a", "b", "c"])
        before = router.route_many(keys)
        router.add_shard("d")
        router.remove_shard("d")
        assert router.route_many(keys) == before
        assert router.shard_ids == ("a", "b", "c")

    def test_membership_errors(self):
        router = ShardRouter(["a", "b"])
        with pytest.raises(ConfigurationError):
            router.add_shard("a")
        with pytest.raises(ConfigurationError):
            router.remove_shard("zzz")
        router.remove_shard("b")
        with pytest.raises(ConfigurationError):
            router.remove_shard("a")


def handoff_arcs(old_ids, new_ids, virtual_nodes=64):
    """The ring's one diff at RF=1: each arc whose owner changes."""
    old = ShardRouter(old_ids, virtual_nodes=virtual_nodes)
    new = ShardRouter(new_ids, virtual_nodes=virtual_nodes)
    return changed_arcs(old, new, 1), new


class TestHandoffArcs:
    def test_add_arcs_all_gain_the_new_shard(self):
        arcs, router = handoff_arcs(["a", "b", "c", "d"], ["a", "b", "c", "d", "e"])
        # Monotonicity: everything that moved was gained by the new shard.
        assert {arc.new_replicas for arc in arcs} == {("e",)}
        assert {arc.old_replicas[0] for arc in arcs} <= {"a", "b", "c", "d"}
        # The arcs are exactly the new shard's share of the ring.
        moved = sum(arc.length for arc in arcs) / RING_SPACE
        assert router.ownership_fractions()["e"] == pytest.approx(moved, rel=1e-12)

    def test_add_moves_roughly_one_over_n_plus_one(self):
        arcs, _ = handoff_arcs(["a", "b", "c", "d"], ["a", "b", "c", "d", "e"], 256)
        assert 0.08 < sum(arc.fraction for arc in arcs) < 0.35

    def test_remove_arcs_mirror_add(self):
        added, _ = handoff_arcs(["a", "b", "c", "d"], ["a", "b", "c", "d", "e"])
        removed, _ = handoff_arcs(["a", "b", "c", "d", "e"], ["a", "b", "c", "d"])
        # Arcs flow back to exactly the shards that lost them on add.
        assert [(a.start, a.end, a.old_replicas, a.new_replicas) for a in removed] == [
            (a.start, a.end, a.new_replicas, a.old_replicas) for a in added
        ]

    def test_handoff_against_sampled_keys(self):
        """The exact arc fractions predict the observed key movement."""
        keys = sample_keys(8000)
        before = ShardRouter(["a", "b", "c"], virtual_nodes=128).route_many(keys)
        arcs, router = handoff_arcs(["a", "b", "c"], ["a", "b", "c", "d"], 128)
        after = router.route_many(keys)
        observed = sum(1 for old, new in zip(before, after) if old != new) / len(keys)
        assert observed == pytest.approx(sum(arc.fraction for arc in arcs), abs=0.03)

    def test_remove_shard_arcs_match_new_owners(self):
        """Every arc the victim lost is gained by a shard that now appears in
        the preference lists of keys hashing into that arc."""
        shards = ["a", "b", "c", "d", "e"]
        keys = sample_keys(2000, namespace=b"arcs")
        old = ShardRouter(shards, virtual_nodes=64)
        owned_before = [key for key in keys if old.route(key) == "c"]
        arcs, router = handoff_arcs(shards, ["a", "b", "d", "e"])
        assert {arc.old_replicas for arc in arcs} == {("c",)}
        gainers = {arc.new_replicas[0] for arc in arcs}
        new_owners = {router.route(key) for key in owned_before}
        assert new_owners <= gainers
        moved = sum(arc.length for arc in arcs) / RING_SPACE
        assert old.ownership_fractions()["c"] == pytest.approx(moved, rel=1e-12)

    def test_ring_space_constant(self):
        assert RING_SPACE == 1 << 64


class TestPreferenceList:
    """Replica placement: determinism, disjointness and the prefix-stable
    chain property under membership changes, checked property-style over
    seeded random ring states with RF in {1, 2, 3}."""

    @staticmethod
    def random_ring(rng, min_shards=4, max_shards=9):
        names = [f"node-{i}" for i in range(rng.randint(min_shards, max_shards))]
        rng.shuffle(names)
        virtual_nodes = rng.choice([16, 32, 64])
        return ShardRouter(names, virtual_nodes=virtual_nodes)

    def test_first_entry_is_the_route_owner(self):
        router = ShardRouter(["a", "b", "c", "d"])
        for key in sample_keys(500):
            assert router.preference_list(key, 3)[0] == router.route(key)

    def test_deterministic_across_instances(self):
        keys = sample_keys(200)
        first = ShardRouter(["a", "b", "c", "d"])
        second = ShardRouter(["d", "c", "b", "a"])
        for key in keys:
            assert first.preference_list(key, 3) == second.preference_list(key, 3)

    def test_entries_are_distinct_and_clamped(self):
        router = ShardRouter(["a", "b", "c"])
        for key in sample_keys(300):
            preference = router.preference_list(key, 3)
            assert len(preference) == len(set(preference)) == 3
            # Requests beyond the fleet size are clamped, never padded.
            assert router.preference_list(key, 10) == preference
        assert len(router.preference_list(b"k", 1)) == 1

    def test_shorter_lists_are_prefixes_of_longer_ones(self):
        router = ShardRouter(["a", "b", "c", "d", "e"])
        for key in sample_keys(300):
            full = router.preference_list(key, 5)
            for n in range(1, 5):
                assert router.preference_list(key, n) == full[:n]

    def test_invalid_size_rejected(self):
        router = ShardRouter(["a", "b"])
        with pytest.raises(ConfigurationError):
            router.preference_list(b"k", 0)

    def test_property_random_rings_determinism_and_disjointness(self):
        import random

        for seed in range(12):
            rng = random.Random(seed)
            router = self.random_ring(rng)
            twin = ShardRouter(sorted(router.shard_ids), virtual_nodes=router.virtual_nodes)
            for rf in (1, 2, 3):
                for key in sample_keys(100, namespace=b"prop-%d" % seed):
                    preference = router.preference_list(key, rf)
                    assert len(preference) == min(rf, len(router))
                    assert len(set(preference)) == len(preference)
                    assert preference == twin.preference_list(key, rf)

    def test_property_remove_shard_shifts_the_chain_exactly(self):
        """Removing a shard deletes it from every preference list and shifts
        the next distinct ring successor in; all other entries keep their
        positions (the exact-handoff property recovery relies on)."""
        import random

        for seed in range(12):
            rng = random.Random(1000 + seed)
            router = self.random_ring(rng, min_shards=5, max_shards=9)
            keys = sample_keys(150, namespace=b"chain-%d" % seed)
            for rf in (1, 2, 3):
                before = {key: router.preference_list(key, rf + 1) for key in keys}
                victim = rng.choice(sorted(router.shard_ids))
                router.remove_shard(victim)
                for key in keys:
                    # The rf-list after removal is exactly the (rf+1)-list
                    # before removal with the victim deleted, truncated: the
                    # successor shifts in, nothing else moves.
                    old = before[key]
                    expected = tuple(s for s in old if s != victim)[:rf]
                    assert router.preference_list(key, rf) == expected
                router.add_shard(victim)  # restore for the next rf round


def walked_preference(router: ShardRouter, position: int, n: int):
    """The ring walk ``preference_at`` was before it became a table read,
    kept as the reference: first ``n`` distinct owners at or after
    ``position``, wrapping past the last point."""
    limit = min(n, len(router._shards))
    points = router._points
    index = bisect_left(points, position)
    preference = []
    for offset in range(len(points)):
        owner = router._owners[points[(index + offset) % len(points)]]
        if owner not in preference:
            preference.append(owner)
            if len(preference) == limit:
                break
    return tuple(preference)


class TestPreferenceTable:
    """``preference_at`` is one bisect plus one read of a per-``n`` table
    built on first use; the walk above is its oracle."""

    @staticmethod
    def assert_matches_walk(router, positions):
        edges = [0, RING_SPACE - 1]
        for point in router.boundary_points():
            edges += [point, point + 1]  # an arc's inclusive end, the next arc's first position
        for position in edges + positions:
            for n in range(1, len(router) + 2):
                assert router.preference_at(position, n) == walked_preference(router, position, n)

    @settings(max_examples=40, deadline=None)
    @given(
        shards=st.integers(min_value=1, max_value=8),
        virtual_nodes=st.integers(min_value=1, max_value=32),
        mutations=st.lists(st.integers(min_value=0, max_value=2**32), max_size=3),
        positions=st.lists(st.integers(min_value=0, max_value=RING_SPACE - 1), max_size=8),
    )
    def test_equals_the_walk_and_never_serves_a_stale_table(
        self, shards, virtual_nodes, mutations, positions
    ):
        router = ShardRouter([f"s{i}" for i in range(shards)], virtual_nodes=virtual_nodes)
        self.assert_matches_walk(router, positions)
        for round_number, draw in enumerate(mutations):
            # Every table is warm here, so a mutation that kept one would
            # answer the next round from the ring as it was.
            present = sorted(router.shard_ids)
            if draw % 2 and len(present) > 1:
                router.remove_shard(present[draw % len(present)])
            else:
                router.add_shard(f"joined-{round_number}")
            self.assert_matches_walk(router, positions)

    def test_arcs_share_one_tuple_per_table(self):
        """A position is answered with the table's own entry, not a copy."""
        router = ShardRouter(["a", "b", "c"], virtual_nodes=8)
        point = router.boundary_points()[3]
        assert router.preference_at(point, 2) is router.preference_at(point - 1, 2)
        with pytest.raises(ConfigurationError):
            router.preference_at(point, 0)
        with pytest.raises(ConfigurationError):
            router.preference_at(point, -1)
