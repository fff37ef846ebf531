"""End-to-end behaviour of eviction policies through the public CLAM API."""


from repro.core import CLAM, CLAMConfig, LRUEviction, PriorityBasedEviction


def _small_config(policy_name="fifo"):
    return CLAMConfig.scaled(
        num_super_tables=4,
        buffer_capacity_items=32,
        incarnations_per_table=4,
        eviction_policy_name=policy_name,
    )


class TestFIFOThroughCLAM:
    def test_oldest_keys_disappear_first(self):
        clam = CLAM(_small_config("fifo"), storage="intel-ssd")
        keys = [b"fifo-%d" % i for i in range(4_000)]
        for key in keys:
            clam.insert(key, b"v")
        assert not clam.lookup(keys[0]).found
        assert clam.lookup(keys[-1]).found

    def test_retention_ordering(self):
        """If key A was inserted before key B and A is still present, then B
        (in the same super table) must also be present — FIFO never creates
        holes in the middle of the retention window."""
        clam = CLAM(_small_config("fifo"), storage="intel-ssd")
        keys = [b"order-%d" % i for i in range(3_000)]
        for key in keys:
            clam.insert(key, b"v")
        # Group keys by super table and check the found/evicted split is a prefix.
        by_table = {}
        for index, key in enumerate(keys):
            by_table.setdefault(clam.table_for(key).table_id, []).append(key)
        for table_keys in by_table.values():
            found_flags = [clam.lookup(key).found for key in table_keys]
            first_found = found_flags.index(True) if True in found_flags else len(found_flags)
            assert all(found_flags[first_found:]), "FIFO retention must be a suffix"


class TestLRUThroughCLAM:
    def test_recently_used_keys_survive_longer_than_unused_ones(self):
        clam = CLAM(
            _small_config("fifo"),  # name overridden by explicit policy below
            storage="intel-ssd",
            eviction_policy=LRUEviction(),
        )
        hot = [b"hot-%d" % i for i in range(20)]
        cold = [b"cold-%d" % i for i in range(20)]
        for key in hot + cold:
            clam.insert(key, b"v")
        # Keep touching the hot keys while churning through new insertions.
        for round_number in range(30):
            for key in hot:
                clam.lookup(key)
            for i in range(60):
                clam.insert(b"churn-%d-%d" % (round_number, i), b"x")
        hot_survivors = sum(1 for key in hot if clam.lookup(key).found)
        cold_survivors = sum(1 for key in cold if clam.lookup(key).found)
        assert hot_survivors > cold_survivors
        assert hot_survivors >= len(hot) * 0.8


class TestPriorityThroughCLAM:
    def test_high_priority_keys_retained(self):
        # Priority encoded in the value's first byte: b"H" = high, b"L" = low.
        policy = PriorityBasedEviction(
            priority_fn=lambda key, value: 1.0 if value[:1] == b"H" else 0.0,
            threshold=0.5,
        )
        clam = CLAM(_small_config("fifo"), storage="intel-ssd", eviction_policy=policy)
        high = [b"high-%d" % i for i in range(30)]
        low = [b"low-%d" % i for i in range(30)]
        for key in high:
            clam.insert(key, b"H-value")
        for key in low:
            clam.insert(key, b"L-value")
        for i in range(3_000):
            clam.insert(b"churn-%d" % i, b"L-churn")
        high_survivors = sum(1 for key in high if clam.lookup(key).found)
        low_survivors = sum(1 for key in low if clam.lookup(key).found)
        assert high_survivors > low_survivors

    def test_update_policy_via_config_name(self):
        clam = CLAM(_small_config("update"), storage="intel-ssd")
        stable = [b"stable-%d" % i for i in range(20)]
        for key in stable:
            clam.insert(key, b"v")
        # Churn with updates to *other* keys; stable keys are never updated,
        # so update-based eviction keeps re-inserting them.
        for round_number in range(25):
            for i in range(50):
                clam.insert(b"volatile-%d" % i, b"round-%d" % round_number)
        survivors = sum(1 for key in stable if clam.lookup(key).found)
        assert survivors >= len(stable) * 0.7
