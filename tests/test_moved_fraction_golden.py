"""Golden ``moved_fraction`` of one-shard membership changes.

A migration reports the share of the key space whose primary changed
(``MigrationReport.moved_fraction``, and the ``migration_started`` event's
field of the same name).  For a change of one shard that share is an exact
sum of ring arcs, so the float is pinned bit for bit (``float.hex``) for a
scale-out, a scale-in and a one-shard recovery at replication factors 1-3:
a rewrite of how the fraction is derived must reproduce these literals, not
re-record them.  ``python tests/test_moved_fraction_golden.py`` prints a
fresh table.
"""

from __future__ import annotations

import pytest

from repro.service import ClusterService, KeyMigrator
from repro.workloads import fingerprint_for

#: (scenario, replication factor) -> (report's moved_fraction, event's), as hex.
GOLDEN = {
    ("scale-out", 1): ("0x1.9c942f19bae81p-3", "0x1.9c942f19bae81p-3"),
    ("scale-out", 2): ("0x1.9c942f19bae81p-3", "0x1.9c942f19bae81p-3"),
    ("scale-out", 3): ("0x1.9c942f19bae81p-3", "0x1.9c942f19bae81p-3"),
    ("scale-in", 1): ("0x1.04b94d9b49064p-2", "0x1.04b94d9b49064p-2"),
    ("scale-in", 2): ("0x1.04b94d9b49064p-2", "0x1.04b94d9b49064p-2"),
    ("scale-in", 3): ("0x1.04b94d9b49064p-2", "0x1.04b94d9b49064p-2"),
    ("recovery", 1): ("0x1.c610e3e912605p-3", "0x1.c610e3e912605p-3"),
    ("recovery", 2): ("0x1.c610e3e912605p-3", "0x1.c610e3e912605p-3"),
    ("recovery", 3): ("0x1.c610e3e912605p-3", "0x1.c610e3e912605p-3"),
}


def _moved_fractions(scenario: str, replication_factor: int):
    cluster = ClusterService(num_shards=4, replication_factor=replication_factor)
    for identifier in range(40):
        key = fingerprint_for(identifier, namespace=b"moved-golden")
        cluster.insert(key, b"value")
    migrator = KeyMigrator(cluster)
    if scenario == "scale-out":
        migrator.start_add()
        report = migrator.run_to_completion()
    elif scenario == "scale-in":
        migrator.start_remove("shard-1")
        report = migrator.run_to_completion()
    else:
        cluster.fail_shard("shard-2")
        while "shard-2" not in cluster.down_shard_ids:
            cluster.record_shard_error("shard-2")
        report = migrator.recover()
    (started,) = cluster.events.events("migration_started")
    return report.moved_fraction.hex(), started.attributes["moved_fraction"].hex()


@pytest.mark.parametrize("scenario,replication_factor", sorted(GOLDEN))
def test_moved_fraction_is_pinned(scenario, replication_factor):
    assert _moved_fractions(scenario, replication_factor) == GOLDEN[
        (scenario, replication_factor)
    ]


if __name__ == "__main__":
    for scenario in ("scale-out", "scale-in", "recovery"):
        for replication_factor in (1, 2, 3):
            fractions = _moved_fractions(scenario, replication_factor)
            print(f"    ({scenario!r}, {replication_factor}): {fractions!r},")
