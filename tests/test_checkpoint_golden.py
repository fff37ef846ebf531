"""Checkpoint bytes are pinned: what a ``DurableCLAM`` checkpoint carries for
one seeded workload, at k = 8 and k = 16 incarnations per table.

The workload inserts, updates and deletes (deletes of flushed keys fill the
lazy delete lists) through enough flushes that every super table evicts, and
``serialize_checkpoint`` is hashed every ``SAMPLE_EVERY`` operations into one
running sha256, and once more after the file is reopened from its
clean-shutdown checkpoint.  The checkpoint carries each live incarnation's Bloom column
as a plain bit array, so a change to how a column is written, kept, read out
or restored that changes a single bit moves the digest.

The payload depends only on the CLAM's state: the delete list is written
sorted, so the digest does not move with ``PYTHONHASHSEED``.  Literals are
re-derived at the parent commit, never at the change:
``PYTHONPATH=src python tests/test_checkpoint_golden.py`` prints them.
"""

import hashlib
import random
import sys
import tempfile
from pathlib import Path

import pytest

from repro.core import CLAMConfig, DurableCLAM
from repro.core.durable import serialize_checkpoint
from repro.flashsim.device import DeviceGeometry

GEOM = DeviceGeometry(page_size=1024, pages_per_block=8, num_blocks=64)
OPERATIONS = 1_200
SAMPLE_EVERY = 50

#: k -> (sha256 of the sampled payloads, evictions, delete-list entries at the end).
GOLDEN = {
    8: ("9f74db22ddf3739080904d0eac437dce5ee2fd3a89c7c66ee79510dd9248d419", 105, 151),
    16: ("04be58bb94ee6b8bec295759072e30ac7bfbc27ceeb7d027053e934552880a6d", 91, 148),
}


def checkpoint_digest(path, k):
    """Run the seeded workload on a new file; returns the golden triple."""
    config = CLAMConfig(
        num_super_tables=2,
        buffer_capacity_items=8,
        incarnations_per_table=k,
        checkpoint_interval_flushes=4,
    )
    rng = random.Random(k)
    inserted = []
    running = hashlib.sha256()
    with DurableCLAM(path, config=config, geometry=GEOM) as clam:
        for step in range(OPERATIONS):
            roll = rng.random()
            if roll < 0.7 or not inserted:
                key = b"ckpt-%d-%d" % (k, step)
                inserted.append(key)
                clam.insert(key, b"v%d" % step)
            elif roll < 0.85:
                clam.insert(rng.choice(inserted[-64:]), b"u%d" % step)
            else:
                clam.delete(rng.choice(inserted))
            if step % SAMPLE_EVERY == SAMPLE_EVERY - 1:
                running.update(serialize_checkpoint(clam.log_store, clam.tables))
        deletes = sum(len(table.delete_list_snapshot()) for table in clam.tables)
        evictions = clam.total_evictions
    # Reopened from its clean-shutdown checkpoint, the CLAM writes it again.
    with DurableCLAM(path, geometry=GEOM) as reopened:
        assert reopened.recovery_report.incarnations_from_checkpoint > 0
        running.update(serialize_checkpoint(reopened.log_store, reopened.tables))
    return running.hexdigest(), evictions, deletes


@pytest.mark.parametrize("k", sorted(GOLDEN))
def test_checkpoint_payloads_hash_as_recorded(tmp_path, k):
    digest, evictions, deletes = checkpoint_digest(tmp_path / "golden.clam", k)
    assert evictions > 0 and deletes > 0  # the workload reaches both
    assert (digest, evictions, deletes) == GOLDEN[k]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        for k in sorted(GOLDEN):
            row = checkpoint_digest(Path(directory) / ("k%d.clam" % k), k)
            sys.stdout.write("    %d: %r,\n" % (k, row))
