"""Bit-identity of the service layer against values frozen at an earlier commit.

The parity tests of ``test_parallel_cluster.py`` compare the in-process and
the process-per-shard deployment with *each other*; a change to the batch
executor moves both at once, so they cannot say whether it moved either.
This test drives one seeded script through an in-process
:class:`~repro.service.cluster.ClusterService` — single operations of all
four kinds, mixed ``execute_batch`` batches of 1-200 operations,
``lookup_batch`` / ``insert_batch`` with keys repeated inside a batch, a
crashed and healed shard, a shard whose device fails part-way through a
sub-batch, batches that end in ``ShardUnavailableError`` (their
``partial_results`` included) and an online scale-out stepped between batches
— and digests, phase by phase, every result record, every
:class:`~repro.service.batch.BatchResult` field, the event log, each shard
clock, the merged counters and the replication bookkeeping.  ``GOLDEN`` was
generated at commit ``c2b37ca``; sending hint replay, read repair and
migration as per-shard sub-batches then moved every phase with maintenance in
it (one charge per sub-batch, each shard's operations regrouped) and, through
the hint replay reading a migration's placement, ``reached``.  The digests
were re-recorded at ``80b40ae`` when the ``"S"`` line dropped the per-kind and
flash counters (``inserts``, ``updates``, ``deletes``, ``flash_reads``,
``flash_writes``) that no code outside the tests reads; ``reached`` did not
move (``python tests/test_service_golden.py`` prints a fresh table).  It must only
ever be regenerated by a change that *means* to alter simulated behaviour.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import CLAMConfig
from repro.core.errors import ShardUnavailableError
from repro.core.results import DeleteResult, InsertResult, LookupResult
from repro.service import ClusterService, KeyMigrator, WorkerProcesses
from repro.workloads.workload import Operation, OpKind

_SEED = 0x5E41CE
_BATCH_SIZES = (1, 2, 3, 7, 16, 33, 64, 120, 200)
#: The :class:`~repro.service.rebalance.MigrationReport` fields the ``"M"``
#: line spells out.
_REPORT_FIELDS = (
    "direction", "subject", "arcs", "moved_fraction", "keys_seeded", "keys_copied",
    "keys_retired", "steps", "blocked_retries", "duration_ms",
)  # fmt: skip


def _hex(value) -> str:
    return float(value).hex()


class _Recorder:
    """One running digest per phase of the script."""

    def __init__(self, cluster: ClusterService) -> None:
        self.cluster = cluster
        self.phases = {}
        self._digest = hashlib.sha256()
        self._events_seen = 0
        #: How often the script reached the branches its docstring claims.
        self.reached = dict.fromkeys(
            ("batches", "unavailable", "partial_results", "failed_shards", "retried", "truncated"),
            0,
        )

    def line(self, *parts) -> None:
        self._digest.update(("|".join(str(part) for part in parts) + "\n").encode())

    def results(self, results) -> None:
        for result in results:
            if result is None:  # an operation a failed batch never ran
                self.line("-")
            elif isinstance(result, LookupResult):
                self.line(
                    "L", result.key.hex(), result.value, _hex(result.latency_ms),
                    result.served_from.value, result.flash_reads,
                    result.incarnations_checked, result.false_positive_reads,
                )  # fmt: skip
            elif isinstance(result, InsertResult):
                self.line(
                    "I", result.key.hex(), _hex(result.latency_ms), result.flushed,
                    _hex(result.flush_latency_ms), result.incarnations_tried,
                    result.flash_writes, result.flash_reads,
                )  # fmt: skip
            else:
                assert isinstance(result, DeleteResult)
                self.line(
                    "D", result.key.hex(), _hex(result.latency_ms), result.removed_from_buffer
                )

    def batch(self, batch) -> None:
        self.results(batch.results)
        self.reached["batches"] += 1
        self.reached["failed_shards"] += len(batch.failed_shards)
        self.reached["retried"] += batch.retried_operations
        self.reached["truncated"] += sum(
            1
            for shard_id in batch.failed_shards
            if shard_id in batch.per_shard and batch.per_shard[shard_id].operations
        )
        for shard_id, stats in batch.per_shard.items():  # first-touch order is behaviour
            assert stats.shard_id == shard_id
            self.line(
                "S", shard_id, stats.operations, stats.lookups, stats.lookup_hits,
                _hex(stats.busy_ms), _hex(stats.dispatch_ms), _hex(stats.routing_ms),
            )  # fmt: skip
        self.line(
            "B", _hex(batch.routing_ms), _hex(batch.dispatch_ms),
            _hex(batch.dispatch_ms_unbatched), _hex(batch.busy_ms), _hex(batch.makespan_ms),
            batch.failed_shards, batch.retried_operations,
        )  # fmt: skip

    def unavailable(self, error: ShardUnavailableError) -> None:
        self.line("U", error)
        self.results(error.partial_results)
        self.reached["unavailable"] += 1
        self.reached["partial_results"] += sum(r is not None for r in error.partial_results)

    def end_phase(self, name: str) -> None:
        """Fold the cluster's observable state in and close the phase."""
        cluster = self.cluster
        events = cluster.events.events()
        for event in events[self._events_seen :]:
            attributes = sorted(event.attributes.items())
            self.line("E", event.seq, _hex(event.time_ms), event.kind, attributes)
        self._events_seen = len(events)
        for shard_id, shard in cluster.shards.items():
            self.line("C", shard_id, _hex(shard.clock.now_ms))
        combined = cluster.stats.combined()
        self.line("T", [(name, _hex(combined[name])) for name in sorted(combined)])
        self.line(
            "R", cluster.read_repairs, cluster.hinted_handoffs, cluster.down_shard_ids,
            sorted(cluster.shard_errors.items()),
            sorted((shard_id, sorted(keys)) for shard_id, keys in cluster._hints.items()),
        )  # fmt: skip
        self.phases[name] = self._digest.hexdigest()[:24]
        self._digest = hashlib.sha256()


class _Keys:
    """Seeded key and operation source: fresh, recent, old and absent keys."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.inserted = []
        self._fresh = 0

    def fresh(self) -> bytes:
        key = hashlib.sha1(b"svc-golden-%d" % self._fresh).digest()
        self._fresh += 1
        self.inserted.append(key)
        return key

    def known(self) -> bytes:
        """A key inserted earlier: mostly recent, sometimes long evicted."""
        reach = len(self.inserted) if self.rng.random() < 0.2 else min(len(self.inserted), 150)
        return self.inserted[-1 - int(self.rng.random() ** 2 * reach)]

    def absent(self) -> bytes:
        return hashlib.sha1(b"svc-absent-%d" % self.rng.randrange(1 << 30)).digest()

    def value(self) -> bytes:
        return self.rng.randbytes(self.rng.choice((4, 8, 8, 8, 24, 60)))

    def operation(self) -> Operation:
        draw = self.rng.random()
        if draw < 0.30 or len(self.inserted) < 8:
            return Operation(OpKind.INSERT, self.fresh(), self.value())
        if draw < 0.40:
            return Operation(OpKind.UPDATE, self.known(), self.value())
        if draw < 0.47:
            return Operation(OpKind.DELETE, self.known())
        if draw < 0.57:
            return Operation(OpKind.LOOKUP, self.absent())
        return Operation(OpKind.LOOKUP, self.known())

    def lookup_keys(self, count: int) -> list:
        """Keys for one ``lookup_batch``, some of them repeated inside it."""
        keys = [self.known() if self.rng.random() < 0.8 else self.absent() for _ in range(count)]
        for _ in range(count // 4):
            keys[self.rng.randrange(count)] = keys[self.rng.randrange(count)]
        return keys

    def insert_items(self, count: int) -> list:
        """Items for one ``insert_batch``; a repeated key carries two values."""
        items = [
            (self.fresh() if self.rng.random() < 0.7 else self.known(), self.value())
            for _ in range(count)
        ]
        for _ in range(count // 5):
            items[self.rng.randrange(count)] = (items[self.rng.randrange(count)][0], self.value())
        return items


def _traffic(cluster, keys: _Keys, recorder: _Recorder, rounds: int) -> None:
    """``rounds`` x (one mixed batch, one lookup_batch, one insert_batch),
    each allowed to end in ``ShardUnavailableError``."""
    rng = keys.rng
    for _ in range(rounds):
        calls = (
            lambda: cluster.execute_batch(
                [keys.operation() for _ in range(rng.choice(_BATCH_SIZES))]
            ),
            lambda: cluster.lookup_batch(keys.lookup_keys(rng.choice((5, 40, 128)))),
            lambda: cluster.insert_batch(keys.insert_items(rng.choice((3, 15, 60)))),
        )
        for position, call in enumerate(calls):
            try:
                answer = call()
            except ShardUnavailableError as error:
                recorder.unavailable(error)
                continue
            if position:
                recorder.results(answer)
            recorder.batch(cluster.last_batch)


def run_case(replication_factor: int, failure_threshold: int = 1, workers=None) -> dict:
    """Drive the whole script through one cluster; one digest per phase."""
    config = CLAMConfig.scaled(
        num_super_tables=4,
        buffer_capacity_items=32,
        incarnations_per_table=4,
        bloom_bits_per_entry=4.0,
    )
    with ClusterService(
        num_shards=4,
        config=config,
        virtual_nodes=8,
        replication_factor=replication_factor,
        failure_threshold=failure_threshold,
        workers=workers,
    ) as cluster:
        return _run_script(cluster, replication_factor)


def _run_script(cluster: ClusterService, replication_factor: int) -> dict:
    keys = _Keys(_SEED + replication_factor)
    recorder = _Recorder(cluster)
    rng = keys.rng

    # Single operations of all four kinds (each is a batch of one).
    for _ in range(1_000):
        operation = keys.operation()
        if operation.kind is OpKind.INSERT:
            result = cluster.insert(operation.key, operation.value)
        elif operation.kind is OpKind.UPDATE:
            result = cluster.update(operation.key, operation.value)
        elif operation.kind is OpKind.DELETE:
            result = cluster.delete(operation.key)
        else:
            result = cluster.lookup(operation.key)
        recorder.results([result])
        recorder.batch(cluster.last_batch)
    for key in ("héllo", 5, 0x0102, bytearray(b"ba-key"), memoryview(b"mv-key")):
        recorder.results([cluster.insert(key, b"typed"), cluster.lookup(key)])
    recorder.end_phase("single")

    # Mixed batches of every size class, then an empty one.
    for size in _BATCH_SIZES:
        recorder.batch(cluster.execute_batch(keys.operation() for _ in range(size)))
    recorder.batch(cluster.execute_batch([]))
    recorder.end_phase("mixed")

    # Key-sequence entry points with keys repeated inside one batch.
    for count in (1, 9, 64, 150):
        recorder.results(cluster.lookup_batch(keys.lookup_keys(count)))
        recorder.batch(cluster.last_batch)
        recorder.results(cluster.insert_batch(keys.insert_items(count)))
        recorder.batch(cluster.last_batch)
    recorder.results(cluster.lookup_batch(iter(keys.lookup_keys(12))))  # any iterable
    recorder.results(cluster.insert_batch(iter(keys.insert_items(12))))
    recorder.end_phase("repeats")

    # A crashed shard: failover, hints, unavailability at RF 1; then a heal.
    cluster.fail_shard("shard-1", "crash")
    _traffic(cluster, keys, recorder, rounds=4)
    recorder.end_phase("crash")
    cluster.heal_shard("shard-1")
    _traffic(cluster, keys, recorder, rounds=3)
    recorder.end_phase("healed")

    # A device that fails part-way through sub-batches, detected and healed
    # several times over.
    for cycle in range(10):
        shard_id = cluster.shard_ids[cycle % 4]
        cluster.fail_shard(shard_id, "io-errors", error_rate=0.25)
        _traffic(cluster, keys, recorder, rounds=3)
        cluster.heal_shard(shard_id)
        _traffic(cluster, keys, recorder, rounds=1)
    recorder.end_phase("io-errors")

    # As many shards down as there are replicas: some operation of every
    # large batch has no live replica left.
    for shard_id in cluster.shard_ids[:replication_factor]:
        cluster.fail_shard(shard_id, "crash")
    _traffic(cluster, keys, recorder, rounds=3)
    for shard_id in cluster.shard_ids[:replication_factor]:
        cluster.heal_shard(shard_id)
    _traffic(cluster, keys, recorder, rounds=1)
    recorder.end_phase("unavailable")

    # An online scale-out, stepped between batches: placement comes from
    # ``migration.replicas_for`` while arcs are pending, migrating and done.
    migrator = KeyMigrator(cluster, batch_size=24, max_active_arcs=2)
    migrator.start_add()
    steps = 0
    while cluster.migration is not None:
        _traffic(cluster, keys, recorder, rounds=1)
        if steps == 2:  # a replica of the moving arcs dies mid-migration
            cluster.fail_shard("shard-0", "crash")
        if steps == 5:
            cluster.heal_shard("shard-0")
        recorder.line("M", migrator.step(), cluster.migration is not None)
        steps += 1
        assert steps < 400
    # The report's repr as it read when GOLDEN was recorded: the same ten
    # fields, so fields a report gains later do not move the digest.
    report = migrator.reports[-1]
    fields = ", ".join(f"{name}={getattr(report, name)!r}" for name in _REPORT_FIELDS)
    recorder.line("M", steps, f"MigrationReport({fields})")
    _traffic(cluster, keys, recorder, rounds=2)
    recorder.end_phase("migration")
    combined = cluster.stats.combined()
    recorder.reached.update(
        read_repairs=cluster.read_repairs,
        hinted_handoffs=cluster.hinted_handoffs,
        migration_steps=steps,
        shards_marked_down=len(cluster.events.events("shard_down")),
        flushes=int(combined["flushes"]),
        evictions=int(combined["evictions"]),
    )
    return {**recorder.phases, "reached": recorder.reached}


#: case name -> (replication_factor, failure_threshold)
CASES = {
    "rf1": (1, 1),
    "rf2": (2, 1),
    "rf3": (3, 1),
    # A shard that survives its first error stays in the live view, so the
    # operations it left behind may be retried on it.
    "rf2/threshold-2": (2, 2),
}

# fmt: off
GOLDEN = {
    'rf1': {
        'single': '0664fcfd2396d8f55f4c42b4',
        'mixed': '0e21f283063744445daf26d7',
        'repeats': 'baadf0bd049d8ae51069e3e8',
        'crash': 'f37756e3e69ab862fee4849f',
        'healed': '3b2e88138b9322b4103d0482',
        'io-errors': 'fa8424c17ebad7fe1933afee',
        'unavailable': 'fe9fd6166f0df29564c43023',
        'migration': '327562e0aa63ac6706bd3b22',
        'reached': {
            'batches': 1183, 'unavailable': 33, 'partial_results': 319, 'failed_shards': 0,
            'retried': 0, 'truncated': 0, 'read_repairs': 0, 'hinted_handoffs': 0,
            'migration_steps': 13, 'shards_marked_down': 5, 'flushes': 72, 'evictions': 4,
        },
    },
    'rf2': {
        'single': '2879267a7a7f431f0304b825',
        'mixed': '6335dc5ebc7e44ed843f56f5',
        'repeats': '54fe8220e7fbd7a1c2fa03ac',
        'crash': 'f8ff533cdb61733f99e8d0c5',
        'healed': 'ed6d3bb4c09a843b1340599e',
        'io-errors': '92971a19b9f8b05db90babe5',
        'unavailable': '578cceb45431a3ff47629bd3',
        'migration': '6cd5c06e58ec30331499e364',
        'reached': {
            'batches': 1233, 'unavailable': 7, 'partial_results': 2, 'failed_shards': 9,
            'retried': 113, 'truncated': 7, 'read_repairs': 31, 'hinted_handoffs': 289,
            'migration_steps': 21, 'shards_marked_down': 11, 'flushes': 197, 'evictions': 117,
        },
    },
    'rf3': {
        'single': '798b66685b38fea7d96bf4bf',
        'mixed': '1cfcde98a4c1d502f937cdf0',
        'repeats': '00f4a190e2145946b9153162',
        'crash': '343c955480ab34036cb46a09',
        'healed': '76b6414e967b1d4bd4e68795',
        'io-errors': '0cd9cc8c49a6fd8589d81221',
        'unavailable': '7802f4821dd7d5e746588228',
        'migration': 'edb1ab444163df2e43831f40',
        'reached': {
            'batches': 1231, 'unavailable': 6, 'partial_results': 60, 'failed_shards': 10,
            'retried': 80, 'truncated': 8, 'read_repairs': 68, 'hinted_handoffs': 752,
            'migration_steps': 20, 'shards_marked_down': 13, 'flushes': 266, 'evictions': 186,
        },
    },
    'rf2/threshold-2': {
        'single': '2879267a7a7f431f0304b825',
        'mixed': '6335dc5ebc7e44ed843f56f5',
        'repeats': '54fe8220e7fbd7a1c2fa03ac',
        'crash': '97f145c79e5bc4ff206f5f53',
        'healed': '708b4615b40f6c723da387c8',
        'io-errors': '823d70d1ff2fed93ed608c45',
        'unavailable': '7adf0886b849fa91eb09ac68',
        'migration': 'b5ce2c806979532a7bd51f57',
        'reached': {
            'batches': 1233, 'unavailable': 7, 'partial_results': 2, 'failed_shards': 12,
            'retried': 161, 'truncated': 10, 'read_repairs': 30, 'hinted_handoffs': 194,
            'migration_steps': 21, 'shards_marked_down': 7, 'flushes': 197, 'evictions': 117,
        },
    },
}
# fmt: on


@pytest.mark.parametrize("case", sorted(CASES))
def test_service_outcomes_are_bit_identical(case):
    assert run_case(*CASES[case]) == GOLDEN[case]


@pytest.mark.parametrize("case", ["rf2", "rf3"])
def test_worker_processes_reproduce_the_same_golden(case):
    """The in-process <-> process parity contract, against the frozen values
    rather than against the other deployment."""
    assert run_case(*CASES[case], workers=WorkerProcesses()) == GOLDEN[case]


def test_migration_order_does_not_follow_the_string_hash_seed():
    """The migrator drains each arc's queue in key order, so interpreters with
    different ``PYTHONHASHSEED`` values copy the same keys in the same order."""
    here = Path(__file__).resolve().parent
    script = "import json; from test_service_golden import run_case; print(json.dumps(run_case(2)))"
    for seed in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join((str(here.parent / "src"), str(here))),
        }
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == GOLDEN["rf2"], seed


def test_script_reaches_every_branch_it_claims():
    """Failover, truncated sub-batches, read repair, hinted handoff,
    unavailability with applied operations, flushes and evictions all occur,
    so the digests above cover them."""
    for case in ("rf2", "rf3", "rf2/threshold-2"):
        reached = GOLDEN[case]["reached"]
        for name in ("unavailable", "partial_results", "retried", "truncated", "read_repairs"):
            assert reached[name] > 0, (case, name)
        assert reached["hinted_handoffs"] > 100
        assert reached["migration_steps"] > 10
        assert reached["evictions"] > 100
    assert GOLDEN["rf1"]["reached"]["partial_results"] > 100


if __name__ == "__main__":
    for name, arguments in CASES.items():
        print(f"    {name!r}: {{")
        for phase, value in run_case(*arguments).items():
            print(f"        {phase!r}: {value!r},")
        print("    },")
