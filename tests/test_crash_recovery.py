"""CLAM crash recovery: power cuts at every I/O boundary lose no acknowledged write.

The acknowledged-write contract under test:

* a write is **acknowledged** once the incarnation flush containing it
  completed — after a crash, every item of every incarnation the (crashed)
  CLAM still listed must be readable from the reopened CLAM;
* writes still buffered in DRAM (including a flush the power cut tore) are
  **not** acknowledged and may be lost — the reopened CLAM reports this via
  ``recovery_report.may_have_lost_buffered_writes``.

The sweep test drives the same deterministic workload with a power cut armed
at I/O unit 1, 2, 3, ... n for every reachable n, covering cuts inside
streaming incarnation writes (torn pages), inside block erases (interrupted
erases), inside checkpoint writes and on reads.
"""

import json
import os
import shutil

import pytest

from repro.core import CLAMConfig, DurableCLAM, PowerLossError
from repro.core.durable import SUPERBLOCK_MAGIC
from repro.core.errors import ConfigurationError, DeviceFailedError
from repro.core.hashing import key_data
from repro.core.incarnation import iter_page_entries
from repro.flashsim.device import DeviceGeometry
from repro.flashsim.faults import FaultMode
from repro.flashsim.persistent import PageState, PersistentFlashDevice
from repro.service.cluster import ClusterService

# Tiny geometry so the deterministic workload reaches wrap-around, releases
# and erases within a few hundred I/O units.
GEOM = DeviceGeometry(page_size=1024, pages_per_block=8, num_blocks=16)
CFG = CLAMConfig(
    num_super_tables=2,
    buffer_capacity_items=8,
    incarnations_per_table=2,
    checkpoint_interval_flushes=4,
)
COLD_CFG = CLAMConfig(
    num_super_tables=2,
    buffer_capacity_items=8,
    incarnations_per_table=2,
)
N_OPS = 260

#: The superblock payload of ``CFG`` exactly as the commit before the re-hash
#: ablation was deleted wrote it (``json.dumps(asdict(config), sort_keys=True,
#: separators=(",", ":"))``); ``%s`` is the ablation switch, ``true``/``false``.
#: Like every file older than the columnar page layout it names no
#: ``page_format``: its incarnation pages are format 1.
PARENT_SUPERBLOCK_JSON = (
    b'{"bloom_bits_per_entry":16.0,"buffer_capacity_items":8,"buffer_utilization":0.5,'
    b'"checkpoint_interval_flushes":4,"entry_size_bytes":16,"eviction_policy_name":"fifo",'
    b'"incarnations_per_table":2,"memory_cost":{"bloom_probe_per_incarnation_ms":0.0004,'
    b'"bloom_sliced_query_ms":0.002,"bloom_update_ms":0.0005,"buffer_op_ms":0.004,'
    b'"delete_list_probe_ms":0.0002,"page_scan_ms":0.002},"num_super_tables":2,'
    b'"page_size_bytes":null,"telemetry_enabled":false,"use_bit_slicing":true,'
    b'"use_bloom_filters":true,"use_buffering":true,"use_hash_once":%s}'
)


#: The superblock payload of ``CFG`` as written by builds whose configuration
#: still carried the simulated DRAM costs (``memory_cost``), the buffer's fill
#: limit (``buffer_utilization``) and ``page_size_bytes``: page_format 2, so
#: its incarnation pages are read, and each of the three keys holds the only
#: value those builds ever wrote for it.
PAGE_FORMAT_2_SUPERBLOCK_JSON = (
    b'{"bloom_bits_per_entry":16.0,"buffer_capacity_items":8,"buffer_utilization":0.5,'
    b'"checkpoint_interval_flushes":4,"entry_size_bytes":16,"eviction_policy_name":"fifo",'
    b'"incarnations_per_table":2,"memory_cost":{"bloom_probe_per_incarnation_ms":0.0004,'
    b'"bloom_sliced_query_ms":0.002,"bloom_update_ms":0.0005,"buffer_op_ms":0.004,'
    b'"delete_list_probe_ms":0.0002,"page_scan_ms":0.002},"num_super_tables":2,'
    b'"page_format":2,"page_size_bytes":null,"telemetry_enabled":false,'
    b'"use_bit_slicing":true,"use_bloom_filters":true,"use_buffering":true}'
)


def key(i):
    return b"key-%04d" % i


def value(i):
    return b"val-%04d" % i


def run_workload(path, crash_at=None, config=CFG, n_ops=N_OPS):
    """Deterministic insert/lookup/delete mix; returns (clam, error)."""
    clam = DurableCLAM(path, config=config, geometry=GEOM)
    if crash_at is not None:
        clam.persistent_device.faults.crash_after_n_ios(crash_at)
    error = None
    try:
        for i in range(n_ops):
            clam.insert(key(i), value(i))
            if i % 17 == 0:
                clam.lookup(key(i // 2))
            if i and i % 23 == 0:
                clam.delete(key(i - 2))
        clam.close()
    except (PowerLossError, DeviceFailedError) as err:
        error = err
    return clam, error


def acknowledged_items(clam):
    """God's-eye oracle: items of every incarnation the CLAM still lists.

    Incarnation handles are registered in DRAM only *after* their streaming
    write returned, so at crash time they enumerate exactly the acknowledged
    (durable) state.  Pages are read via ``peek_page`` straight off the
    media image, bypassing the dead device's fault gate.
    """
    device = clam.persistent_device
    acked = {}
    for table in clam.tables:
        deleted = set(table.delete_list_snapshot())
        for handle in table.incarnation_handles:
            for offset in range(handle.num_pages):
                image = device.peek_page(handle.address + offset)
                assert image is not None, "acknowledged incarnation page damaged on media"
                for k, v in iter_page_entries(image):
                    if k not in deleted:
                        acked[k] = v
    return acked


def total_io_units(tmp_path):
    """I/O units the uncrashed workload (including clean close) performs."""
    path = tmp_path / "dry.clam"
    clam, error = run_workload(path)
    assert error is None
    sentinel = 10**9
    # Count with a fresh run and an armed-but-unreachable countdown.
    path2 = tmp_path / "dry2.clam"
    clam2 = DurableCLAM(path2, config=CFG, geometry=GEOM)
    clam2.persistent_device.faults.crash_after_n_ios(sentinel)
    injector = clam2.persistent_device.faults
    for i in range(N_OPS):
        clam2.insert(key(i), value(i))
        if i % 17 == 0:
            clam2.lookup(key(i // 2))
        if i and i % 23 == 0:
            clam2.delete(key(i - 2))
    clam2.close()
    return sentinel - injector._power_countdown


class TestCrashSweep:
    def test_power_cut_at_every_io_boundary_loses_no_acknowledged_write(self, tmp_path):
        """The headline robustness property, exhaustively over crash points."""
        total = total_io_units(tmp_path)
        assert total > 50, "workload too small to exercise interesting crash points"
        cut_modes = set()
        reports = []
        path = tmp_path / "sweep.clam"
        for n in range(1, total + 1):
            if path.exists():
                os.unlink(path)
            crashed, error = run_workload(path, crash_at=n)
            assert error is not None, f"cut at unit {n} never fired (total={total})"
            cut_modes.add(crashed.persistent_device.faults.mode)
            acked = acknowledged_items(crashed)
            crashed.close()

            with DurableCLAM(path, geometry=GEOM) as reopened:
                report = reopened.recovery_report
                assert report is not None
                reports.append(report)
                for k, v in acked.items():
                    result = reopened.lookup(k)
                    assert result.found and result.value == v, (
                        f"cut at unit {n}: acknowledged key {k!r} lost "
                        f"(report: {report})"
                    )
                # The reopened CLAM is fully operational.
                reopened.insert(b"probe", b"probe-value")
                assert reopened.lookup(b"probe").value == b"probe-value"

        # The sweep must actually have reached every power-loss state.
        assert FaultMode.TORN_WRITE in cut_modes
        assert FaultMode.INTERRUPTED_ERASE in cut_modes
        assert FaultMode.POWER_LOST in cut_modes  # a cut on a read path
        assert any(r.torn_pages_discarded for r in reports)
        assert any(r.interrupted_erase_blocks for r in reports)
        assert any(r.incarnations_from_checkpoint for r in reports)
        assert any(r.log_records_replayed for r in reports)


class TestDurableCLAM:
    def test_clean_shutdown_roundtrip_loses_nothing(self, tmp_path):
        path = tmp_path / "clean.clam"
        with DurableCLAM(path, config=CFG, geometry=GEOM) as clam:
            assert clam.recovery_report is None  # fresh create
            for i in range(30):
                clam.insert(key(i), value(i))
        with DurableCLAM(path, geometry=GEOM) as clam:
            report = clam.recovery_report
            assert report.clean_shutdown
            assert not report.may_have_lost_buffered_writes
            for i in range(30):
                assert clam.lookup(key(i)).value == value(i)

    def test_unclean_shutdown_reports_possible_buffered_loss(self, tmp_path):
        path = tmp_path / "dirty.clam"
        clam = DurableCLAM(path, config=CFG, geometry=GEOM)
        for i in range(30):
            clam.insert(key(i), value(i))
        buffered = {
            key_data(k)
            for table in clam.tables
            for k in table.buffer.items()
        }
        assert buffered  # some writes were still DRAM-only
        clam.persistent_device.faults.crash()  # hard stop: no flush, no checkpoint
        clam.close()
        with DurableCLAM(path, geometry=GEOM) as clam:
            report = clam.recovery_report
            assert not report.clean_shutdown
            assert report.may_have_lost_buffered_writes
            for k in buffered:
                assert not clam.lookup(k).found

    def test_reopen_re_erases_exactly_the_erased_dirty_blocks(self, tmp_path):
        path = tmp_path / "erase.clam"
        with DurableCLAM(path, config=CFG, geometry=GEOM) as clam:
            for i in range(30):
                clam.insert(key(i), value(i))
        device = PersistentFlashDevice(path, geometry=GEOM)
        unused = [
            block
            for block in range(GEOM.num_blocks)
            if all(
                device.page_state(page) is PageState.ERASED
                for page in range(
                    block * GEOM.pages_per_block, (block + 1) * GEOM.pages_per_block
                )
            )
        ]
        cut = unused[-2:]
        for block in cut:
            device.faults.crash_after_n_ios(1)
            with pytest.raises(PowerLossError):
                device.erase_block(block)
            device.faults.heal()
        assert device.erased_dirty_blocks() == cut
        device.close()
        with DurableCLAM(path, geometry=GEOM) as clam:
            assert clam.recovery_report.interrupted_erase_blocks == 2
            assert clam.persistent_device.erased_dirty_blocks() == []
            for block in cut:
                start = block * GEOM.pages_per_block
                assert all(
                    clam.persistent_device.page_state(page) is PageState.ERASED
                    for page in range(start, start + GEOM.pages_per_block)
                )
            for i in range(30):
                assert clam.lookup(key(i)).value == value(i)
        with DurableCLAM(path, geometry=GEOM) as clam:  # nothing left to repair
            assert clam.recovery_report.interrupted_erase_blocks == 0

    def test_checkpoint_shortens_recovery_versus_cold_rebuild(self, tmp_path):
        # Deep incarnation chains so a cold rebuild has real work to do; the
        # checkpoint restores all but the post-checkpoint suffix for free.
        ckpt_cfg = CLAMConfig(
            num_super_tables=2,
            buffer_capacity_items=8,
            incarnations_per_table=8,
            checkpoint_interval_flushes=4,
        )
        cold_cfg = CLAMConfig(
            num_super_tables=2,
            buffer_capacity_items=8,
            incarnations_per_table=8,
        )
        results = {}
        for label, config in (("ckpt", ckpt_cfg), ("cold", cold_cfg)):
            # Dry run to learn the config's total I/O units, then cut late in
            # the run so both variants crash with comparable durable state.
            sentinel = 10**9
            dry = DurableCLAM(tmp_path / f"{label}-dry.clam", config=config, geometry=GEOM)
            dry.persistent_device.faults.crash_after_n_ios(sentinel)
            injector = dry.persistent_device.faults
            for i in range(N_OPS):
                dry.insert(key(i), value(i))
            dry.close()
            crash_at = (sentinel - injector._power_countdown) * 4 // 5
            path = tmp_path / f"{label}.clam"
            crashed, error = run_workload(path, crash_at=crash_at, config=config)
            assert error is not None
            crashed.close()
            with DurableCLAM(path, geometry=GEOM) as reopened:
                results[label] = reopened.recovery_report
        assert results["ckpt"].checkpoint_seq is not None
        assert results["ckpt"].incarnations_from_checkpoint > 0
        assert results["cold"].checkpoint_seq is None
        assert results["cold"].log_records_replayed > 0
        # Checkpoint restores Bloom filters without reading data pages, so
        # its simulated recovery I/O must be cheaper than the cold rebuild.
        assert results["ckpt"].recovery_io_ms < results["cold"].recovery_io_ms
        assert results["ckpt"].entries_rebuilt < results["cold"].entries_rebuilt

    def test_recovery_events_recorded(self, tmp_path):
        path = tmp_path / "events.clam"
        crashed, error = run_workload(path, crash_at=60)
        assert error is not None
        crashed.close()
        with DurableCLAM(path, geometry=GEOM) as clam:
            kinds = [event.kind for event in clam.events]
            assert kinds[0] == "crash_recovery_started"
            assert "crash_recovery_completed" in kinds
            completed = next(
                event for event in clam.events if event.kind == "crash_recovery_completed"
            )
            assert completed.attributes["pages_scanned"] == clam.recovery_report.pages_scanned
            if clam.recovery_report.torn_pages_discarded:
                assert "torn_page_discarded" in kinds

    def test_config_mismatch_rejected_and_superblock_adopted(self, tmp_path):
        path = tmp_path / "conf.clam"
        with DurableCLAM(path, config=CFG, geometry=GEOM):
            pass
        with pytest.raises(ConfigurationError, match="configuration mismatch"):
            DurableCLAM(path, config=COLD_CFG, geometry=GEOM)
        with DurableCLAM(path, geometry=GEOM) as clam:  # adopt stored config
            assert clam.config == CFG

    @staticmethod
    def _device_with_superblock(path, payload):
        device = PersistentFlashDevice(path, geometry=GEOM)
        superblock_page = device.layout.partition("superblock").start_page(GEOM)
        device.write_page(superblock_page, SUPERBLOCK_MAGIC + payload)
        device.close()

    @pytest.mark.parametrize("stored_flag", [b"true", b"false"])
    def test_superblock_written_before_the_rehash_switch_was_deleted_is_refused_at_open(
        self, tmp_path, stored_flag
    ):
        # No page_format means format 1, which has no reader: the file is
        # refused by name before a page of it is parsed, not misread later.
        path = tmp_path / "old.clam"
        self._device_with_superblock(path, PARENT_SUPERBLOCK_JSON % stored_flag)
        with pytest.raises(ConfigurationError, match="page_format 1; .* page_format 2 only"):
            DurableCLAM(path, geometry=GEOM)
        with pytest.raises(ConfigurationError, match="page_format"):
            DurableCLAM(path, config=CFG, geometry=GEOM)

    def test_superblock_of_a_page_format_from_the_future_is_refused_at_open(self, tmp_path):
        path = tmp_path / "new.clam"
        with DurableCLAM(path, config=CFG, geometry=GEOM) as clam:
            device = clam.persistent_device
            image = device.peek_page(device.layout.partition("superblock").start_page(GEOM))
        stamped = image[len(SUPERBLOCK_MAGIC) :]
        assert b'"page_format":2' in stamped
        os.remove(path)
        self._device_with_superblock(path, stamped.replace(b'"page_format":2', b'"page_format":3'))
        with pytest.raises(ConfigurationError, match="page_format 3; .* page_format 2 only"):
            DurableCLAM(path, geometry=GEOM)
        os.remove(path)
        self._device_with_superblock(path, stamped)  # the stamp itself is what opens
        with DurableCLAM(path, geometry=GEOM) as clam:
            assert clam.config == CFG

    def test_superblock_carrying_the_cost_model_and_buffer_fill_opens(self, tmp_path):
        written, stamped = tmp_path / "written.clam", tmp_path / "stamped.clam"
        _clam, error = run_workload(written)
        assert error is None
        shutil.copyfile(written, stamped)
        self._device_with_superblock(stamped, PAGE_FORMAT_2_SUPERBLOCK_JSON)
        probes = [key(i) for i in range(N_OPS + 20)]
        with DurableCLAM(written, geometry=GEOM) as fresh, DurableCLAM(
            stamped, geometry=GEOM
        ) as reopened:
            assert reopened.config == CFG
            answers = [(fresh.lookup(k).value, reopened.lookup(k).value) for k in probes]
        assert all(mine == theirs for mine, theirs in answers)
        assert sum(mine is not None for mine, _theirs in answers) > 20

    @pytest.mark.parametrize(
        "held, stored, field",
        [
            (b'"buffer_utilization":0.5', b'"buffer_utilization":0.9', "buffer_utilization"),
            (b'"buffer_utilization":0.5', b'"buffer_utilization":0.0', "buffer_utilization"),
            (b'"buffer_utilization":0.5', b'"buffer_utilization":1.5', "buffer_utilization"),
            (b'"page_size_bytes":null', b'"page_size_bytes":512', "page_size_bytes"),
            (b'"buffer_op_ms":0.004', b'"buffer_op_ms":0.008', "memory_cost"),
        ],
    )
    def test_superblock_carrying_a_retired_field_at_another_value_is_refused(
        self, tmp_path, held, stored, field
    ):
        # The file was written by a CLAM whose buffers or costs this build
        # cannot reproduce: refused by name at open, with or without a config.
        path = tmp_path / "other.clam"
        assert PAGE_FORMAT_2_SUPERBLOCK_JSON.count(held) == 1
        self._device_with_superblock(path, PAGE_FORMAT_2_SUPERBLOCK_JSON.replace(held, stored))
        with pytest.raises(ConfigurationError, match=field):
            DurableCLAM(path, geometry=GEOM)
        with pytest.raises(ConfigurationError, match=field):
            DurableCLAM(path, config=CFG, geometry=GEOM)

    def test_superblock_records_no_rehash_switch(self, tmp_path):
        path = tmp_path / "new.clam"
        with DurableCLAM(path, config=CFG, geometry=GEOM) as clam:
            device = clam.persistent_device
            image = device.peek_page(device.layout.partition("superblock").start_page(GEOM))
        assert image.startswith(SUPERBLOCK_MAGIC + b'{"bloom_bits_per_entry"')
        assert b"use_hash_once" not in image

    @pytest.mark.parametrize("cost", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name", sorted(json.loads(PAGE_FORMAT_2_SUPERBLOCK_JSON)["memory_cost"])
    )
    def test_superblock_carrying_a_cost_that_is_negative_or_not_finite_is_refused(
        self, tmp_path, name, cost
    ):
        # A super table charges these costs to the clock unchecked; a file
        # is the one way a value other than the constant could still arrive.
        fields = json.loads(PAGE_FORMAT_2_SUPERBLOCK_JSON)
        fields["memory_cost"][name] = cost
        payload = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode("utf-8")
        path = tmp_path / "other.clam"
        self._device_with_superblock(path, payload)
        with pytest.raises(ConfigurationError, match="memory_cost"):
            DurableCLAM(path, geometry=GEOM)

    def test_superblock_records_no_retired_field(self, tmp_path):
        path = tmp_path / "new.clam"
        with DurableCLAM(path, config=CFG, geometry=GEOM) as clam:
            device = clam.persistent_device
            image = device.peek_page(device.layout.partition("superblock").start_page(GEOM))
        for field in (b"buffer_utilization", b"page_size_bytes", b"memory_cost", b"_ms"):
            assert field not in image

    def test_unbuffered_config_rejected(self, tmp_path):
        config = CLAMConfig(use_buffering=False)
        with pytest.raises(ConfigurationError, match="use_buffering"):
            DurableCLAM(tmp_path / "nope.clam", config=config, geometry=GEOM)

    def test_close_is_idempotent_and_leaves_only_the_device_file(self, tmp_path):
        path = tmp_path / "tidy.clam"
        clam = DurableCLAM(path, config=CFG, geometry=GEOM)
        clam.insert(b"k", b"v")
        clam.close()
        clam.close()
        assert clam.persistent_device.closed
        assert os.listdir(tmp_path) == ["tidy.clam"]

    def test_double_crash_during_recovery_era_is_survivable(self, tmp_path):
        """Crash, reopen, crash again mid-workload, reopen again."""
        path = tmp_path / "double.clam"
        crashed, error = run_workload(path, crash_at=80)
        assert error is not None
        crashed.close()
        clam = DurableCLAM(path, geometry=GEOM)
        clam.persistent_device.faults.crash_after_n_ios(13)
        try:
            for i in range(500, 700):
                clam.insert(key(i), value(i))
        except (PowerLossError, DeviceFailedError):
            pass
        acked = acknowledged_items(clam)
        clam.close()
        with DurableCLAM(path, geometry=GEOM) as reopened:
            for k, v in acked.items():
                assert reopened.lookup(k).value == v


class TestRecoveryPaths:
    """The same on-flash incarnations, restored from a checkpoint and by log
    replay alone, answer every lookup alike.

    The two paths write different Bloom columns.  A checkpoint carries the
    flush's column, which also holds the keys deleted from the buffer before
    the flush and counts an update again; replay writes one from the keys on
    the incarnation's pages, each counted once.  Both are valid filters of
    the incarnation, so the answers agree, while charged costs (a false
    positive costs a page read) may differ.  Deletes here are of keys still
    buffered: the delete list is checkpoint state, and replay alone cannot
    bring back a delete of a key that has an older copy on flash.
    """

    CONFIG = CLAMConfig(
        num_super_tables=2,
        buffer_capacity_items=8,
        incarnations_per_table=8,
        checkpoint_interval_flushes=4,
    )

    @staticmethod
    def _reject_checkpoints(path):
        """Overwrite the checkpoint partition, so a reopen finds none."""
        device = PersistentFlashDevice(path, geometry=GEOM)
        partition = device.layout.partition("checkpoint")
        start = partition.start_page(GEOM)
        for page in range(start, start + partition.num_pages(GEOM)):
            device.write_page(page, b"not a checkpoint")
        device.close()

    def test_checkpoint_restore_and_log_replay_answer_alike(self, tmp_path):
        path, replay_path = tmp_path / "restored.clam", tmp_path / "replayed.clam"
        inserted, deleted = [], []
        with DurableCLAM(path, config=self.CONFIG, geometry=GEOM) as clam:
            for i in range(200):
                clam.insert(key(i), value(i))
                inserted.append(key(i))
                if i % 5 == 0:  # an update, often of a key already on flash
                    clam.insert(key(i // 2), b"upd-%04d" % i)
                if i % 7 == 0:  # in the flush's column, not on any page
                    doomed = b"doomed-%04d" % i
                    clam.insert(doomed, b"x")
                    clam.delete(doomed)
                    deleted.append(doomed)
            assert clam.total_evictions > 0
        shutil.copyfile(path, replay_path)
        self._reject_checkpoints(replay_path)
        probes = inserted + deleted + [b"absent-%04d" % i for i in range(200)]
        with DurableCLAM(path, geometry=GEOM) as restored, DurableCLAM(
            replay_path, geometry=GEOM
        ) as replayed:
            assert restored.recovery_report.incarnations_from_checkpoint > 0
            assert restored.recovery_report.log_records_replayed == 0
            assert replayed.recovery_report.checkpoint_seq is None
            assert replayed.recovery_report.log_records_replayed > 0
            pairs = list(zip(restored.tables, replayed.tables))
            assert all(a.incarnation_handles == b.incarnation_handles for a, b in pairs)
            # The case the class is about is reached: some columns differ in bits.
            assert any(
                a.column_bytes(handle)[0] != b.column_bytes(handle)[0]
                for a, b in pairs
                for handle in a.incarnation_handles
            )
            answers = [(restored.lookup(k).value, replayed.lookup(k).value) for k in probes]
        assert all(mine == theirs for mine, theirs in answers)
        assert sum(mine is not None for mine, _theirs in answers) > 50


class TestPersistentCluster:
    CLUSTER_CFG = CLAMConfig(
        num_super_tables=2,
        buffer_capacity_items=16,
        incarnations_per_table=16,
        checkpoint_interval_flushes=4,
    )

    def test_power_cut_shard_reopens_and_rejoins_with_zero_cluster_loss(self, tmp_path):
        data_dir = tmp_path / "cluster"
        with ClusterService(
            num_shards=3,
            config=self.CLUSTER_CFG,
            storage="persistent",
            data_dir=str(data_dir),
            replication_factor=2,
        ) as service:
            for i in range(300):
                service.insert(key(i), value(i))
            victim = service.shard_for(key(0))
            service.fail_shard(victim, mode="power-cut", after_n_ios=7)
            written = 300
            for i in range(300, 800):
                try:
                    service.insert(key(i), value(i))
                    written = i + 1
                except Exception:
                    written = i + 1  # replicas still applied it or hints recorded
                if victim in service.down_shard_ids:
                    break
            assert victim in service.down_shard_ids
            # More writes while the shard is down accumulate handoff hints.
            for i in range(written, written + 50):
                service.insert(key(i), value(i))
            written += 50

            reports = service.reopen_and_rejoin()
            assert victim in reports
            assert not reports[victim].clean_shutdown
            assert service.is_live(victim)

            # RF=2: every key the cluster acknowledged is still readable.
            for i in range(written):
                assert service.get(key(i)) == value(i), f"key {i} lost cluster-wide"

            kinds = [event.kind for event in service.events]
            assert "crash_recovery_started" in kinds
            assert "crash_recovery_completed" in kinds
            assert "reopen_rejoin" in kinds
        # Context-manager close released every shard file cleanly.
        assert sorted(os.listdir(data_dir)) == [
            "shard-0.clam",
            "shard-1.clam",
            "shard-2.clam",
        ]

    def test_cluster_restart_from_data_dir_recovers_all_shards(self, tmp_path):
        data_dir = tmp_path / "cluster"
        with ClusterService(
            num_shards=2,
            config=self.CLUSTER_CFG,
            storage="persistent",
            data_dir=str(data_dir),
        ) as service:
            for i in range(120):
                service.insert(key(i), value(i))
        with ClusterService(
            num_shards=2,
            config=self.CLUSTER_CFG,
            storage="persistent",
            data_dir=str(data_dir),
        ) as service:
            for clam in service.shards.values():
                assert clam.recovery_report is not None
                assert clam.recovery_report.clean_shutdown
            for i in range(120):
                assert service.get(key(i)) == value(i)

    def test_data_dir_required_for_persistent_and_rejected_otherwise(self, tmp_path):
        with pytest.raises(ConfigurationError, match="data_dir"):
            ClusterService(num_shards=2, storage="persistent")
        with pytest.raises(ConfigurationError, match="data_dir"):
            ClusterService(num_shards=2, storage="dram", data_dir=str(tmp_path))
