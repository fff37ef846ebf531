"""Golden and behavioural tests for the file-backed flash device.

The golden tests freeze the on-disk byte format (file header and per-page
CRC frames): any change to :mod:`repro.flashsim.persistent` that would break
reading existing device files must fail here first.
"""

import os
import struct
import zlib

import pytest

from repro.core.errors import PowerLossError, TornPageError
from repro.flashsim.device import DeviceGeometry
from repro.flashsim.persistent import (
    FILE_HEADER_SIZE,
    FILE_MAGIC,
    PERSISTENT_GEOMETRY,
    FlashLayout,
    FlashPartition,
    PageState,
    PersistentFlashDevice,
)

# Small geometry keeping test files tiny; >= 4 blocks for the default layout.
GEOM = DeviceGeometry(page_size=256, pages_per_block=4, num_blocks=8)
FRAME_HEADER = struct.Struct("<BHI")  # independent copy: freezes the format
FRAME_STRIDE = GEOM.page_size + FRAME_HEADER.size


def frame_offset(page_index):
    return FILE_HEADER_SIZE + page_index * FRAME_STRIDE


def make_device(tmp_path, name="dev.flash", **kwargs):
    return PersistentFlashDevice(tmp_path / name, geometry=GEOM, **kwargs)


class TestGoldenFormat:
    """Byte-level assertions freezing the file format."""

    def test_file_header_layout(self, tmp_path):
        path = tmp_path / "dev.flash"
        with PersistentFlashDevice(path, geometry=GEOM) as dev:
            dev.flush()
        raw = path.read_bytes()
        magic, page_size, pages_per_block, num_blocks = struct.unpack_from("<8sIII", raw, 0)
        assert magic == FILE_MAGIC == b"RFLASH\x01\x00"
        assert (page_size, pages_per_block, num_blocks) == (256, 4, 8)
        # 64 bytes are reserved; the rest of the reservation is zero.
        assert raw[struct.calcsize("<8sIII") : FILE_HEADER_SIZE] == bytes(
            FILE_HEADER_SIZE - struct.calcsize("<8sIII")
        )
        assert len(raw) == FILE_HEADER_SIZE + GEOM.total_pages * FRAME_STRIDE

    def test_written_frame_layout(self, tmp_path):
        path = tmp_path / "dev.flash"
        payload = b"hello, stable format"
        with PersistentFlashDevice(path, geometry=GEOM) as dev:
            dev.write_page(5, payload)
        raw = path.read_bytes()
        offset = frame_offset(5)
        status, length, crc = FRAME_HEADER.unpack_from(raw, offset)
        assert status == 0x01
        assert length == len(payload)
        assert crc == zlib.crc32(payload)
        body = raw[offset + FRAME_HEADER.size : offset + FRAME_STRIDE]
        assert body[: len(payload)] == payload
        assert body[len(payload) :] == bytes(GEOM.page_size - len(payload))

    def test_erased_frame_is_all_zeros(self, tmp_path):
        path = tmp_path / "dev.flash"
        with PersistentFlashDevice(path, geometry=GEOM) as dev:
            assert dev.page_state(3) is PageState.ERASED
            data, _latency = dev.read_page(3)
            assert data == b""
        raw = path.read_bytes()
        offset = frame_offset(3)
        assert raw[offset : offset + FRAME_STRIDE] == bytes(FRAME_STRIDE)

    def test_torn_frame_layout(self, tmp_path):
        path = tmp_path / "dev.flash"
        payload = b"x" * 64
        dev = PersistentFlashDevice(path, geometry=GEOM)
        dev.faults.crash_after_n_ios(1)
        with pytest.raises(PowerLossError):
            dev.write_page(2, payload)
        dev.close()
        raw = path.read_bytes()
        offset = frame_offset(2)
        status, length, crc = FRAME_HEADER.unpack_from(raw, offset)
        assert status == 0x01
        assert length == len(payload) // 2  # half the payload landed
        assert crc == zlib.crc32(payload) ^ 0xA5A5A5A5  # CRC can never verify
        assert raw[offset + FRAME_HEADER.size : offset + FRAME_HEADER.size + length] == (
            payload[:length]
        )

    def test_erased_dirty_frame_layout(self, tmp_path):
        path = tmp_path / "dev.flash"
        dev = PersistentFlashDevice(path, geometry=GEOM)
        dev.write_page(4, b"doomed")
        dev.faults.crash_after_n_ios(1)
        with pytest.raises(PowerLossError):
            dev.erase_block(1)  # pages 4..7
        dev.close()
        raw = path.read_bytes()
        for page in range(4, 8):
            assert raw[frame_offset(page)] == 0x02

    def test_reopen_decodes_frames_written_by_a_previous_process(self, tmp_path):
        """Persistence is the whole point: bytes on disk are sufficient."""
        path = tmp_path / "dev.flash"
        with PersistentFlashDevice(path, geometry=GEOM) as dev:
            dev.write_page(0, b"alpha")
            dev.write_range(8, [b"beta", b"gamma", b"delta"])
        with PersistentFlashDevice(path) as dev:  # geometry from the header
            assert dev.geometry == GEOM
            assert dev.read_page(0)[0] == b"alpha"
            assert dev.read_range(8, 3)[0] == [b"beta", b"gamma", b"delta"]
            assert dev.page_state(1) is PageState.ERASED


class TestPowerLossSemantics:
    def test_torn_page_refuses_reads_until_erased(self, tmp_path):
        dev = make_device(tmp_path)
        dev.faults.crash_after_n_ios(1)
        with pytest.raises(PowerLossError):
            dev.write_page(9, b"payload")
        dev.faults.heal()
        assert dev.page_state(9) is PageState.TORN
        with pytest.raises(TornPageError):
            dev.read_page(9)
        dev.erase_block(dev.block_of(9))
        assert dev.page_state(9) is PageState.ERASED
        dev.close()

    def test_interrupted_erase_poisons_whole_block(self, tmp_path):
        dev = make_device(tmp_path)
        dev.write_page(4, b"a")
        dev.write_page(6, b"b")
        dev.faults.crash_after_n_ios(1)
        with pytest.raises(PowerLossError):
            dev.erase_block(1)
        dev.faults.heal()
        for page in range(4, 8):
            assert dev.page_state(page) is PageState.ERASED_DIRTY
        with pytest.raises(TornPageError):
            dev.read_page(5)
        # A torn page is not erased-dirty; the status bytes name block 1 only.
        dev.faults.crash_after_n_ios(1)
        with pytest.raises(PowerLossError):
            dev.write_page(9, b"payload")
        dev.faults.heal()
        assert dev.erased_dirty_blocks() == [1]
        # Re-erasing completes the interrupted operation.
        dev.erase_block(1)
        assert all(dev.page_state(p) is PageState.ERASED for p in range(4, 8))
        assert dev.erased_dirty_blocks() == []
        dev.close()

    def test_write_range_cut_leaves_durable_prefix_untouched_suffix(self, tmp_path):
        dev = make_device(tmp_path)
        pages = [b"p%d" % i for i in range(6)]
        dev.faults.crash_after_n_ios(3)  # cut inside the 3rd page of the stream
        with pytest.raises(PowerLossError):
            dev.write_range(8, pages)
        dev.faults.heal()
        assert dev.page_state(8) is PageState.VALID
        assert dev.page_state(9) is PageState.VALID
        assert dev.read_page(8)[0] == b"p0"
        assert dev.read_page(9)[0] == b"p1"
        assert dev.page_state(10) is PageState.TORN
        for page in (11, 12, 13):
            assert dev.page_state(page) is PageState.ERASED
        dev.close()

    def test_power_cut_on_read_kills_device_without_tearing_media(self, tmp_path):
        dev = make_device(tmp_path)
        dev.write_page(0, b"intact")
        dev.faults.crash_after_n_ios(1)
        with pytest.raises(PowerLossError):
            dev.read_page(0)
        assert dev.faults.is_crashed
        dev.faults.heal()
        assert dev.read_page(0)[0] == b"intact"
        dev.close()

    def test_peek_and_page_state_charge_no_simulated_io(self, tmp_path):
        dev = make_device(tmp_path)
        dev.write_page(0, b"data")
        before = dev.stats.count()
        assert dev.page_state(0) is PageState.VALID
        assert dev.peek_page(0) == b"data"
        assert dev.peek_page(1) is None
        assert dev.stats.count() == before
        dev.close()


def decoded_dirty_blocks(dev):
    """Erased-dirty blocks found the slow way: decode every frame."""
    return [
        block
        for block in range(GEOM.num_blocks)
        if any(
            dev.page_state(page) is PageState.ERASED_DIRTY
            for page in range(block * GEOM.pages_per_block, (block + 1) * GEOM.pages_per_block)
        )
    ]


def set_status_byte(path, page_index, status):
    raw = bytearray(path.read_bytes())
    raw[frame_offset(page_index)] = status
    path.write_bytes(bytes(raw))


class TestErasedDirtyScan:
    """The status-byte scan names exactly the blocks frame decoding would."""

    def test_fresh_written_and_torn_devices_have_no_dirty_blocks(self, tmp_path):
        dev = make_device(tmp_path)
        assert dev.erased_dirty_blocks() == []
        dev.write_range(0, [b"a", b"b", b"c"])
        dev.faults.crash_after_n_ios(1)
        with pytest.raises(PowerLossError):
            dev.write_page(13, b"torn")
        dev.faults.heal()
        assert dev.page_state(13) is PageState.TORN
        assert dev.erased_dirty_blocks() == []
        dev.close()

    @pytest.mark.parametrize("block", [0, 3, GEOM.num_blocks - 1])
    def test_scan_of_a_reopened_file_agrees_with_frame_decoding(self, tmp_path, block):
        """First, middle and last block: the stride slice starts after the
        file header and must reach the final frame."""
        path = tmp_path / "dev.flash"
        with PersistentFlashDevice(path, geometry=GEOM) as dev:
            dev.write_page(block * GEOM.pages_per_block, b"doomed")
            dev.faults.crash_after_n_ios(1)
            with pytest.raises(PowerLossError):
                dev.erase_block(block)
        with PersistentFlashDevice(path) as dev:  # nothing decoded yet
            assert dev.erased_dirty_blocks() == [block]
            assert decoded_dirty_blocks(dev) == [block]

    @pytest.mark.parametrize("page", [0, 22, GEOM.total_pages - 1])
    def test_one_dirty_status_byte_marks_its_block_whatever_the_frame_holds(
        self, tmp_path, page
    ):
        """Only the status byte decides: a written frame whose status alone
        becomes 0x02 decodes as erased-dirty, so the scan must find it too,
        in the device's first frame, mid-block and in its final frame."""
        path = tmp_path / "dev.flash"
        with PersistentFlashDevice(path, geometry=GEOM) as dev:
            dev.write_page(page, b"length and crc of a written frame")
        set_status_byte(path, page, 0x02)
        block = page // GEOM.pages_per_block
        with PersistentFlashDevice(path) as dev:
            assert dev.erased_dirty_blocks() == [block]
            assert decoded_dirty_blocks(dev) == [block]

    @pytest.mark.parametrize("status", [0x00, 0x01, 0x03, 0xFF])
    def test_other_status_bytes_never_mark_a_block_dirty(self, tmp_path, status):
        path = tmp_path / "dev.flash"
        with PersistentFlashDevice(path, geometry=GEOM) as dev:
            dev.write_page(9, b"payload")
        set_status_byte(path, 9, status)
        with PersistentFlashDevice(path) as dev:
            assert dev.erased_dirty_blocks() == []
            assert decoded_dirty_blocks(dev) == []


class TestLifecycle:
    def test_close_is_idempotent_and_context_manager_closes(self, tmp_path):
        with make_device(tmp_path) as dev:
            dev.write_page(0, b"x")
        assert dev.closed
        dev.close()  # second close is a no-op
        assert dev.closed

    def test_geometry_mismatch_rejected_on_reopen(self, tmp_path):
        path = tmp_path / "dev.flash"
        with PersistentFlashDevice(path, geometry=GEOM):
            pass
        other = DeviceGeometry(page_size=512, pages_per_block=4, num_blocks=8)
        with pytest.raises(ValueError, match="geometry mismatch"):
            PersistentFlashDevice(path, geometry=other)

    def test_not_a_flash_file_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not a flash device file header....")
        with pytest.raises(ValueError, match="bad magic"):
            PersistentFlashDevice(path)

    def test_no_stray_files_created(self, tmp_path):
        with make_device(tmp_path, name="only.flash") as dev:
            dev.write_page(0, b"x")
            dev.flush()
        assert os.listdir(tmp_path) == ["only.flash"]


class TestFlashLayout:
    def test_default_layout_covers_device_without_overlap(self):
        layout = FlashLayout.default(GEOM)
        assert [p.name for p in layout.partitions] == ["superblock", "checkpoint", "log"]
        layout.validate(GEOM)
        covered = sum(p.num_blocks for p in layout.partitions)
        assert covered == GEOM.num_blocks
        assert layout.partition("superblock").num_blocks == 1

    def test_default_layout_of_standard_geometry(self):
        layout = FlashLayout.default(PERSISTENT_GEOMETRY)
        checkpoint = layout.partition("checkpoint")
        log = layout.partition("log")
        assert checkpoint.num_blocks >= 2
        assert log.num_blocks > checkpoint.num_blocks

    def test_overlapping_partitions_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            FlashLayout(
                partitions=(
                    FlashPartition("a", start_block=0, num_blocks=2),
                    FlashPartition("b", start_block=1, num_blocks=2),
                )
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FlashLayout(
                partitions=(
                    FlashPartition("a", start_block=0, num_blocks=1),
                    FlashPartition("a", start_block=1, num_blocks=1),
                )
            )

    def test_partition_beyond_device_rejected(self):
        layout = FlashLayout(
            partitions=(FlashPartition("big", start_block=0, num_blocks=99),)
        )
        with pytest.raises(ValueError, match="only"):
            layout.validate(GEOM)

    def test_unknown_partition_name_raises(self):
        with pytest.raises(KeyError):
            FlashLayout.default(GEOM).partition("nope")

    def test_too_few_blocks_for_default_layout(self):
        tiny = DeviceGeometry(page_size=256, pages_per_block=4, num_blocks=3)
        with pytest.raises(ValueError, match="at least 4 blocks"):
            FlashLayout.default(tiny)
