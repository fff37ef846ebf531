"""Goldens for four rules that used to be written twice (ISSUE 24).

Each rule below had two bodies at ``38d90af`` — the overwriting page log
(``ContentCache.store`` / ``ChunkStore.append``), the flash erase sequence
(``FlashChip`` / ``PersistentFlashDevice``), the Scenario-1 link pipeline
(``WANOptimizer.run_throughput_test`` / the multi-branch accumulator) — and
has one now.  Every literal here was recorded by running this file at
``38d90af`` (``python tests/test_rules_golden.py`` prints a fresh table), so a
pass says the single definition places, times and fails exactly as both old
bodies did; the single-box throughput literals were re-recorded once since,
when the single-box engine's timing moved on purpose (see
``THROUGHPUT_GOLDENS``).  Regenerate only at the parent of a change that *means* to move a
simulated address, latency or clock.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

import test_wanopt
import test_wanopt_cluster
from repro.core.errors import DeviceFailedError, PowerLossError, TornPageError
from repro.dedup import ChunkStore
from repro.flashsim import (
    GENERIC_FLASH_CHIP_PROFILE,
    INTEL_SSD_PROFILE,
    MAGNETIC_DISK_PROFILE,
    SSD,
    FlashChip,
    FlashChipError,
    IOKind,
    MagneticDisk,
    PageState,
    PersistentFlashDevice,
    SimulationClock,
)
from repro.flashsim.device import DeviceGeometry
from repro.service import FailureEvent
from repro.wanopt import ContentCache


def _sha(value) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()[:16]


# -- (i) The overwriting page log -----------------------------------------------------------

_LOG_GEOMETRY = DeviceGeometry(page_size=512, pages_per_block=8, num_blocks=8)  # 64 pages
_LOG_CHUNKS = 70  # mean 4 pages each: a little over four laps of the device


def _run_page_log(kind: str):
    """Drive one store over >= 3 laps; returns ``(golden tuple, survivors read back)``.

    The survivors are also derived from the write history alone (a chunk is
    live while every page it was written to still belongs to it, and — in the
    cache — while no later write re-stored its fingerprint), so the digest
    cannot freeze a torn read.
    """
    clock = SimulationClock()
    if kind == "content-cache":
        device = MagneticDisk(replace(MAGNETIC_DISK_PROFILE, geometry=_LOG_GEOMETRY), clock)
        store = ContentCache(device)
    else:
        device = SSD(profile=replace(INTEL_SSD_PROFILE, geometry=_LOG_GEOMETRY), clock=clock)
        store = ChunkStore(device)
    rng = random.Random(0x10C)
    writes = []  # (tag, address, pages, payload), in write order
    placed = []
    for number in range(_LOG_CHUNKS):
        size = rng.randint(1, 7 * _LOG_GEOMETRY.page_size)
        payload = bytes([65 + number % 26]) * size
        if kind == "content-cache":
            # Fingerprint 0 comes back every ninth chunk: a re-stored fingerprint.
            tag = b"fp-%d" % (number if number % 9 else 0)
            address, latency = store.store(tag, size, payload)
        else:
            address, latency = store.append(size, payload)
            tag = address
        writes.append((tag, address, -(-size // _LOG_GEOMETRY.page_size), payload))
        placed.append((address, repr(latency)))

    owner = {}
    for number, (_tag, address, pages, _payload) in enumerate(writes):
        for page in range(address, address + pages):
            owner[page] = number
    newest = {tag: number for number, (tag, *_rest) in enumerate(writes)}
    expected = {
        tag: (address, payload)
        for number, (tag, address, pages, payload) in enumerate(writes)
        if newest[tag] == number
        and all(owner[page] == number for page in range(address, address + pages))
    }

    survivors = {}
    for tag in dict.fromkeys(tag for tag, *_rest in writes):
        if kind == "content-cache":
            if store.contains(tag):
                survivors[tag] = (store.address_of(tag), store.read(tag)[0])
            else:
                assert store.read(tag) == (None, 0.0) and store.address_of(tag) is None
        else:
            try:
                survivors[tag] = (tag, store.read(tag)[0])
            except KeyError:
                pass
    assert survivors == expected
    golden = (
        _sha(placed),
        tuple(sorted(address for address, _payload in survivors.values())),
        repr(clock.now_ms),
        device.stats.count(IOKind.WRITE),
    )
    return golden, survivors


PAGE_LOG_GOLDENS = {
    "chunk-store": (
        "96daf4a32e775490",
        (0, 5, 10, 13, 16, 19, 20, 26, 33, 34, 36, 40, 44, 46, 53, 58, 61),
        "8.096607142857144",
        70,
    ),
    # One survivor fewer than the chunk store: address 26 holds an older copy
    # of the re-stored fingerprint, which the cache forgets.
    "content-cache": (
        "3174d837c99e734c",
        (0, 5, 10, 13, 16, 19, 20, 33, 34, 36, 40, 44, 46, 53, 58, 61),
        "2.6123046874999996",
        70,
    ),
}


@pytest.mark.parametrize("kind", sorted(PAGE_LOG_GOLDENS))
def test_page_log_placement_golden(kind):
    """Every address and latency of 70 mixed 1-7-page chunks over a 64-page device."""
    golden, survivors = _run_page_log(kind)
    assert len(survivors) >= 5
    assert golden == PAGE_LOG_GOLDENS[kind]


# -- (ii) The erase sequence ----------------------------------------------------------------

_ERASE_GEOMETRY = DeviceGeometry(page_size=512, pages_per_block=4, num_blocks=4)
_ERASE_SCRIPT_UNITS = 10  # I/O units the script below spends when nothing cuts it short


def _erase_device(kind: str, path):
    """A 4-block device of ``kind``; ``path`` backs the file-backed one."""
    if kind == "chip":
        profile = replace(GENERIC_FLASH_CHIP_PROFILE, geometry=_ERASE_GEOMETRY)
        return FlashChip(profile, SimulationClock(), name="erase-golden")
    return PersistentFlashDevice(
        path, _ERASE_GEOMETRY, clock=SimulationClock(), name="erase-golden"
    )


def _run_erase_scripts(kind: str, directory):
    """The script uncut, then cut at every unit it reaches and at one it does not."""
    runs = []
    for cut_at in (None, *range(1, _ERASE_SCRIPT_UNITS + 2)):
        with _erase_device(kind, directory / f"cut-{cut_at}.flash") as device:
            runs.append(_run_erase_script(device, cut_at))
    return runs


def _run_erase_script(device, cut_at):
    """Program, erase, re-program, read, erase again; a power cut at unit ``cut_at``.

    Returns what the two devices must agree on: per step the result or the
    exception type, then the clock, the I/O statistics, the erase counters and
    the fault mode the run ended in.  The script stops programming at the cut
    (only the chip has dirty bits to trip over afterwards) and goes on to the
    erases, which a dead device refuses at the fault gate — after the bounds
    check, so the out-of-range block is an ``IndexError`` either way.
    """
    page = b"p" * _ERASE_GEOMETRY.page_size
    steps = (
        lambda: device.write_range(0, [page] * 4),  # units 1-4: all of block 0
        lambda: device.write_page(4, b"b" * 100),  # unit 5: first page of block 1
        lambda: device.erase_block(0),  # unit 6
        lambda: device.write_range(0, [page] * 2),  # units 7-8: re-program
        lambda: device.read_page(0)[1],  # unit 9
    )
    erases = (
        lambda: device.erase_block(1),  # unit 10
        lambda: device.erase_block(_ERASE_GEOMETRY.num_blocks),
        lambda: device.block_of(_ERASE_GEOMETRY.pages_per_block + 1),
    )
    if cut_at is not None:
        device.faults.crash_after_n_ios(cut_at)
    outcomes = []
    for step in steps:
        try:
            outcomes.append(repr(step()))
        except PowerLossError:
            outcomes.append("PowerLossError")
            break
    for step in erases:
        try:
            outcomes.append(repr(step()))
        except (PowerLossError, DeviceFailedError, IndexError) as exc:
            outcomes.append(type(exc).__name__)
    return (
        tuple(outcomes),
        repr(device.clock.now_ms),
        sorted(device.stats.snapshot().items()),
        sorted(device.erase_count_per_block.items()),
        device.faults.mode.value,
    )


ERASE_SCRIPT_GOLDEN = "2a101e2f6d939327"


def test_erase_script_golden_on_both_devices(tmp_path):
    """One script, every cut point: the chip and the file-backed device agree, and
    both agree with what each did at ``38d90af``."""
    runs = _run_erase_scripts("chip", tmp_path)
    assert runs == _run_erase_scripts("persistent", tmp_path)
    uncut = runs[0]
    assert uncut[0][-2:] == ("IndexError", "1") and "Error" not in "".join(uncut[0][:-2])
    assert uncut[1] == "4.102294921875" and uncut[3] == [(0, 1), (1, 1)]
    # A countdown longer than the script never fires; every shorter one does.
    assert runs[-1][:4] == uncut[:4]
    assert all("PowerLossError" in run[0] for run in runs[1:-1])
    assert runs[6][4] == "interrupted-erase"
    assert _sha(runs) == ERASE_SCRIPT_GOLDEN


def test_cut_mid_erase_leaves_the_block_unusable_until_it_is_erased_again(tmp_path):
    """The interrupted-erase side effect is the one step the two devices do not share."""
    page = b"p" * _ERASE_GEOMETRY.page_size
    for kind in ("chip", "persistent"):
        with _erase_device(kind, tmp_path / "mid-erase.flash") as device:
            device.write_range(0, [page] * 4)
            device.faults.crash_after_n_ios(1)
            with pytest.raises(PowerLossError):
                device.erase_block(0)
            assert device.erase_count_per_block == {}
            assert device.stats.count(IOKind.ERASE) == 0
            device.heal()
            if kind == "chip":
                # No durable media: the block keeps its contents and stays dirty.
                assert device.read_page(0)[0] == page
                with pytest.raises(FlashChipError):
                    device.write_page(0, page)
            else:
                states = [device.page_state(index) for index in range(8)]
                assert states == [PageState.ERASED_DIRTY] * 4 + [PageState.ERASED] * 4
                with pytest.raises(TornPageError):
                    device.read_page(0)
            device.erase_block(0)
            assert device.erase_count_per_block == {0: 1}
            assert device.read_page(0)[0] == b""
            device.write_page(0, page)
            assert device.read_page(0)[0] == page
            if kind == "persistent":
                assert device.page_state(1) is PageState.ERASED


# -- (iii) The Scenario-1 link pipeline -----------------------------------------------------


def _throughput_fields(result):
    return (
        repr(result.time_with_optimizer_ms),
        repr(result.processing_time_ms),
        repr(result.transmit_time_ms),
        repr(result.time_without_optimizer_ms),
        result.total_compressed_bytes,
    )


def _run_single_box(link_mbps: float):
    optimizer, objects = test_wanopt._clam_optimizer(link_mbps=link_mbps, num_objects=25)
    first = optimizer.run_throughput_test(objects)
    # A second run on the same optimizer starts with the link idle again.
    second = optimizer.run_throughput_test(objects[:5])
    return _throughput_fields(first), _throughput_fields(second), optimizer.link.bytes_sent


# link Mbps -> (the run, a second run of five objects on the same optimizer, link.bytes_sent);
# a run is (time with, processing, transmit, time without, compressed bytes).  Re-recorded
# when the single-box engine moved to the two index round trips per object a branch makes:
# compressed bytes, transmit times and link bytes kept the values recorded at ``38d90af``;
# processing time (one lookup per distinct fingerprint, all before the object's inserts)
# and, at 1,000 Mbps where the engine is the bottleneck, time with the optimizer moved.
THROUGHPUT_GOLDENS = {
    10.0: (
        ("679.3679135416667", "15.052555208333278", "678.7336", "1397.0168", 848417),
        ("0.626599999999998", "0.11779999999998125", "0.6080000000000001", "184.0488", 760),
        849177,
    ),
    100.0: (
        ("68.50767354166666", "15.052555208333278", "67.87336000000002", "139.70168", 848417),
        ("0.12779999999998282", "0.11779999999998125", "0.06080000000000001", "18.40488", 760),
        849177,
    ),
    1000.0: (
        ("16.000699208333277", "15.052555208333278", "6.787336", "13.970168", 848417),
        ("0.1184399999999819", "0.11779999999998125", "0.0060799999999999995", "1.840488", 760),
        849177,
    ),
}


@pytest.mark.parametrize("link_mbps", sorted(THROUGHPUT_GOLDENS))
def test_single_box_throughput_golden(link_mbps):
    """Link-bound at 10 and 100 Mbps, engine-bound at 1,000: both sides of ``max(now, drained)``."""
    assert _run_single_box(link_mbps) == THROUGHPUT_GOLDENS[link_mbps]


_BRANCH_SCHEDULE = (
    FailureEvent(at_request=6, action="fail", shard_id="shard-1"),
    FailureEvent(at_request=14, action="recover"),
)


def _run_branches():
    _topology, result = test_wanopt_cluster.TestFaultInjection()._run(2, list(_BRANCH_SCHEDULE))
    return tuple(
        (branch.branch_id, branch.pass_through_objects, *_throughput_fields(branch))
        for branch in result.branches
    ), tuple(result.fired_events)


BRANCH_GOLDEN = (
    (
        ("branch-0", 0, "66.88092", "1.4717000000000011", "66.74432", "91.37656", 834304),
        (
            "branch-1",
            0,
            "61.80711999999999",
            "1.3436000000000026",
            "61.652319999999996",
            "78.99048",
            770654,
        ),
    ),
    ((6, "fail", "shard-1"), (14, "recover", None)),
)


def test_multi_branch_throughput_golden():
    assert _run_branches() == BRANCH_GOLDEN


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for kind in sorted(PAGE_LOG_GOLDENS):
        print("page log", kind, _run_page_log(kind)[0])
    with tempfile.TemporaryDirectory() as scratch:
        runs = _run_erase_scripts("persistent", Path(scratch))
        print("erase script", _sha(runs))
        for run in runs:
            print("   ", run[0], run[1], run[4])
    for link_mbps in sorted(THROUGHPUT_GOLDENS):
        print("single box", link_mbps, _run_single_box(link_mbps))
    print("branches", _run_branches())
