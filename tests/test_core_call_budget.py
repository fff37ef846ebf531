"""Exact per-operation budgets of the CLAM core.

``benchmarks/bench_hotpath.py`` counts, with ``sys.setprofile``, the Python
frames and C calls between entering and leaving ``CLAM.lookup`` /
``CLAM.insert`` on the end-to-end benchmark's CLAM (16 super tables x 128-item
buffers x 8 incarnations on the Intel SSD), per outcome class, and the blocks
a kept ``LookupResult`` allocates.  The counts are exact — one seeded script,
no clock — so the ceilings here cannot be moved by the host, only by a helper
call, a recomputed constant or a per-record dict coming back onto the path.

The second half checks that what the budget was spent down *around* is still
on the path of a page read: the bounds check, the fault gate, the power-cut
countdown, the CLAM's crash gate, and ``_load_page`` as a call a file-backed
device overrides.
"""

import pytest

from benchmarks.bench_hotpath import (
    C_CALL_BUDGET,
    CALL_BUDGET,
    blocks_ceiling,
    measure_call_budget,
)
from benchmarks.common import count_calls, standard_clam
from repro.core.errors import DeviceFailedError, PowerLossError, TornPageError
from repro.core.hashing import clear_digest_cache
from repro.core.results import ServedFrom
from repro.flashsim.device import DeviceGeometry
from repro.flashsim.persistent import PersistentFlashDevice
from repro.flashsim.stats import IOKind
from repro.workloads.keygen import fingerprint_for


@pytest.fixture(scope="module")
def budget():
    return measure_call_budget()


class TestCallBudget:
    @pytest.mark.parametrize("outcome", sorted(CALL_BUDGET))
    def test_mean_python_frames_within_the_budget(self, budget, outcome):
        assert budget[outcome]["python_frames"] <= CALL_BUDGET[outcome], budget[outcome]

    @pytest.mark.parametrize("outcome", sorted(C_CALL_BUDGET))
    def test_mean_c_calls_within_the_budget(self, budget, outcome):
        # What a page read spends in C no longer depends on how many entries
        # the page holds: a per-entry call in search_page would show here.
        assert budget[outcome]["c_calls"] <= C_CALL_BUDGET[outcome], budget[outcome]

    @pytest.mark.parametrize(
        "outcome", ["lookup_one_read", "lookup_buffer_hit", "lookup_cold_miss"]
    )
    def test_a_class_with_one_code_path_costs_every_sample_the_same(self, budget, outcome):
        row = budget[outcome]
        assert row["python_frames_min"] == row["python_frames_max"] == row["python_frames"]

    def test_the_script_reaches_every_class_it_reports(self, budget):
        reached = {outcome: row["samples"] for outcome, row in budget.items()}
        assert reached["lookup_one_read"] >= 3000
        assert reached["lookup_two_reads"] >= 30
        assert reached["lookup_buffer_hit"] >= 300
        assert reached["lookup_cold_miss"] >= 1900
        assert reached["insert"] >= 1900
        assert reached["insert_flush"] >= 80
        assert reached["lookup_one_read_pool_refilling"] >= 1

    def test_a_read_while_the_clean_pool_refills_takes_the_full_route(self, budget):
        # SSD._read_latency, then _replenish_credit, clock.now_ms and
        # _update_gc_mode: the four frames read_page skips (taking the SSD's
        # steady page cost) only when they would change nothing.
        refilling = budget["lookup_one_read_pool_refilling"]
        assert refilling["python_frames_min"] == refilling["python_frames_max"]
        assert refilling["python_frames_max"] == budget["lookup_one_read"]["python_frames_max"] + 4

    def test_a_second_page_read_costs_two_frames(self, budget):
        # device.read_page and search_page, whether the second read is a
        # second candidate or an overflow probe: the clock charges, the
        # steady latency and the payload lookup are inline.
        one, two = budget["lookup_one_read"], budget["lookup_two_reads"]
        assert two["python_frames_min"] - one["python_frames_max"] == 2
        assert two["python_frames_max"] - one["python_frames_max"] == 2

    def test_a_kept_lookup_result_allocates_three_blocks(self, budget):
        # No __dict__: four blocks each would be a thousand over the ceiling.
        kept = budget["kept_lookup_results"]
        assert kept["samples"] == 1000
        assert 2 * kept["samples"] < kept["allocated_blocks"] <= blocks_ceiling(kept["samples"])


def flash_resident_clam():
    """A standard CLAM with 4,000 keys on it and a key served by one page read."""
    clear_digest_cache()
    clam = standard_clam()
    keys = [fingerprint_for(i, namespace=b"gate") for i in range(4000)]
    for key in keys:
        clam.insert(key, b"value-00")
    clam.clock.advance(50.0)  # idle: the SSD's clean pool refills
    for key in keys:
        result = clam.lookup(key)
        if result.served_from is ServedFrom.INCARNATION and result.flash_reads == 1:
            return clam, key
    raise AssertionError("no key is served by exactly one page read")


class TestTheChecksAreStillOnThePath:
    def test_one_read_lookup_is_within_budget_and_counted_by_the_device(self):
        clam, key = flash_resident_clam()
        reads = clam.device.stats.count(IOKind.READ)
        frames, _c_calls, result = count_calls(clam.lookup, key)
        assert result.value == b"value-00" and result.flash_reads == 1
        assert frames <= CALL_BUDGET["lookup_one_read"]
        assert clam.device.stats.count(IOKind.READ) == reads + 1

    def test_an_armed_power_cut_interrupts_the_read_and_the_crash_gate_closes(self):
        clam, key = flash_resident_clam()
        clam.device.faults.crash_after_n_ios(1)
        reads = clam.device.stats.count(IOKind.READ)
        clock_ms = clam.device.clock.now_ms
        with pytest.raises(PowerLossError):
            clam.lookup(key)
        # The interrupted read was neither charged nor counted.
        assert clam.device.stats.count(IOKind.READ) == reads
        assert clam.device.clock.now_ms - clock_ms < 0.01  # the DRAM-side steps only
        with pytest.raises(DeviceFailedError, match="crash-stopped"):
            clam.lookup(key)  # refused by the CLAM before it touches the buffer
        clam.device.heal()
        assert clam.lookup(key).value == b"value-00"

    def test_a_degraded_device_inflates_the_read_it_serves(self):
        clam, key = flash_resident_clam()
        reads = clam.device.stats.totals[IOKind.READ]
        healthy = clam.lookup(key)
        base_ms = reads.max_latency_ms  # a random page read, the dearest so far
        clam.device.faults.degrade(latency_multiplier=3.0, extra_latency_ms=1.0)
        degraded = clam.lookup(key)  # degraded is not crashed: the gate lets it through
        assert degraded.value == healthy.value
        assert reads.max_latency_ms == pytest.approx(3.0 * base_ms + 1.0)
        assert degraded.latency_ms == pytest.approx(healthy.latency_ms + 2.0 * base_ms + 1.0)
        assert clam.device.faults.degraded_ios == 1

    def test_a_page_past_the_end_of_the_device_is_refused(self):
        clam, _key = flash_resident_clam()
        with pytest.raises(IndexError, match="out of range"):
            clam.device.read_page(clam.device.geometry.total_pages)
        with pytest.raises(IndexError):
            clam.device.read_page(-1)

    def test_a_file_backed_device_serves_the_read_from_its_file(self, tmp_path):
        # PersistentFlashDevice overrides _load_page: a reopened device holds
        # no page in memory and a torn one must raise, so read_page may not
        # inline the base class's dict lookup.
        geometry = DeviceGeometry(page_size=256, pages_per_block=4, num_blocks=8)
        path = tmp_path / "budget.flash"
        device = PersistentFlashDevice(path, geometry=geometry)
        device.write_page(3, b"intact")
        device.faults.crash_after_n_ios(1)
        with pytest.raises(PowerLossError):
            device.write_page(4, b"torn " * 8)
        device.close()
        with PersistentFlashDevice(path) as reopened:
            assert not reopened._pages
            payload, latency = reopened.read_page(3)
            assert payload == b"intact" and latency > 0.0
            assert reopened.read_page(5) == (b"", latency)  # erased: empty, same cost
            with pytest.raises(TornPageError):
                reopened.read_page(4)
            # All three were charged before the payload was looked at.
            assert reopened.stats.count(IOKind.READ) == 3
            assert reopened.stats.total_latency_ms(IOKind.READ) == pytest.approx(3 * latency)
