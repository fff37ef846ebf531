"""Shared fixtures for the test suite."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import CLAM, CLAMConfig
from repro.flashsim import (
    FlashChip,
    MagneticDisk,
    SSD,
    SimulationClock,
    INTEL_SSD_PROFILE,
    TRANSCEND_SSD_PROFILE,
)
from repro.flashsim.device import DeviceGeometry
from repro.service import wire
from repro.workloads.workload import OpKind


def shard_op(shard, kind: OpKind, key, value: bytes = b""):
    """One operation on one shard of a cluster, sent the way the cluster
    sends it: a one-operation sub-batch through ``send_batch`` /
    ``recv_batch``.  A device failure the shard reports raises
    :class:`~repro.core.errors.DeviceFailedError`."""
    shard.send_batch([(kind, key, value)])
    results, error_code, message, _busy_ms = shard.recv_batch()
    wire.raise_for_code(error_code, f"shard {shard.shard_id}: {message}")
    return results[0]


@pytest.fixture
def clock() -> SimulationClock:
    """A fresh simulation clock."""
    return SimulationClock()


@pytest.fixture
def intel_ssd(clock: SimulationClock) -> SSD:
    """An Intel-profile SSD sharing the test clock."""
    return SSD(profile=INTEL_SSD_PROFILE, clock=clock)


@pytest.fixture
def small_ssd(clock: SimulationClock) -> SSD:
    """An Intel-profile SSD of 4,096 pages, for tests that fill or wrap a
    whole device: doing that to the default 2M-page geometry takes millions
    of page writes and exercises nothing more."""
    geometry = DeviceGeometry(page_size=512, pages_per_block=64, num_blocks=64)
    return SSD(profile=replace(INTEL_SSD_PROFILE, geometry=geometry), clock=clock)


@pytest.fixture
def transcend_ssd(clock: SimulationClock) -> SSD:
    """A Transcend-profile SSD sharing the test clock."""
    return SSD(profile=TRANSCEND_SSD_PROFILE, clock=clock)


@pytest.fixture
def disk(clock: SimulationClock) -> MagneticDisk:
    """A magnetic disk sharing the test clock."""
    return MagneticDisk(clock=clock)


@pytest.fixture
def flash_chip(clock: SimulationClock) -> FlashChip:
    """A raw flash chip sharing the test clock."""
    return FlashChip(clock=clock)


@pytest.fixture
def small_config() -> CLAMConfig:
    """A small CLAM configuration that flushes and evicts quickly in tests."""
    return CLAMConfig.scaled(
        num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4
    )


@pytest.fixture
def small_clam(small_config: CLAMConfig) -> CLAM:
    """A small CLAM on an Intel-profile SSD."""
    return CLAM(small_config, storage="intel-ssd")
