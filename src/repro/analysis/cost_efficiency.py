"""Hash operations per second per dollar (§1 and §7.5 of the paper).

The paper's headline economic claim: a CLAM built from ~$400 of commodity
DRAM + SSD sustains roughly 42 lookups/s/$ and 420 inserts/s/$, which is one
to two orders of magnitude better than a RamSan DRAM-SSD (~2.5 ops/s/$) and
far better than disk-based Berkeley-DB.  The arithmetic only needs measured
(or simulated) per-operation latencies plus device prices, both captured
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class DevicePricing:
    """Purchase cost (and optionally power draw) of one hash-table platform."""

    name: str
    cost_dollars: float
    power_watts: float = 0.0

    def __post_init__(self) -> None:
        if self.cost_dollars <= 0:
            raise ValueError("cost_dollars must be positive")


#: Device prices quoted in the paper (2009/2010 dollars).
PAPER_PRICING: Dict[str, DevicePricing] = {
    "clam-intel": DevicePricing("CLAM (4GB DRAM + 80GB Intel SSD)", 400.0, 10.0),
    "clam-transcend": DevicePricing("CLAM (4GB DRAM + 32GB Transcend SSD)", 250.0, 8.0),
    "ramsan-dram-ssd": DevicePricing("RamSan-400 DRAM-SSD", 120_000.0, 650.0),
    "violin-dram": DevicePricing("Violin Memory DRAM appliance", 50_000.0, 400.0),
    "disk-bdb": DevicePricing("Commodity server disk (BDB)", 100.0, 10.0),
}


@dataclass(frozen=True)
class CostEfficiencyEntry:
    """Ops/s/$ for one platform."""

    platform: str
    ops_per_second: float
    cost_dollars: float

    @property
    def ops_per_second_per_dollar(self) -> float:
        """The paper's figure of merit."""
        return self.ops_per_second / self.cost_dollars


def ops_per_second_from_latency(latency_ms: float) -> float:
    """Sustained operations per second implied by a mean per-op latency."""
    if latency_ms <= 0:
        raise ValueError("latency_ms must be positive")
    return 1000.0 / latency_ms


def cost_efficiency_table(
    measured_latencies_ms: Dict[str, float],
    fixed_ops_per_second: Optional[Dict[str, float]] = None,
) -> List[CostEfficiencyEntry]:
    """Build the ops/s/$ comparison table.

    Parameters
    ----------
    measured_latencies_ms:
        Mapping from a :data:`PAPER_PRICING` key to a measured mean
        per-operation latency.
    fixed_ops_per_second:
        Platforms whose throughput is a device specification rather than a
        measured latency (e.g. the RamSan's 300K IOPS).
    """
    entries: List[CostEfficiencyEntry] = []
    for key, latency_ms in measured_latencies_ms.items():
        if key not in PAPER_PRICING:
            raise KeyError(f"no pricing entry for {key!r}")
        entries.append(
            CostEfficiencyEntry(
                platform=PAPER_PRICING[key].name,
                ops_per_second=ops_per_second_from_latency(latency_ms),
                cost_dollars=PAPER_PRICING[key].cost_dollars,
            )
        )
    if fixed_ops_per_second:
        for key, ops in fixed_ops_per_second.items():
            if key not in PAPER_PRICING:
                raise KeyError(f"no pricing entry for {key!r}")
            entries.append(
                CostEfficiencyEntry(
                    platform=PAPER_PRICING[key].name,
                    ops_per_second=ops,
                    cost_dollars=PAPER_PRICING[key].cost_dollars,
                )
            )
    entries.sort(key=lambda entry: entry.ops_per_second_per_dollar, reverse=True)
    return entries
