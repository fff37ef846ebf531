"""repro: reproduction of "Cheap and Large CAMs for High Performance
Data-Intensive Networked Systems" (BufferHash / CLAM, NSDI 2010).

Subpackages
-----------
``repro.core``
    BufferHash and the CLAM facade (the paper's contribution).
``repro.flashsim``
    Simulated flash chips, SSDs, magnetic disks and DRAM.
``repro.baselines``
    The Berkeley-DB-style external hash index and the all-DRAM hash table.
``repro.analysis``
    The paper's §6 analytical cost models and parameter tuning.
``repro.workloads``
    Key/workload generators and the workload runner used by the evaluation.
``repro.service``
    Sharded CLAM service layer: consistent-hash routing, batched execution,
    a cluster facade behind the single-index API, and a multi-client
    closed-loop traffic simulator.
``repro.wanopt``
    The WAN optimizer application (§8): chunking, fingerprint index, link model.
``repro.dedup``
    Data-deduplication index and index-merge experiment (§3).
``repro.directory``
    Content-name resolution directory backed by a CLAM (§3).
``repro.telemetry``
    Unified telemetry plane: metrics registry (mergeable latency
    histograms), span tracing on the simulated clocks, structured event
    log, JSON/Prometheus exporters and the snapshot schema validator.
"""

from repro import (
    analysis,
    baselines,
    core,
    dedup,
    directory,
    flashsim,
    service,
    telemetry,
    wanopt,
    workloads,
)

__version__ = "1.7.0"

__all__ = [
    "__version__",
    "analysis",
    "baselines",
    "core",
    "dedup",
    "directory",
    "flashsim",
    "service",
    "telemetry",
    "wanopt",
    "workloads",
]
