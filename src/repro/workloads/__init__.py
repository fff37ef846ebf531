"""Workload generation and execution for the evaluation (§7 of the paper).

The paper's micro-benchmarks are sequences of lookups, inserts, updates and
deletes over randomly generated keys, with two knobs:

* the **lookup success rate (LSR)** — controlled by how often a looked-up key
  was previously inserted and is still retained;
* the **operation mix** — the fraction of lookups vs inserts (Table 3) and
  the update rate (Figure 8).

This package provides key generators, workload builders with those knobs,
latency metrics (CDF/CCDF summaries for Figures 6-8) and a runner that
executes a workload against any index exposing the common
``insert``/``lookup``/``update``/``delete`` API (CLAM or any baseline).
"""

from repro.workloads.keygen import (
    KeyGenerator,
    ZipfKeyGenerator,
    fingerprint_for,
)
from repro.workloads.workload import (
    Operation,
    OpKind,
    WorkloadSpec,
    build_lookup_then_insert_workload,
    build_mixed_workload,
    build_update_workload,
    preload_keys_for,
)
from repro.workloads.metrics import LatencySummary, summarize_latencies, cdf_points, ccdf_points
from repro.workloads.runner import (
    HashIndex,
    RunReport,
    WorkloadRunner,
    apply_operation,
)

__all__ = [
    "KeyGenerator",
    "ZipfKeyGenerator",
    "fingerprint_for",
    "Operation",
    "OpKind",
    "WorkloadSpec",
    "build_lookup_then_insert_workload",
    "build_mixed_workload",
    "build_update_workload",
    "preload_keys_for",
    "LatencySummary",
    "summarize_latencies",
    "cdf_points",
    "ccdf_points",
    "RunReport",
    "WorkloadRunner",
    "HashIndex",
    "apply_operation",
]
