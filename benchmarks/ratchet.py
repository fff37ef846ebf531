"""Shared regression ratchet for the benchmark suite.

Every benchmark that commits a ``BENCH_<name>.json`` can ratchet a fresh
``--quick`` run against it: the committed file freezes the contract, the
fresh run must stay within per-metric tolerances, and CI fails on any
violation.  This module is the one place that comparison logic lives —
``bench_chunking``'s speedup floor, ``bench_hotpath``'s same-run telemetry
A/B and ``bench_rebalance``'s zero-lost-keys/availability contract all call
the same primitives.

Two kinds of checks:

* :func:`assert_fraction` — the in-process primitive: ``fresh`` must be at
  least ``floor`` times ``committed``.  Both numbers should come from the
  same process/machine (a speedup ratio, an A/B pair), which is what makes
  the check immune to runner speed.
* :class:`RatchetSpec` + :func:`check_spec` — the file-level ratchet: a
  declarative list of :class:`Metric` rules compared between a fresh
  ``BENCH_<fresh>.json`` and the committed ``BENCH_<committed>.json``.  Only
  machine- and workload-size-invariant metrics belong here (availability,
  zero-loss counters, completion flags, ratios) — quick runs are smaller
  than committed full runs, so absolute throughput never qualifies.

Run as a CLI (``python benchmarks/ratchet.py [name ...]``) it checks every
registered spec whose files are present, printing one line per metric; any
violation exits non-zero.  CI invokes it right after the quick benchmark
smoke, so the fresh files are in place.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.common import REPO_ROOT


class RatchetError(AssertionError):
    """A fresh benchmark run violated a committed ratchet contract."""


def assert_fraction(label: str, fresh: float, committed: float, floor: float) -> Dict:
    """Require ``fresh >= floor * committed``; returns the check record.

    The workhorse behind every "within X% of the baseline" rule.  ``floor``
    above 1 expresses "must not exceed" contracts by swapping the operands at
    the call site instead of adding a second primitive.
    """
    bound = committed * floor
    if fresh < bound:
        raise RatchetError(
            f"{label}: fresh {fresh:.4g} below {floor:.0%} of committed "
            f"{committed:.4g} (floor {bound:.4g})"
        )
    return {
        "label": label,
        "fresh": fresh,
        "committed": committed,
        "floor": bound,
        "ok": True,
    }


def resolve(payload: Dict, dotted: str):
    """Walk a dotted path (``"churn.availability"``) into a JSON payload."""
    node = payload
    for part in dotted.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        elif isinstance(node, dict):
            if part not in node:
                raise RatchetError(f"metric path {dotted!r} missing at {part!r}")
            node = node[part]
        else:
            raise RatchetError(f"metric path {dotted!r} hit a leaf at {part!r}")
    return node


@dataclass(frozen=True)
class Metric:
    """One ratchet rule over a dotted path present in both payloads.

    ``mode`` is one of:

    * ``"min-fraction"`` — fresh >= tolerance * committed (ratios, rates).
    * ``"max-fraction"`` — fresh <= tolerance * committed (error counts that
      may legitimately be zero on both sides are better served by exact).
    * ``"min-value"`` — fresh >= tolerance, ignoring the committed value (an
      absolute floor the committed file also had to meet).
    * ``"max-value"`` — fresh <= tolerance (absolute ceiling, e.g. 0 lost
      keys).
    * ``"exact"`` — fresh == committed (counts fixed by the workload shape).
    """

    key: str
    mode: str
    tolerance: float = 1.0

    _MODES = ("min-fraction", "max-fraction", "min-value", "max-value", "exact")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise ValueError(f"mode must be one of {self._MODES}, got {self.mode!r}")

    def check(self, spec_name: str, fresh_payload: Dict, committed_payload: Dict) -> Dict:
        fresh = resolve(fresh_payload, self.key)
        committed = resolve(committed_payload, self.key)
        label = f"{spec_name}:{self.key}"
        if self.mode == "min-fraction":
            return assert_fraction(label, fresh, committed, self.tolerance)
        if self.mode == "max-fraction":
            bound = committed * self.tolerance
            if fresh > bound:
                raise RatchetError(
                    f"{label}: fresh {fresh:.4g} above {self.tolerance:.0%} of "
                    f"committed {committed:.4g} (ceiling {bound:.4g})"
                )
        elif self.mode == "min-value":
            if fresh < self.tolerance:
                raise RatchetError(
                    f"{label}: fresh {fresh:.4g} below absolute floor {self.tolerance:.4g}"
                )
        elif self.mode == "max-value":
            if fresh > self.tolerance:
                raise RatchetError(
                    f"{label}: fresh {fresh:.4g} above absolute ceiling {self.tolerance:.4g}"
                )
        else:  # exact
            if fresh != committed:
                raise RatchetError(
                    f"{label}: fresh {fresh!r} differs from committed {committed!r}"
                )
        return {
            "label": label,
            "fresh": fresh,
            "committed": committed,
            "mode": self.mode,
            "ok": True,
        }


@dataclass(frozen=True)
class RatchetSpec:
    """A fresh-vs-committed BENCH file comparison for one benchmark."""

    name: str
    fresh: str
    committed: str
    metrics: Tuple[Metric, ...]

    def fresh_path(self):
        return REPO_ROOT / f"BENCH_{self.fresh}.json"

    def committed_path(self):
        return REPO_ROOT / f"BENCH_{self.committed}.json"


#: File-level ratchets the CLI knows about.  Purely in-process ratchets
#: (hotpath's same-run telemetry A/B, chunking's per-row speedup floors) use
#: :func:`assert_fraction` directly and are not listed here.
REGISTRY: Dict[str, RatchetSpec] = {
    "hotpath": RatchetSpec(
        name="hotpath",
        fresh="hotpath_quick",
        committed="hotpath",
        metrics=(
            # Same-run ratios of the cold-key loop (3 x the digest cache's
            # capacity in distinct keys), so runner speed cancels out.  An
            # eviction that is not O(1) (popping the first key of a plain dict
            # cost ~30 us at the default capacity) halves both.  The evicting
            # part over the cache-filling part of the loop stays within 0.8-1.05
            # on a shared host; the loop over the hotpath rate moves by a third
            # either way between runs, hence its looser floor.
            Metric("cache_overflow.evicting_over_filling", "min-fraction", 0.7),
            Metric("cache_overflow.overflow_over_hotpath", "min-fraction", 0.6),
            Metric("cache_overflow.digest_cache_capacity", "exact"),
            # Same-run again: six single-seed FNV passes over one fused
            # traversal of the same keys (3.5-4.5 here; 1.0 would mean the
            # CLAM words stopped sharing a traversal), and key traversals per
            # operation when a worker is sent a frame it has already served
            # (0: decoding interns keys in the worker's digest cache).
            Metric("hash_once.cold_key_fused_speedup", "min-value", 1.5),
            Metric("hash_once.wire_repeat_traversals_per_op", "exact"),
            Metric("hash_once.wire_repeat_traversals_per_op", "max-value", 0),
            # Exact sys.setprofile counts of one seeded script (same in quick
            # and full runs): the committed mean Python frames per CLAM
            # operation of each outcome class is a ceiling, and the blocks
            # 1,000 kept lookup results allocate may not grow by a block per
            # hundred results.
            Metric("call_budget.lookup_one_read.python_frames", "max-fraction"),
            Metric("call_budget.lookup_two_reads.python_frames", "max-fraction"),
            Metric("call_budget.lookup_buffer_hit.python_frames", "max-fraction"),
            Metric("call_budget.lookup_cold_miss.python_frames", "max-fraction"),
            Metric("call_budget.insert.python_frames", "max-fraction"),
            Metric("call_budget.insert_flush.python_frames", "max-fraction"),
            Metric("call_budget.kept_lookup_results.allocated_blocks", "max-fraction", 1.003),
            # The same script's C calls where they used to grow with the
            # entries on a page, and what one search of a uniform page makes
            # at 8 entries and at 128 (len and one find: the same two).
            Metric("call_budget.lookup_one_read.c_calls", "max-fraction"),
            Metric("call_budget.lookup_two_reads.c_calls", "max-fraction"),
            Metric("call_budget.insert_flush.c_calls", "max-fraction"),
            Metric("page_search.uniform_8.hit_c_calls", "max-fraction"),
            Metric("page_search.uniform_128.hit_c_calls", "max-fraction"),
        ),
    ),
    "rebalance": RatchetSpec(
        name="rebalance",
        fresh="rebalance_quick",
        committed="rebalance",
        metrics=(
            # Zero lost keys is the contract, not a tolerance.
            Metric("churn.lost_keys", "max-value", 0),
            Metric("churn.lost_keys", "exact"),
            # Availability through the 4→6→3 churn: the committed file had to
            # clear 0.99; a fresh quick run must stay within 1% of it *and*
            # above the same absolute bar.
            Metric("churn.availability", "min-fraction", 0.99),
            Metric("churn.availability", "min-value", 0.99),
            # The scripted churn always performs the same membership changes.
            Metric("churn.migrations_completed", "exact"),
            Metric("churn.final_shards", "exact"),
            # Every migration must have been a genuine online move, streamed
            # in bounded steps interleaved with the traffic loop.
            Metric("churn.migration_steps", "min-value", 1),
        ),
    ),
    "recovery": RatchetSpec(
        name="recovery",
        fresh="recovery_quick",
        committed="recovery",
        metrics=(
            # The durability contract: no acknowledged write lost to a power
            # cut, to a shard reopened in place, or to a parent restarted
            # before a failure (recovery scans the survivors, not a list the
            # parent kept).  Zero is the contract, not a tolerance.
            Metric("crash_matrix.acked_keys_lost", "max-value", 0),
            Metric("crash_matrix.acked_keys_lost", "exact"),
            Metric("cluster_reopen.keys_lost", "max-value", 0),
            Metric("cluster_reopen.keys_lost", "exact"),
            Metric("parent_restart.unreadable_after_second_crash", "max-value", 0),
            Metric("parent_restart.unreadable_after_second_crash", "exact"),
            # A restarted parent still finds the dead shard's keys to move.
            Metric("parent_restart.keys_affected", "min-value", 1),
        ),
    ),
    "parallel_cluster": RatchetSpec(
        name="parallel_cluster",
        fresh="parallel_cluster_quick",
        committed="parallel_cluster",
        metrics=(
            # The bit-identical contract: process mode must reproduce the
            # in-process deployment's results, counters and clocks exactly.
            # Parity runs at a fixed size in quick and full modes, so these
            # are workload-shape constants, not throughput numbers.
            Metric("parity.results_identical", "exact"),
            Metric("parity.results_identical", "min-value", 1),
            Metric("parity.mismatches", "max-value", 0),
            Metric("parity.counters_identical", "min-value", 1),
            Metric("parity.clock_identical", "min-value", 1),
            Metric("parity.telemetry_identical", "min-value", 1),
            Metric("parity.operations", "exact"),
            # The worker-kill drill at RF=2: acknowledged writes survive a
            # SIGKILL, the supervisor notices, and the restarted worker
            # rejoins with its hint backlog replayed.
            Metric("drill.lost_keys_while_down", "max-value", 0),
            Metric("drill.lost_keys_after_restart", "max-value", 0),
            Metric("drill.supervisor_detected", "min-value", 1),
            Metric("drill.worker_restarted", "min-value", 1),
            Metric("drill.events_seen", "min-value", 1),
            Metric("drill.seeded_keys", "exact"),
            # The deployment shape itself is part of the contract.
            Metric("spec.worker_counts", "exact"),
            Metric("spec.parity_replication_factor", "exact"),
            # The parent's share of the CPU an operation costs, on the
            # 2-worker wanopt row: a ratio of two CPU times of one run, so
            # runner speed cannot move it — a per-key object creeping back
            # into the routing loop does.
            Metric("scaling.1.rows.1.parent_share", "max-fraction", 1.25),
        ),
    ),
    "chaos": RatchetSpec(
        name="chaos",
        fresh="chaos_quick",
        committed="chaos",
        metrics=(
            # The headline contract: a randomized fault schedule at RF=2
            # costs latency, never acknowledged data.
            Metric("chaos.lost_acked_writes", "max-value", 0),
            Metric("chaos.lost_acked_writes", "exact"),
            Metric("chaos.availability", "min-fraction", 0.99),
            Metric("chaos.availability", "min-value", 0.99),
            # Chaos must actually fire for the run to mean anything, and the
            # deadline/retry budget must bound every single-key operation.
            Metric("chaos.injected_faults", "min-value", 1),
            Metric("chaos.max_op_latency_ms", "max-value", 2_500.0),
            # The stall drill: hedges reroute around a frozen worker without
            # declaring it dead; the deadline path then opens the circuit,
            # and nothing is lost across the supervisor restart.
            Metric("stall.hedge_fired", "min-value", 1),
            Metric("stall.victim_down_during_hedge", "max-value", 0),
            Metric("stall.workers_stalled", "min-value", 1),
            Metric("stall.victim_down_after_deadline", "min-value", 1),
            Metric("stall.lost_keys", "max-value", 0),
            Metric("stall.seeded_keys", "exact"),
            # Chaos off, the resilience machinery must be bit-invisible.
            Metric("parity.results_identical", "min-value", 1),
            Metric("parity.mismatches", "max-value", 0),
            Metric("parity.counters_identical", "min-value", 1),
            Metric("parity.clock_identical", "min-value", 1),
            Metric("parity.rpc_events_absent", "min-value", 1),
            Metric("parity.operations", "exact"),
            # The resilience budget itself is part of the contract.
            Metric("spec.replication_factor", "exact"),
            Metric("spec.request_deadline_ms", "exact"),
            Metric("spec.retry_limit", "exact"),
            Metric("spec.hedge_delay_ms", "exact"),
        ),
    ),
}


def check_spec(spec: RatchetSpec) -> List[Dict]:
    """Run every metric of one spec; raises :class:`RatchetError` on failure."""
    fresh_path, committed_path = spec.fresh_path(), spec.committed_path()
    if not committed_path.exists():
        return []  # nothing committed yet: first run establishes the baseline
    if not fresh_path.exists():
        raise RatchetError(
            f"{spec.name}: fresh file {fresh_path.name} missing — run the "
            f"benchmark with --quick before ratcheting"
        )
    fresh_payload = json.loads(fresh_path.read_text())
    committed_payload = json.loads(committed_path.read_text())
    return [
        metric.check(spec.name, fresh_payload, committed_payload) for metric in spec.metrics
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "names",
        nargs="*",
        help="registered spec names to check (default: every spec)",
    )
    args = parser.parse_args(argv)
    names = args.names or sorted(REGISTRY)
    failures = 0
    for name in names:
        if name not in REGISTRY:
            print(f"ratchet: unknown spec {name!r} (known: {sorted(REGISTRY)})")
            return 2
        spec = REGISTRY[name]
        try:
            checks = check_spec(spec)
        except RatchetError as error:
            print(f"FAIL {error}")
            failures += 1
            continue
        if not checks:
            print(f"skip {name}: no committed {spec.committed_path().name} yet")
            continue
        for check in checks:
            print(
                f"  ok {check['label']}: fresh={check['fresh']!r} "
                f"committed={check['committed']!r}"
            )
        print(f"PASS {name}: {len(checks)} metric checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
