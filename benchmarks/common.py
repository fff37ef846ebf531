"""Shared helpers for the benchmark harness (table printing, JSON emission,
standard setups, telemetry dumps)."""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.core import CLAM, CLAMConfig
from repro.service import ClusterService
from repro.telemetry import write_snapshot

#: Repository root (parent of this ``benchmarks`` package); machine-readable
#: benchmark results land here as ``BENCH_<name>.json``.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Version of the JSON envelope written by :func:`write_bench_json`.
BENCH_SCHEMA_VERSION = 1

#: When this module was imported — the default origin for a benchmark's
#: ``elapsed_seconds`` (importing ``benchmarks.common`` is the first thing
#: every benchmark CLI does, so import-to-write spans the whole run).
_IMPORT_MONOTONIC = time.monotonic()


def write_bench_json(
    name: str,
    payload: Dict,
    quick: bool = False,
    directory: Optional[Path] = None,
    elapsed_seconds: Optional[float] = None,
    telemetry: Optional[Dict] = None,
) -> Path:
    """Write ``BENCH_<name>.json`` — ``BENCH_<name>_quick.json`` for a
    ``--quick`` run — and return its path.

    The machine-readable counterpart of :func:`print_table`: each benchmark
    dumps its headline numbers into a stable envelope (benchmark name, schema
    version, interpreter version, then the benchmark's own payload) at the
    repository root, so successive PRs accumulate a perf trajectory that
    tooling can diff without scraping stdout.  ``BENCH_<name>.json`` is
    committed evidence (and, for the ratcheted benchmarks, the baseline
    ``benchmarks/ratchet.py`` compares against), so a benchmark passes its
    ``--quick`` flag through and a reduced smoke run lands in the gitignored
    ``_quick`` file beside it instead of overwriting the full-run numbers.

    The envelope records how long the run took — ``elapsed_seconds`` (pass
    the benchmark's own measurement, or let it default to time since this
    module was imported) — so BENCH files from different runs are comparable
    on cost, not just on results.  Two timestamps accompany it:
    ``written_at_unix`` (wall clock, meaningful across machines and reboots)
    and ``monotonic_time_s`` (the raw monotonic reading, ordering-only and
    valid within one boot).  All keys are additive: older files simply lack
    them.

    ``telemetry`` embeds a telemetry snapshot envelope (see
    :func:`repro.telemetry.build_snapshot`) under the additive ``telemetry``
    key — benchmarks pass a compact snapshot (``include_buckets=False``) so
    the per-shard percentile tables land in the committed BENCH files without
    the long bucket arrays (those go to ``--telemetry-out``).
    """
    root = Path(directory) if directory is not None else REPO_ROOT
    if quick:
        name += "_quick"
    path = root / f"BENCH_{name}.json"
    now = time.monotonic()
    record = {
        "bench": name,
        "schema_version": BENCH_SCHEMA_VERSION,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "elapsed_seconds": round(
            elapsed_seconds if elapsed_seconds is not None else now - _IMPORT_MONOTONIC, 3
        ),
        "written_at_unix": round(time.time(), 3),
        "monotonic_time_s": round(now, 3),
    }
    record.update(payload)
    if telemetry is not None:
        record["telemetry"] = telemetry
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def count_calls(call, *args, stop_below=None) -> Tuple[int, int, object]:
    """``(Python frames entered, C functions called, result)`` of ``call(*args)``.

    Counted with ``sys.setprofile``: exact, so a slow or noisy host cannot
    move them, and a helper call or per-key object creeping back into a hot
    loop shows as a whole number.  ``call``'s own frame is the first one
    counted (when it is a Python function).  With ``stop_below`` (a code
    object) a frame running that code is counted and nothing beneath it is.
    """
    frames = c_calls = below = 0

    def profiler(frame, event, _arg):
        nonlocal frames, c_calls, below
        if below:  # depth under (and including) a stop_below frame
            if event == "call":
                below += 1
            elif event == "return":
                below -= 1
        elif event == "call":
            frames += 1
            if frame.f_code is stop_below:
                below = 1
        elif event == "c_call":
            c_calls += 1

    collecting = gc.isenabled()
    gc.disable()  # a collection's finalizers would run, and be counted, inside the call
    sys.setprofile(profiler)
    try:
        result = call(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return frames, c_calls - 1, result  # less the closing sys.setprofile itself


def add_telemetry_arg(parser: argparse.ArgumentParser) -> None:
    """Add the ``--telemetry-out PATH`` flag every bench CLI shares."""
    parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        default=None,
        help=(
            "dump the full telemetry snapshot (registry with bucket arrays, "
            "per-shard percentile tables, event log, span trees when traced) "
            "as JSON to PATH, alongside the BENCH_*.json output"
        ),
    )


def without_event_log(snapshot: Dict) -> Tuple[Dict, Dict[str, int]]:
    """``(snapshot with an empty event log, the log's event counts by kind)``.

    What a bench whose event log runs to hundreds of entries embeds in its
    committed BENCH file: the snapshot stays schema-valid, the payload carries
    the counts as ``event_counts``, the full log goes to ``--telemetry-out``.
    """
    counts = Counter(event["kind"] for event in snapshot["events"])
    return {**snapshot, "events": []}, dict(sorted(counts.items()))


def dump_telemetry(path: Optional[str], snapshot: Optional[Dict]) -> Optional[Path]:
    """Honour ``--telemetry-out``: write ``snapshot`` to ``path`` if both given."""
    if path is None or snapshot is None:
        return None
    written = write_snapshot(path, snapshot)
    print(f"telemetry snapshot -> {written}")
    return written


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print a fixed-width table resembling the paper's tables/figure series."""
    rows = [tuple(str(_format(cell)) for cell in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers))
    print()
    print(f"== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    print()


def _format(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.1f}"
        if abs(value) >= 1:
            return f"{value:.3f}"
        return f"{value:.5f}"
    return str(value)


#: Standard scaled CLAM configuration used by the measured benchmarks.  It
#: keeps the paper's ratios (50 % buffer utilisation, 16 bytes/entry, 16 bits
#: of Bloom filter per entry, 8-16 incarnations per super table) at a size a
#: pure-Python run completes in seconds.
def standard_config(**overrides) -> CLAMConfig:
    defaults = dict(
        num_super_tables=16,
        buffer_capacity_items=128,
        incarnations_per_table=8,
    )
    defaults.update(overrides)
    return CLAMConfig.scaled(**defaults)


def standard_clam(storage: str = "intel-ssd", **config_overrides) -> CLAM:
    """A CLAM on the named storage profile with the standard scaled config."""
    return CLAM(standard_config(**config_overrides), storage=storage)


def standard_cluster(
    num_shards: int = 4, storage: str = "intel-ssd", **config_overrides
) -> ClusterService:
    """A sharded cluster whose shards use the standard scaled config."""
    return ClusterService(
        num_shards=num_shards,
        config=standard_config(**config_overrides),
        storage=storage,
    )


def standard_replicated_cluster(
    num_shards: int = 4,
    replication_factor: int = 2,
    storage: str = "intel-ssd",
    **config_overrides,
) -> ClusterService:
    """A replicated cluster for the failover experiments."""
    return ClusterService(
        num_shards=num_shards,
        config=standard_config(**config_overrides),
        storage=storage,
        replication_factor=replication_factor,
    )


def retention_window(config: CLAMConfig) -> int:
    """Recency window sized to the CLAM's retention so workload hits target
    keys that are mostly on flash (matching the paper's steady-state tests)."""
    incarnations = config.incarnations_per_table or 8
    return int(config.total_items_capacity(incarnations) * 0.8)
