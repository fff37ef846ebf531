#!/usr/bin/env python3
"""Stdlib stand-in for ``ruff format --check`` where ruff is not installed.

It does not reformat and does not know ruff's style; it catches what a
hand-formatted file most often gets wrong and ruff would refuse: a line over
the configured length (``[tool.ruff] line-length`` in ``pyproject.toml``), a
tab, trailing whitespace, a missing or doubled final newline, and a logical
line whose brackets do not balance (read with :mod:`tokenize`).

With no arguments it checks the paths CI hands to ``ruff format --check``
(read out of ``.github/workflows/ci.yml``, so there is one allowlist) plus
:data:`EXTRA_PATHS`; with arguments, those files and directories instead.
Exit status 1 and one ``path:line: message`` per finding.
"""

from __future__ import annotations

import io
import re
import sys
import tokenize
from pathlib import Path
from typing import Iterator, List, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Files kept clean by this proxy that the ruff allowlist does not name yet:
#: a file joins ruff's list only from a checkout where ruff itself has run.
EXTRA_PATHS = (
    "tools/format_check.py",
    "tests/test_format_proxy.py",
    "tests/test_rules_golden.py",
    "tests/test_wanopt_cluster.py",
    "tests/test_clam.py",
    "tests/test_per_operation_state.py",
    "tests/test_results.py",
    "tests/test_service_golden.py",
    "tests/test_baselines.py",
    "tests/test_bloom.py",
    "tests/test_buffer.py",
    "tests/test_clock.py",
    "tests/test_core_call_budget.py",
    "tests/test_latency.py",
    "tests/test_service_simulator.py",
    "tests/test_supertable.py",
    "tests/test_discard.py",
    "tests/test_bufferhash.py",
    "tests/test_partitioned_device_store.py",
    "tests/test_storage.py",
    "tests/test_multi_device.py",
    "tests/test_hash_once.py",
    "tests/test_policies_end_to_end.py",
    "tests/test_sliced_bloom.py",
    "tests/test_flush_filter.py",
    "tests/test_checkpoint_golden.py",
    "tests/bloom_reference.py",
    "tests/test_crash_recovery.py",
    "tests/test_config.py",
    "tests/test_chunk_cache.py",
    "tests/test_wanopt.py",
    "tests/test_integration.py",
    "tests/test_fingerprint_index_conformance.py",
    "benchmarks/common.py",
    "benchmarks/bench_hotpath.py",
    "benchmarks/bench_recovery.py",
    "src/repro/baselines/disk_hash.py",
    "src/repro/baselines/dram_hash.py",
    "src/repro/core/clam.py",
    "src/repro/core/storage.py",
    "src/repro/core/supertable.py",
    "src/repro/core/recovery.py",
    "src/repro/core/results.py",
    "src/repro/core/sliced_bloom.py",
    "src/repro/core/config.py",
    "src/repro/core/durable.py",
    "src/repro/core/incarnation.py",
    "src/repro/flashsim/clock.py",
    "src/repro/flashsim/device.py",
    "src/repro/flashsim/disk.py",
    "src/repro/flashsim/flash_chip.py",
    "src/repro/flashsim/persistent.py",
    "src/repro/wanopt/cache.py",
    "src/repro/wanopt/engine.py",
    "src/repro/wanopt/network.py",
    "src/repro/wanopt/optimizer.py",
    "src/repro/wanopt/traces.py",
    "src/repro/dedup/store.py",
    "src/repro/dedup/index.py",
    "src/repro/__init__.py",
    "src/repro/analysis/cost_efficiency.py",
    "src/repro/analysis/tuning.py",
    "src/repro/baselines/__init__.py",
    "src/repro/core/__init__.py",
    "src/repro/core/buffer.py",
    "src/repro/dedup/merge.py",
    "src/repro/flashsim/__init__.py",
    "src/repro/flashsim/latency.py",
    "src/repro/flashsim/stats.py",
    "src/repro/workloads/__init__.py",
    "src/repro/workloads/keygen.py",
    "src/repro/workloads/metrics.py",
    "src/repro/workloads/runner.py",
    "src/repro/telemetry/__init__.py",
    "src/repro/telemetry/registry.py",
    "tools/surface.py",
    "tests/conftest.py",
    "tests/test_metrics.py",
    "tests/test_stats.py",
    "tests/test_surface.py",
    "tests/test_telemetry.py",
    "tests/test_service_router.py",
    "tests/test_examples.py",
    "tests/test_moved_fraction_golden.py",
    "examples/sharded_cluster.py",
    "setup.py",
)

_OPENERS = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = frozenset(_OPENERS.values())


def line_length_limit() -> int:
    """``[tool.ruff] line-length`` of the repository's ``pyproject.toml``."""
    text = (REPO_ROOT / "pyproject.toml").read_text()
    return int(re.search(r"^line-length\s*=\s*(\d+)", text, re.MULTILINE).group(1))


def ruff_allowlist() -> List[str]:
    """The paths CI's lint job passes to ``ruff format --check``."""
    lines = (REPO_ROOT / ".github/workflows/ci.yml").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == "ruff format --check")
    paths = []
    for line in lines[start + 1 :]:
        if not line.strip():
            break
        paths.append(line.strip())
    return paths


def python_files(paths: Sequence[str]) -> Iterator[Path]:
    for name in paths:
        path = REPO_ROOT / name
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def check_text(text: str, limit: int) -> List[str]:
    """Findings for one file's contents, as ``line: message`` strings."""
    findings = []
    for number, line in enumerate(text.split("\n"), start=1):
        if len(line) > limit:
            findings.append(f"{number}: line is {len(line)} characters (limit {limit})")
        if "\t" in line:
            findings.append(f"{number}: tab character")
        if line != line.rstrip():
            findings.append(f"{number}: trailing whitespace")
    if not text.endswith("\n") or text.endswith("\n\n"):
        findings.append(f"{text.count(chr(10)) + 1}: file must end with exactly one newline")
    stack: List[str] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.OP and token.string in _OPENERS:
                stack.append(_OPENERS[token.string])
            elif token.type == tokenize.OP and token.string in _CLOSERS:
                if not stack or stack.pop() != token.string:
                    findings.append(f"{token.start[0]}: unbalanced {token.string!r}")
                    break
    except (tokenize.TokenError, IndentationError) as exc:
        findings.append(f"{exc.args[1][0]}: {exc.args[0]}")
    return findings


def main(argv: Sequence[str]) -> int:
    paths = list(argv) or ruff_allowlist() + list(EXTRA_PATHS)
    limit = line_length_limit()
    failed = 0
    for path in python_files(paths):
        for finding in check_text(path.read_text(), limit):
            print(f"{path.relative_to(REPO_ROOT)}:{finding}")
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
