"""Smoke tests of the end-to-end benchmark: fast, tiny counts, no timing claims."""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from benchmarks.e2e.harness import END_TO_END, percentile
from benchmarks.e2e.layers import PER_LAYER
from benchmarks.e2e.streams import WORKLOADS, make_stream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _head(workload, seed):
    """The first objects of a stream, reduced to comparable values."""
    head = []
    for item in islice(make_stream(workload, seed, smoke=True), 6):
        if workload.payload:
            head.append(item)
        else:
            head.append((item.object_id, [(c.fingerprint, c.size) for c in item.chunks]))
    return head


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda workload: workload.name)
def test_stream_is_a_function_of_the_seed(workload):
    assert _head(workload, 7) == _head(workload, 7)
    assert _head(workload, 7) != _head(workload, 8)


def test_percentile_interpolates_linearly():
    assert percentile([4.0], 0.9) == 4.0
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
    assert percentile([0.0, 10.0], 0.9) == pytest.approx(9.0)
    assert percentile(list(range(11)), 0.9) == pytest.approx(9.0)
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_benchmark_json_declares_the_metrics_the_code_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == [w.name for w in WORKLOADS]
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == list(PER_LAYER)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]


#: One smoke run per workload; the traced pass goes to the two workloads with
#: a reference variant of their own (telemetry on, in-process twin).
TRACED = {"clam_redundant": 1, "clam_fresh": 0, "wan_payload_inproc": 0, "wan_rpc_2w": 1}


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda workload: workload.name)
def test_smoke_run_reports_every_declared_metric(workload):
    trace = TRACED[workload.name]
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload.name,
            "--smoke",
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "SMOKE RUN" in done.stdout
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0 and report["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in report["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in report["metrics"].values())
