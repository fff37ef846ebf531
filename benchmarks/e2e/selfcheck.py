"""``--selfcheck N``: does the benchmark agree with itself on identical code?

Runs two interleaved sets (A, B) of N untraced runs per workload, each a
fresh interpreter, run ``i`` of both sets on seed ``DEFAULT_SEED + i`` (the
acceptance check the benchmark is held to draws a new seed for every run, so
this one does too), and applies that check's rule to every end-to-end metric,
``setup_s`` included: the spread of a set (interquartile distance over its
median) must stay within the metric's bound, set B's median may not be worse
than set A's by more than the bound, and the metrics that are functions of
the seed alone must be bit-equal between the two runs of every seed.  Below
each table it reports what the host did: the range of ``bench.host_slowness``
and the log-log slope of the measured object time on it, to be held against
the workload's ``host_sensitivity``; the last column is the spread of the same
metric as measured, before scaling to the reference host speed.  The report
is Markdown; ``REPEATABILITY.md`` is one such report.
"""

from __future__ import annotations

import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e.streams import DEFAULT_SEED, RUN_SECONDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: Functions of the seed alone: identical between the two runs of one seed.
EXACT = ("sim_ms_per_op", "bytes_saved_fraction")

_AS_MEASURED = re.compile(r"^(\S+)\s.* as measured (\S+)$", re.MULTILINE)
_HOST_SLOWNESS = re.compile(r"bench\.host_slowness=(\S+)")

#: ``workload -> {"A": [run, ...], "B": [run, ...]}``; a run is its result line
#: plus ``raw`` (values as measured) and ``host_slowness``.
Runs = Dict[str, Dict[str, List[Dict[str, object]]]]


def _run(workload: str, seed: int) -> Dict[str, object]:
    """One untraced run: its result line, plus ``raw`` (values as measured)
    and ``host_slowness`` read off the report above it."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"selfcheck: {' '.join(command)} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["raw"] = {name: float(value) for name, value in _AS_MEASURED.findall(done.stdout)}
    result["host_slowness"] = float(_HOST_SLOWNESS.search(done.stdout).group(1))
    return result


def collect(runs: int, only: Optional[str] = None) -> Runs:
    collected: Runs = {}
    for workload in WORKLOADS:
        if only is not None and workload.name != only:
            continue
        sets: Dict[str, List[Dict[str, object]]] = {"A": [], "B": []}
        for index in range(runs):
            for label in ("A", "B"):
                sets[label].append(_run(workload.name, DEFAULT_SEED + index))
        collected[workload.name] = sets
    return collected


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    first, _second, third = statistics.quantiles(values, n=4)
    return first, third


def _spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    first, third = _quartiles(values)
    return (third - first) / statistics.median(values)


def _slope(xs: List[float], ys: List[float]) -> float:
    """Least-squares slope of log(y) on log(x)."""
    log_x, log_y = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mean_x, mean_y = statistics.fmean(log_x), statistics.fmean(log_y)
    spread_x = sum((x - mean_x) ** 2 for x in log_x)
    if spread_x == 0.0:
        return float("nan")
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(log_x, log_y)) / spread_x


def report(collected: Runs) -> int:
    """Print the Markdown report; the number of breaches."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    sensitivity = {workload.name: workload.host_sensitivity for workload in WORKLOADS}
    runs = len(next(iter(collected.values()))["A"])
    breaches = 0
    print(f"# Repeatability: two interleaved sets of {runs} runs, --seconds {RUN_SECONDS}\n")
    print(
        "`Q1..Q3` are the quartiles of one set (`statistics.quantiles(values, n=4)`) and "
        "`spread` is (Q3 - Q1) / median; `B vs A` is how much worse (+) or better (-) set "
        "B's median is than set A's, as a share of A's; `as measured` is the spread of the "
        "same metric over both sets together before scaling to the reference host speed.\n"
    )
    for name, sets in collected.items():
        both = sets["A"] + sets["B"]
        print(f"## {name}\n")
        columns = (
            "metric|unit|median A|Q1..Q3 A|median B|Q1..Q3 B|spread A|spread B|B vs A|bound|"
            "verdict|as measured"
        )
        print("| " + " | ".join(columns.split("|")) + " |")
        print("|" + "---|" * 12)
        for metric_name, metric in declared.items():
            a = [run["metrics"][metric_name]["value"] for run in sets["A"]]
            b = [run["metrics"][metric_name]["value"] for run in sets["B"]]
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = (median_b - median_a) / median_a
            if metric["better"] == "higher":
                worse = -worse
            spreads = (_spread(a), _spread(b))
            quartiles = ["{:.6g}..{:.6g}".format(*_quartiles(values)) for values in (a, b)]
            bound = metric["bound"]
            verdict = "ok"
            if worse > bound:
                verdict = "MEDIAN"
            elif max(spreads) > bound:
                verdict = "SPREAD"
            elif metric_name in EXACT and a != b:
                verdict = "NOT EXACT"
            breaches += verdict != "ok"
            measured = [run["raw"][metric_name] for run in both if metric_name in run["raw"]]
            as_measured = f"{_spread(measured):.2%}" if measured else ""
            print(
                f"| {metric_name} | {metric['unit']} | {median_a:.6g} | {quartiles[0]} "
                f"| {median_b:.6g} | {quartiles[1]} | {spreads[0]:.2%} | {spreads[1]:.2%} "
                f"| {worse:+.2%} | {bound:.0%} | {verdict} | {as_measured} |"
            )
        slowness = [run["host_slowness"] for run in both]
        slope = _slope(slowness, [run["raw"]["object_p50_ms"] for run in both])
        failed = sum(run["failed"] for run in both)
        incorrect = sum(not run["correct"] for run in both)
        breaches += incorrect
        paired = all(
            run_a["attempted"] == run_b["attempted"] for run_a, run_b in zip(sets["A"], sets["B"])
        )
        breaches += not paired
        print(
            f"\n{2 * runs} runs, {failed} failed operations, {incorrect} incorrect runs; attempted "
            f"operations equal within every seed: {paired}; `bench.host_slowness` "
            f"{min(slowness):.3f}..{max(slowness):.3f}, slope of measured `object_p50_ms` on it "
            f"{slope:.2f} (`host_sensitivity` {sensitivity[name]}).\n"
        )
    print(f"breaches: {breaches}")
    return breaches


def selfcheck(runs: int, only: Optional[str] = None) -> int:
    collected = collect(runs, only)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "selfcheck-runs.json").write_text(json.dumps(collected, indent=1) + "\n")
    return 1 if report(collected) else 0
