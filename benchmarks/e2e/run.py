"""Run one workload of the end-to-end benchmark for one seed.

    python3 benchmarks/e2e/run.py --workload clam_redundant --seed 1 --seconds 20 --trace 0

One invocation is one fresh interpreter, re-executed with ``PYTHONHASHSEED=0``
and pinned to one CPU *before* anything is built, so forked shard workers
inherit the mask; it sets the workload up once and times it once.  It prints
every metric by name with unit and sample count and, as the last line of
standard output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  The exit code is non-zero when an
output check failed.

``--selfcheck N`` instead runs two interleaved sets of N untraced runs per
workload and compares them against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def _bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable from a bare checkout."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"e2e benchmark: the program under test is missing ({ROOT / 'src' / 'repro'})")
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _fresh_interpreter() -> None:
    """Re-execute once with a fixed hash seed (set iteration order is then a
    function of the inputs alone); replaces this process, starts no child."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        environment = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], environment)


def _pin() -> int:
    """Confine this process (and every worker it later forks) to one CPU."""
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]  # CPU 0 takes most interrupts; use the last one
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError as error:
        sys.exit(f"e2e benchmark: cannot pin to CPU {cpu} (allowed {allowed}): {error}")
    if os.sched_getaffinity(0) != {cpu}:
        sys.exit(f"e2e benchmark: affinity is {os.sched_getaffinity(0)}, wanted {{{cpu}}}")
    return cpu


def _numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "absent (scalar Rabin path)"
    return numpy.__version__


def _print_metrics(title: str, metrics) -> None:
    print(f"-- {title}")
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        raw = "" if metric.raw is None else f"  as measured {metric.raw:.6f}"
        print(f"{name:<{width}}  {metric.value:>16.6f} {metric.unit:<10} n={metric.samples}{raw}")


def _frozen_mismatches(args, exact) -> list:
    """Exact outputs of the default seed must equal the frozen ones."""
    from benchmarks.e2e.streams import DEFAULT_SEED, RUN_SECONDS

    if args.smoke or args.seed != DEFAULT_SEED or args.seconds != RUN_SECONDS:
        return []
    frozen = json.loads((HERE / "frozen.json").read_text())["workloads"].get(args.workload)
    if frozen is None:
        return [f"frozen.json has no entry for {args.workload}"]
    return [
        f"{name}: measured {value!r}, frozen {frozen[name]!r}"
        for name, value in exact.items()
        if frozen[name] != value
    ]


def run_once(args) -> int:
    from repro.core.hashing import count_hash_calls

    from benchmarks.e2e import harness, layers
    from benchmarks.e2e.streams import WORKLOAD_BY_NAME, timed_objects_for

    workload = WORKLOAD_BY_NAME[args.workload]
    cpu = _pin()
    print(
        f"e2e benchmark: workload={workload.name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} smoke={args.smoke}"
    )
    print(
        f"cpu={cpu} nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={_numpy_version()} hashseed={os.environ.get('PYTHONHASHSEED')}"
    )
    if args.smoke:
        print("SMOKE RUN: tiny counts, numbers are not comparable with anything")
    objects = timed_objects_for(workload, args.seconds, args.smoke)

    if not args.trace:
        measured = harness.measure(workload, args.seed, args.smoke, objects)
        reported = {name: measured.metrics[name] for name in harness.END_TO_END}
        exact = measured.exact
        attempted, failed, notes = measured.attempted, measured.failed, measured.failure_notes
        _print_metrics("end-to-end (untraced; times at reference host speed)", reported)
        print(
            f"objects={objects} busy_s={measured.busy_s:.3f} "
            f"bench.trace_gen_s={measured.stream_s:.3f} "
            f"bench.host_slowness={measured.host_slowness:.4f}"
        )
    else:
        kernel = harness.HostKernel()
        references = layers.reference_segments(workload, args.seed, args.smoke, objects, kernel)
        recorder = harness.SpanRecorder()
        session = harness.Session(workload, args.seed, args.smoke, kernel)
        try:
            session.attach_recorder(recorder)
            with count_hash_calls() as hash_log:
                timed = harness.run_timed(session, objects)
            reported = layers.layer_metrics(session, timed, recorder, hash_log, references)
        finally:
            session.close()
        exact = harness.exact_outputs(timed)
        attempted = session.proxy.checked + session.exceptions + references.attempted
        failed = session.proxy.failed + references.failed
        notes = session.proxy.failure_notes
        _print_metrics("per-layer (traced pass; 0 = layer not exercised here)", reported)
        stem = f"{workload.name}-seed{args.seed}" + ("-smoke" if args.smoke else "")
        print(f"spans -> {layers.write_spans(recorder, HERE / 'out', stem)}")
        print(
            f"objects={objects} busy_s={timed.phase.busy_s:.3f} "
            f"bench.trace_gen_s={timed.phase.stream_s:.3f}"
        )
    print("exact: " + " ".join(f"{name}={value!r}" for name, value in exact.items()))

    mismatches = _frozen_mismatches(args, exact)
    for note in notes + mismatches:
        print(f"CHECK FAILED: {note}")
    correct = failed == 0 and not mismatches
    print(f"failed_op_fraction={failed / attempted:.6f} ({failed} of {attempted})")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metric.value, "unit": metric.unit}
                    for name, metric in reported.items()
                },
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the names in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="nominal timed-phase length")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny counts; not comparable")
    parser.add_argument("--selfcheck", type=int, metavar="N", default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    from benchmarks.e2e.streams import RUN_SECONDS, WORKLOAD_BY_NAME

    if args.seconds is None:
        args.seconds = RUN_SECONDS
    if args.selfcheck:
        from benchmarks.e2e.selfcheck import selfcheck

        return selfcheck(args.selfcheck, args.workload)
    if args.workload not in WORKLOAD_BY_NAME:
        parser.error(f"--workload must be one of {', '.join(WORKLOAD_BY_NAME)}")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in 1..60")
    _fresh_interpreter()
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
