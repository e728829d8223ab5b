"""One benchmark process: set up a workload, then measure or trace it.

Started by ``run.py``; not meant to be run by hand.  It prints ``READY`` as
soon as set-up (interpreter, ``import sierpinski``, input generation,
warm-up) is done, then one JSON line with what it measured.

Modes:
  measure  closed loop, one op in flight, whole cycles (until --seconds)
  trace    replay the seed's first cycles untraced, then traced
  retrace  replay them traced only, to check that the counts repeat
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import Tracer
from workloads import WORKLOADS, ChildRun

IMPORT_SAMPLES = 3


class Loop:
    """Runs ops one at a time, timing each and checking its output."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.peak_child_kb = 0
        self.output_bytes = 0

    def run(self, ops, replay: bool = False) -> float:
        """Runs ops in order; returns the sum of their latencies."""
        busy = 0.0
        execute = self.workload.replay if replay else self.workload.execute
        for op in ops:
            try:
                latency, outcome = execute(op)
                busy += latency
                self.latencies.append(latency)
                if isinstance(outcome, ChildRun):
                    self.peak_child_kb = max(self.peak_child_kb, outcome.peak_kb)
                    self.output_bytes += len(outcome.stdout.encode()) + len((outcome.output or "").encode())
                self.workload.check(op, outcome)
            except Exception as exc:  # a failing op is counted, never dropped
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{type(exc).__name__}: {exc}")
        return busy


def measure(workload, seconds: float, min_ops: int) -> dict:
    loop = Loop(workload)
    ops_run: list = []
    start = time.perf_counter()
    while True:
        ops = workload.cycle()
        cycle_start = time.perf_counter()
        loop.run(ops)
        ops_run += ops
        now = time.perf_counter()
        # whole cycles only, and none that would likely end past --seconds
        if len(ops_run) >= min_ops and (not workload.TIME_BOUNDED or now - start + (now - cycle_start) > seconds):
            break
    return {
        "latencies": loop.latencies,
        "attempted": len(ops_run),
        "failed": loop.failed,
        "errors": loop.errors,
        "peak_child_kb": loop.peak_child_kb,
        "properties": workload.properties(ops_run),
    }


def import_seconds(env: dict) -> float:
    """Median wall time of a fresh interpreter running ``import sierpinski.cli``."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sierpinski.cli"], env=env, check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def trace(workload, untraced_pass: bool, env: dict) -> dict:
    """Replay the seed's first TRACE_CYCLES cycles in-process, traced.

    With untraced_pass, the same ops run untraced first, for the overhead
    ratio, and the cold import is timed.
    """
    ops = [op for _ in range(workload.TRACE_CYCLES) for op in workload.cycle()]
    result = {"attempted": 0, "failed": 0, "errors": []}
    if untraced_pass:
        plain = Loop(workload)
        result["untraced_s"] = plain.run(ops, replay=True)
        result["attempted"] += len(ops)
        result["failed"] += plain.failed
        result["errors"] += plain.errors
        result["import_s"] = import_seconds(env)
    tracer = Tracer()
    loop = Loop(workload)
    tracer.install()
    try:
        busy = loop.run(ops, replay=True)
    finally:
        tracer.remove()
    counts = dict(tracer.counts)
    if workload.name == "cli-session":
        counts["cli.output_bytes"] = loop.output_bytes
    result.update(
        traced_s=busy,
        unattributed_s=busy - tracer.covered,
        self_s=dict(tracer.self_s),
        counts=counts,
        properties=workload.properties(ops),
    )
    result["attempted"] += len(ops)
    result["failed"] += loop.failed
    result["errors"] += loop.errors
    return result


def versions() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["measure", "trace", "retrace"], required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.part, args.parts)
    tmpdir = tempfile.mkdtemp(dir=args.tmp)
    try:
        env = dict(os.environ)
        if hasattr(workload, "bind"):
            workload.bind(tmpdir, env)
        import sierpinski

        workload.setup(sierpinski)
        print("READY", flush=True)
        if args.mode == "measure":
            result = measure(workload, args.seconds, args.min_ops)
        else:
            result = trace(workload, args.mode == "trace", env)
        result["versions"] = versions()
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
