"""Benchmark of the sierpinski package and its ``sierpinski`` command.

Run from the root of a checkout:

    python3 perfbench/run.py --workload binomial-sweep --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py`` for why each was chosen):
  binomial-sweep  verify_digital_binomial on never-repeated m, both summand paths
  matrix-group    build / group-law / inverse jobs on the matrix family, repeating
  cli-session     one ``python -m sierpinski ...`` child per op, cold start included
  all             the three above in turn, with one combined JSON line

One client, closed loop: each op starts when the previous one has finished
and been checked, and at most one child process runs at a time.

``--trace 0`` prints the end-to-end metrics, measured with no tracing, over
several worker processes run one after another: ops_per_s (ops / summed op
latency), op_p50_ms, op_p90_ms, peak_rss_mb (the largest worker process, or
the largest cli child), setup_s (median over the workers of the time from
launch to their first timed op) and fail_ratio.
``--trace 1`` replays the seed's first cycles in-process, with spans and
counts around each module's public functions (``tracing.py``), in two fresh
processes whose counts must agree exactly, and prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracing import metric_names
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_OPS = 100  # per run, so that >= 10 latencies lie beyond op_p90_ms
RUN_LIMIT_S = 170  # every worker still running this long after the start is killed
STARTED = time.monotonic()

END_TO_END = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class WorkerFailed(Exception):
    pass


def launch(workload: str, seed: int, seconds: float, mode: str, tmp: Path, env: dict, *extra: str):
    """Run one worker; returns (setup_s, result dict, rusage)."""
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode, "--tmp", str(tmp), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env,
                            cwd=ROOT, text=True)
    watchdog = threading.Timer(max(1.0, STARTED + RUN_LIMIT_S - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)  # this worker's own peak RSS
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker for {workload} exited with {proc.returncode}")
    return setup_s, json.loads(rest.strip().splitlines()[-1]), usage


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) interpolates it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, seed: int, seconds: float, tmp: Path, env: dict) -> tuple[dict, dict]:
    """The workload's PARTS workers share the run's seconds; their latencies are pooled.

    On a shared host a process draws a speed that holds for most of its life
    (placement, memory layout), so one long-lived worker would make the run
    read that one draw; several short ones average it.  Each worker is also
    one set-up sample.
    """
    parts = WORKLOADS[workload].PARTS
    setups, latencies, peak_kb = [], [], 0
    merged = {"attempted": 0, "failed": 0, "errors": [], "properties": {}}
    for part in range(parts):
        setup_s, result, usage = launch(workload, seed, seconds / parts, "measure", tmp, env,
                                        "--part", str(part), "--parts", str(parts),
                                        "--min-ops", str(-(-MIN_OPS // parts)))
        setups.append(setup_s)
        latencies += result["latencies"]
        peak_kb = max(peak_kb, result["peak_child_kb"] if workload == "cli-session" else usage.ru_maxrss)
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["errors"] += result["errors"]
        for key, value in result["properties"].items():
            merged["properties"][key] = merged["properties"].get(key, 0) + value
        merged["versions"] = result["versions"]
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": statistics.median(setups),
    }
    return metrics, merged


def traced(workload: str, seed: int, seconds: float, tmp: Path, env: dict) -> tuple[dict, dict]:
    _, first, _ = launch(workload, seed, seconds, "trace", tmp, env)
    _, again, _ = launch(workload, seed, seconds, "retrace", tmp, env)
    names = metric_names()
    metrics = {name: 0 for name in names}
    for name, value in first["counts"].items():
        metrics[name] = value
    for name, value in first["self_s"].items():
        metrics[f"{name}.self_s"] = value
    metrics["cli.import_s"] = first["import_s"]
    metrics["trace.overhead_ratio"] = first["traced_s"] / first["untraced_s"]
    metrics["trace.unattributed_s"] = first["unattributed_s"]
    unknown = set(metrics) - set(names)
    if unknown:
        raise WorkerFailed(f"trace produced unlisted metrics: {sorted(unknown)}")
    first["attempted"] += again["attempted"]
    first["failed"] += again["failed"]
    first["errors"] += again["errors"]
    if first["counts"] != again["counts"]:
        differ = sorted(k for k in set(first["counts"]) | set(again["counts"])
                        if first["counts"].get(k) != again["counts"].get(k))
        first["errors"].append(f"counts differ between two traced runs of seed {seed}: {differ}")
    return metrics, first


def declared_metrics(trace: bool) -> dict[str, str]:
    """The metric names and units BENCHMARK.json promises for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload: str, seed: int, seconds: float, trace: bool, tmp: Path, env: dict) -> dict:
    measure = traced if trace else end_to_end
    metrics, result = measure(workload, seed, seconds, tmp, env)
    units = metric_names() if trace else END_TO_END
    if units != declared_metrics(trace):
        raise WorkerFailed("the metrics measured here and those in BENCHMARK.json differ")
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and not result["errors"]
    print(f"{workload} seed={seed} trace={int(trace)} attempted={attempted} failed={failed}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  fail_ratio = {failed / attempted:.6g} 1")
    inputs = result["properties"]
    shares = ", ".join(f"{k}={v / inputs['ops']:.4g}" for k, v in inputs.items() if k != "ops")
    print(f"  inputs: ops={inputs['ops']}, shares of ops: {shares}")
    print(f"  versions: {json.dumps(result['versions'])}")
    for error in result["errors"][:5]:
        print(f"  error: {error}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "sierpinski" / "__init__.py").is_file():
        print(f"error: no sierpinski sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))  # --output files, child stdout
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_one(name, args.seed, args.seconds, bool(args.trace), tmp, env) for name in names}
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
