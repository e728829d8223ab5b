"""Summarise a BENCH_*.json file of paired benchmark runs: medians, quartiles and wins.

The file holds one JSON record per line, one per run of perfbench/run.py:
its "side" ("parent" or "change"), "commit", "seed", "pair" (runs of one
pair share it) and "result" (the JSON line the run printed last).  For each
end-to-end metric of each workload this prints both sides' median and
quartiles, the change's median over the parent's, how many pairs the change
won (ties count for neither), and a verdict against the bound BENCHMARK.json
fixes for the metric:

* worse: the change's median is worse than the parent's by more than the bound;
* unresolved: otherwise, but one side's quartile spread exceeds the bound,
  and not every run of the change reads better than every run of the parent;
* within bound: otherwise.

A gain is marked where the change won at least nine tenths of the pairs and
the medians differ by more than the parent's quartile spread.  pytest does
not collect this file.  Run from anywhere:

    python tests/bench_summary.py BENCH_31.json
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def cell(q1: float, median: float, q3: float) -> str:
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def summarise(records: list[dict], declared: dict) -> list[str]:
    runs = {}  # (side, pair) -> metrics of that run
    failed = {"parent": [0, 0], "change": [0, 0]}  # side -> [failed ops, runs not correct]
    for record in records:
        result = record["result"]
        failed[record["side"]][0] += result.get("failed", 0)
        failed[record["side"]][1] += not result.get("correct", False)
        if "metrics" in result:  # a run that exited with an error printed none
            runs[record["side"], record["pair"]] = {
                name: metric["value"] for name, metric in result["metrics"].items()}
    pairs = sorted({pair for _, pair in runs if {("parent", pair), ("change", pair)} <= set(runs)})
    names = sorted({name for metrics in runs.values() for name in metrics})
    lines = [f"{len(pairs)} pairs; failed ops / runs not correct: "
             f"parent {failed['parent'][0]} / {failed['parent'][1]}, "
             f"change {failed['change'][0]} / {failed['change'][1]}",
             f"{'metric':28} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
             f"{'ratio':>6} {'wins':>6}  verdict"]
    for name in names:
        kind = declared[name.rsplit(".", 1)[-1]]
        sign = 1 if kind["better"] == "higher" else -1
        parent = [runs["parent", p][name] for p in pairs]
        change = [runs["change", p][name] for p in pairs]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        worse_by = sign * (pm - cm) / pm if pm else 0.0
        spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
        separated = all(sign * (c - p) > 0 for c in change for p in parent)
        if worse_by > kind["bound"]:
            verdict = "worse"
        elif spread > kind["bound"] and not separated:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        if wins >= 0.9 * len(pairs) and sign * (cm - pm) > p3 - p1:
            verdict += ", gain"
        ratio = cm / pm if pm else float("nan")
        lines.append(f"{name:28} {cell(p1, pm, p3):>30} {cell(c1, cm, c3):>30} {ratio:6.3f} "
                     f"{wins:>3}/{len(pairs):<2}  {verdict}")
    return lines


def main(path: str) -> None:
    records = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    for seed in sorted({record["seed"] for record in records}):
        print(f"seed {seed}")
        for line in summarise([r for r in records if r["seed"] == seed], declared):
            print(f"  {line}")


if __name__ == "__main__":
    main(sys.argv[1])
