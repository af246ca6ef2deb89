#!/usr/bin/env python3
"""Writes the benchmark's stability record (perfbench/STABILITY.md).

Runs every workload of BENCHMARK.json in two independent sets of --runs
runs (each run with its own seed), then one traced run per workload, and
records for every (workload, end-to-end metric) the median, quartiles and
spread of each set, plus each workload's per-module breakdown.

    python3 perfbench/stability.py              # about 30 minutes
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, cwd=ROOT, check=True)
    report = json.loads(result.stdout.strip().splitlines()[-1])
    if not report["correct"] or report["failed"]:
        sys.exit(f"{workload} seed {seed}: run failed: {report}")
    return {name: m["value"] for name, m in report["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=str(HERE / "STABILITY.md"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.machine())
    lines = ["# Stability record", "",
             f"Measured on {os.cpu_count()} x {cpu} ({platform.system()}), "
             "RelWithDebInfo build.", "",
             f"Each set is {args.runs} untraced runs of `run.py` with "
             f"`--seconds {seconds}`, one seed per run (set 1: seeds 1-"
             f"{args.runs}, set 2: seeds {args.runs + 1}-{2 * args.runs}). "
             "Spread is (Q3 - Q1) / median with Python's "
             "`statistics.quantiles(values, n=4)`; drift is how much worse "
             "set 2's median is than set 1's, as a share of set 1's.", ""]
    for w in spec["workloads"]:
        name = w["name"]
        sets = []
        for s in range(2):
            values = {}
            for k in range(args.runs):
                seed = 1 + s * args.runs + k
                for metric, value in run(name, seed, seconds, 0).items():
                    values.setdefault(metric, []).append(value)
                print(f"{name} set {s + 1} seed {seed} done", file=sys.stderr)
            sets.append(values)
        lines += [f"## {name}", "",
                  "| metric | bound | set | median | Q1 | Q3 | spread | drift |",
                  "|---|---|---|---|---|---|---|---|"]
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        for metric in bounds:
            medians = []
            for s, values in enumerate(sets):
                v = values[metric]
                q1, _, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                medians.append(med)
                drift = ""
                if s == 1:
                    worse = (medians[1] - medians[0]) / medians[0]
                    if better[metric] == "higher":
                        worse = -worse
                    drift = f"{worse:+.3f}"
                lines.append(f"| {metric} | {bounds[metric]} | {s + 1} | "
                             f"{med:.5g} | {q1:.5g} | {q3:.5g} | "
                             f"{(q3 - q1) / med:.3f} | {drift} |")
        traced = run(name, 1, seconds, 1)
        lines += ["", f"Per-module breakdown (traced run, seed 1):", "",
                  "| per-layer metric | value |", "|---|---|"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for metric, value in sorted(traced.items()):
            if value != 0:
                lines.append(f"| {metric} | {value:.6g} {units[metric]} |")
        lines += ["", "Values, in seed order:", ""]
        for metric in bounds:
            for s, values in enumerate(sets):
                shown = ", ".join(f"{v:.5g}" for v in values[metric])
                lines.append(f"- {metric}, set {s + 1}: {shown}")
        lines.append("")
    Path(args.out).write_text("\n".join(lines))


if __name__ == "__main__":
    main()
