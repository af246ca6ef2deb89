#!/usr/bin/env python3
"""Runs one workload of the coachlm regression benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload revise_batch --seed 1 --seconds 30 --trace 0

Builds the coachlm libraries, the coachlm CLI and the perfbench binary from
source (into $CARGO_TARGET_DIR, default .bench_build), makes the workload's
inputs from the seed several times (the median is setup_s), runs the timed
section (--trace 0: end-to-end metrics) or the traced run with its probes
(--trace 1: per-layer metrics), checks the outputs, and prints one JSON
object as the last line of stdout. Progress and diagnostics go to stderr.

    python3 perfbench/run.py --self-test     # builds and runs the unit tests
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("revise_batch", "coach_tuning", "serve_open_loop")
SETUP_REPEATS = 5
# Set-up and run together must end well within 180 s of the build.
BUDGET_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else Path.cwd() / path


def build(targets):
    """Configures (once) and builds the given targets; raises on failure."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
               "-DCOACHLM_BUILD_TESTS=OFF", "-DCOACHLM_BUILD_BENCH=OFF",
               "-DCOACHLM_BUILD_EXAMPLES=OFF",
               f"-DCMAKE_PROJECT_INCLUDE={HERE / 'project_hook.cmake'}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                    *targets], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return out


def run_bounded(cmd, deadline):
    """Runs cmd in its own process group; kills the whole group (the serve
    daemon included) if it is still running at the perf_counter deadline.
    Returns CompletedProcess."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, "")


def digest(directory):
    """SHA-256 of every file in directory, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def catalog(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.self_test:
        out = build(["perfbench_tests"])
        return subprocess.run([str(out / "perfbench_tests")]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    out = build(["perfbench", "coachlm"])
    binary = str(out / "perfbench")
    work = out / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, out, binary, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, out, binary, work):
    deadline = time.perf_counter() + BUDGET_S
    failed = 0
    # Set-up: make the seeded inputs several times; setup_s is the median.
    setups = []
    digests = []
    for i in range(1 if args.trace else SETUP_REPEATS):
        directory = work / f"setup{i}"
        directory.mkdir(parents=True)
        t0 = time.perf_counter()
        result = run_bounded([binary, "setup", "--workload", args.workload,
                              "--seed", str(args.seed), "--dir",
                              str(directory)], deadline)
        setups.append(time.perf_counter() - t0)
        if result.returncode != 0:
            log(f"set-up failed with exit code {result.returncode}")
            return 1
        digests.append(digest(directory))
    if any(d != digests[0] for d in digests):
        log("FAILED: set-up outputs differ between repeats of one seed")
        failed += 1

    traces = out / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [binary, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--dir", str(work / "setup0"), "--coachlm",
           str(out / "tools" / "coachlm")]
    if args.trace:
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    result = run_bounded(cmd, deadline)
    if result.returncode != 0 or not result.stdout.strip():
        log(f"run failed with exit code {result.returncode}")
        return 1
    report = json.loads(result.stdout.strip().splitlines()[-1])

    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = {
            "value": statistics.median(setups) + report["setup_extra_s"],
            "unit": "s"}
        log("set-up walls " + ", ".join(f"{s:.3f}" for s in setups) +
            f" s (+{report['setup_extra_s']:.3f} s in the run process)")
    expected = catalog(args.trace)
    if set(metrics) != set(expected) or any(
            metrics[name]["unit"] != unit for name, unit in expected.items()):
        log("metric set or units differ from BENCHMARK.json: " +
            ", ".join(sorted(set(metrics) ^ set(expected))))
        return 1
    for name in sorted(metrics):
        log(f"{name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")

    failed += report["failed"]
    print(json.dumps({
        "correct": bool(report["correct"]) and failed == 0,
        "attempted": report["attempted"] + len(setups),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as error:
        log(f"error: {error}")
        sys.exit(1)
