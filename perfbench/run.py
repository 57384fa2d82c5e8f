#!/usr/bin/env python3
"""Repository benchmark: seeded workloads through the mapping flow and the
real `fpfa-serve` daemon, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload compile|serve_warm|serve_mixed \
        --seed N --seconds S --trace 0|1

Builds `fpfa-serve` and the `perfbench` measuring program in release mode
(into $CARGO_TARGET_DIR, default `.bench_build`), runs the workload, echoes
the program's report (host metadata, every metric by name with its unit)
and ends with one JSON line: `correct`, `attempted`, `failed` and the
metrics BENCHMARK.json lists for the mode (`end_to_end` untraced,
`per_layer` traced).  Exits non-zero on any wrong output or failure.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Longest a measuring run may take before it is stopped.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (
        ("Cargo.toml", ["--bin", "fpfa-serve"]),
        (os.path.join("perfbench", "Cargo.toml"), []),
    ):
        path = os.path.join(ROOT, manifest)
        if not os.path.isfile(path):
            fail(f"{manifest} is missing: run from a full checkout")
        command = ["cargo", "build", "--release", "--offline", "--manifest-path", path]
        if subprocess.run(command + extra, cwd=ROOT, env=env, stdout=sys.stderr).returncode:
            fail(f"building {manifest} failed")


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure(target, args):
    work_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(work_root, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(target, "release", "fpfa-serve"),
        "--work-dir", work,
        "--sha", git_sha(),
    ]
    # Own process group, so a run that overstays is stopped with every
    # daemon it started.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json is missing")
    with open(spec_path) as handle:
        spec = json.load(handle)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    build(target)
    status, stdout = measure(target, args)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if status != 0:
        fail(f"the measuring program exited with status {status}")

    measured = {}
    result = None
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            measured[parts[1]] = (float(parts[2]), parts[3])
        elif parts and parts[0] == "result":
            result = dict(part.split("=", 1) for part in parts[1:])
    if result is None:
        fail("the measuring program printed no result line")

    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        if name not in measured:
            fail(f"metric {name} was not measured")
        value, measured_unit = measured[name]
        if not math.isfinite(value):
            fail(f"metric {name} is not a finite number")
        if measured_unit != unit:
            fail(f"metric {name} measured in {measured_unit}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": value, "unit": unit}
    correct = result.get("correct") == "true"
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
