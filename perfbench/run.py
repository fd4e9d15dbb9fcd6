#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ (which compiles ../src) and
runs one workload of it.

    python3 perfbench/run.py --workload race_cow --seed 1 --seconds 10 --trace 0

Run it from the repository root. BENCHMARK.json lists the workloads and,
for --trace 0 and --trace 1, the metrics the run must print; the last line
of stdout is the JSON result, build output goes to stderr. The build
directory is $CARGO_TARGET_DIR, or .bench_build when that is unset.
Exit status: 0 when every output check passed, 1 when one failed, 2 when
the build failed or the run produced no valid result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("race_cow", "race_prune", "svc_socket")
RUN_TIMEOUT_S = 170


def build(build_dir):
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "mwperf", "-j", "4"],
    ):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "mwperf")


def expected_units(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, units):
    """Raises ValueError unless `line` is a result carrying exactly the
    metrics in `units`, each with its unit."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    metrics = result["metrics"]
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise ValueError(f"metrics missing {missing}, unexpected {extra}")
    for name, unit in units.items():
        if metrics[name].get("unit") != unit:
            raise ValueError(f"{name}: unit {metrics[name].get('unit')!r}, "
                             f"expected {unit!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    # The run's files (the cluster's shared effect log) live and die here.
    scratch = os.path.join(build_dir, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines:
        print(f"perfbench: mwperf exited with {proc.returncode}",
              file=sys.stderr)
        return 2
    try:
        validate(lines[-1], expected_units(args.trace == 1))
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"perfbench: invalid result: {e}", file=sys.stderr)
        return 2
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
