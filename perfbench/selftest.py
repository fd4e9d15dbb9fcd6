#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size: every workload runs for three
seconds (enough traced requests for a p99 at svc_socket's fixed rate)
untraced and traced, and each run must pass its output checks and
print every BENCHMARK.json metric of its mode with its unit. It also checks
that the traced runs show each workload on its own layers.

    python3 perfbench/selftest.py        (from the repository root)
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "3", "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []
    traced = {}
    for w in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            try:
                result = run(w, trace)
                assert result["correct"], "output checks failed"
                metrics = result["metrics"]
                for m in spec[key]:
                    got = metrics.get(m["name"])
                    assert got is not None, f"{m['name']} missing"
                    assert got["unit"] == m["unit"], f"{m['name']} unit"
                if trace:
                    traced[w] = {k: v["value"] for k, v in metrics.items()}
                print(f"ok   {w} --trace {trace}")
            except (AssertionError, ValueError, KeyError) as e:
                failures.append(f"{w} --trace {trace}: {e}")

    if len(traced) == len(spec["workloads"]):
        cow = traced["race_cow"]["pagestore.cow_pages_per_op"]
        for other in ("race_prune", "svc_socket"):
            if cow < 10 * traced[other]["pagestore.cow_pages_per_op"]:
                failures.append(f"race_cow copies under 10x {other}'s pages")
        svc = traced["svc_socket"]
        if svc["dist.request_net_us.n"] == 0 or svc["service.handle_us.n"] == 0:
            failures.append("svc_socket recorded no dist/service spans")
        for w, m in traced.items():
            if m["bench.span_coverage"] < 0.9:
                failures.append(f"{w}: spans cover under 90% of latency")

    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
