#!/usr/bin/env python3
"""Smoke test of the benchmark harness: a tiny-n run of every workload, once
untraced and once traced, must print every metric BENCHMARK.json names, with
its unit, both as a "name value unit" line and in the JSON result line.

    python3 benchmark/tests/smoke.py --binary <nas_benchmark> \
        --benchmark-json BENCHMARK.json
"""
import argparse
import json
import subprocess
import sys
import tempfile

# Workloads the harness runs that BENCHMARK.json leaves out of the gated set
# (see benchmark/README.md); they print the same metrics.
UNGATED = ("serve-cold-batch",)


def run(binary, workload, trace, work_dir):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--tiny", "--work-dir", work_dir],
        capture_output=True, text=True, timeout=170, check=False)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{out.returncode}: {out.stderr}")
    return out.stdout.strip().splitlines()


def check(lines, wanted, label):
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            printed[parts[0]] = parts[2]
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None or got.get("unit") != unit:
            problems.append(f"{name}: JSON has {got}, want unit {unit}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name}: value {got.get('value')!r}")
        if printed.get(name) != unit:
            problems.append(f"{name}: printed unit {printed.get(name)}, "
                            f"want {unit}")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    for p in problems:
        print(f"{label}: {p}")
    return not problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    ap.add_argument("--benchmark-json", required=True)
    args = ap.parse_args()
    with open(args.benchmark_json, encoding="utf-8") as f:
        spec = json.load(f)
    ok = True
    workloads = [w["name"] for w in spec["workloads"]] + [
        w for w in UNGATED if w not in {x["name"] for x in spec["workloads"]}]
    with tempfile.TemporaryDirectory() as work_dir:
        for workload in workloads:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                lines = run(args.binary, workload, trace, work_dir)
                ok = check(lines, spec[key], f"{workload} trace={trace}") and ok
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
