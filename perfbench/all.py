"""Run every workload once, each in a fresh process, and print its metrics.

    python3 perfbench/all.py

Runs each workload of BENCHMARK.json untraced, with seed 1, for its
run_seconds, and prints whether its outputs were correct, the operations
attempted and failed, and every end-to-end metric with its unit.  Exits 1
if any run was incorrect or had a failed operation.
"""

import json
import os
import sys

from steady import ROOT, run_once


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for w in spec["workloads"]:
        res = run_once(w["name"], 1, spec["run_seconds"])
        ok &= res["correct"] and res["failed"] == 0
        print(f"{w['name']}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:36} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
