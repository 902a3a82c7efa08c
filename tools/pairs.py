"""Alternated benchmark pairs of a parent and a changed checkout.

    python3 tools/pairs.py PARENT CHANGE --workload small-n \
        [--pairs 10] [--seconds 10] [--seed 9201]

PARENT and CHANGE are the roots of two source checkouts.  Pair i (from 1)
runs `python3 perfbench/run.py --workload W --seed SEED+i-1 --seconds T
--trace 0` in each, the parent first on odd pairs and the change first on
even ones, and prints each run's result line to standard error.  A run
that exits non-zero is recorded as failed, with its exit code and the last
line of its standard error, and the pairs go on.  Then, for each
end-to-end metric of the change's BENCHMARK.json, it prints each side's
median and quartiles over the pairs where both runs gave the metric, the
pairs the change won, whether a gain may be claimed, whether the change
is likely worse, and whether it keeps the metric's no-regression bound
(see compare).  Runs that failed, are not correct or have failed
operations are counted and printed too.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def compare(parent, change, better, bound=math.inf):
    """The pairs (parent[i], change[i]) of one metric, better "higher" or
    "lower": each side's (first quartile, median, third quartile), by
    linear interpolation, the pairs the change won, ties counting for
    neither, whether a gain may be claimed: the change won at least nine
    tenths of the pairs, and its median is better than the parent's by
    more than the parent's interquartile range, whether the change is
    likely worse, by the mirror rule: the parent won at least nine tenths
    of the pairs, and its median is better by more than that range, and
    the benchmark's no-regression rule: worse_by, the share of the
    parent's median by which the change's median is worse (negative where
    it is better), and within, whether that is at most bound."""
    sign = 1.0 if better == "higher" else -1.0
    gaps = [sign * (c - p) for p, c in zip(parent, change)]
    wins, losses = sum(g > 0 for g in gaps), sum(g < 0 for g in gaps)
    sides = [statistics.quantiles(v, n=4, method="inclusive")
             for v in (parent, change)]
    (p_q1, p_med, p_q3), (_, c_med, _) = sides
    gap, iqr = sign * (c_med - p_med), p_q3 - p_q1
    return {"parent": tuple(sides[0]), "change": tuple(sides[1]),
            "wins": wins, "pairs": len(parent),
            "claim": 10 * wins >= 9 * len(parent) and gap > iqr,
            "worse": 10 * losses >= 9 * len(parent) and -gap > iqr,
            "worse_by": -gap / p_med, "within": -gap <= bound * p_med}


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in the checkout at root, or a
    failed, not correct result with no metrics, its exit code and the
    last line of its standard error, if the run exits non-zero."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if out.returncode:
        return {"correct": False, "failed": 0, "metrics": {},
                "exit": out.returncode,
                "error": (out.stderr.strip().splitlines() or [""])[-1]}
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=9201)
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    results = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res = run(getattr(args, side), args.workload, args.seed + i,
                      args.seconds)
            results[side].append(res)
            print(f"pair {i + 1} {side}: {json.dumps(res)}", file=sys.stderr,
                  flush=True)
    for side, res in results.items():
        bad = sum(not r["correct"] or r["failed"] > 0 for r in res)
        print(f"{side}: {len(res)} runs, {bad} failed, not correct or with "
              f"failed operations")
        for r in res:
            if "exit" in r:
                print(f"  exit {r['exit']}: {r['error']}")
    print(f"{'metric':<12} {'parent q1 / median / q3':>32} "
          f"{'change q1 / median / q3':>32} {'wins':>6}  claim  worse  "
          f"bound")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(results["parent"], results["change"])
                 if name in p["metrics"] and name in c["metrics"]]
        if len(pairs) < 2:
            print(f"{name:<12} {len(pairs)} pairs with both runs: too few")
            continue
        c = compare(*zip(*pairs), metric["better"], metric["bound"])
        cells = [" / ".join(f"{v:.6g}" for v in c[side])
                 for side in ("parent", "change")]
        print(f"{name:<12} {cells[0]:>32} {cells[1]:>32} "
              f"{c['wins']:>3}/{c['pairs']:<2}  "
              f"{'yes' if c['claim'] else 'no':<5}  "
              f"{'yes' if c['worse'] else 'no':<5}  "
              f"{'ok' if c['within'] else 'OVER'} ({c['worse_by']:+.1%} "
              f"of {metric['bound']:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
