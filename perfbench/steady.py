"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--runs 10]

Runs perfbench/run.py --trace 0 for run_seconds of BENCHMARK.json, `--runs`
times per set, on every workload: set A with seeds 1..runs, set B with
seeds 101..100+runs, interleaved A, B, B, A, ... so that a drift of the
machine falls on both sets.  For every end-to-end metric of BENCHMARK.json
on every workload it reports each set's median and spread (the distance
between the first and third quartiles as a share of the median) and the
shift of B's median in the worse direction.  The sets agree when every
spread, setup_s's too, is within the metric's bound, every shift is
within it in either direction, every run is correct and the share of
failed operations is the same in every run.  A spread under a third of
the bound is marked steady.  Exits 1 when they disagree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    """The result line of one untraced run.py run."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                           f"{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(spec, results):
    """Rows of (workload, metric, medA, spreadA, medB, spreadB, shift, ok)."""
    rows, ok_all = [], True
    for wl, sets in results.items():
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs]
                    for runs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            sign = 1.0 if m["better"] == "lower" else -1.0
            shift = sign * (meds[1] - meds[0]) / meds[0]
            ok = abs(shift) <= bound and max(spreads) <= bound
            ok_all &= ok
            rows.append((wl, name, meds[0], spreads[0], meds[1], spreads[1],
                         shift, bound, ok))
        every = [r for runs in sets for r in runs]
        shares = {r["failed"] / r["attempted"] for r in every}
        correct = all(r["correct"] for r in every)
        ok_all &= correct and len(shares) == 1
        print(f"{wl}: all correct={correct}, failed shares={sorted(shares)}")
    return rows, ok_all


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)

    results = {}
    for wl in (w["name"] for w in spec["workloads"]):
        sets = ([], [])
        for i in range(args.runs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for s in order:
                seed = 1 + i + 100 * s
                sets[s].append(run_once(wl, seed, spec["run_seconds"]))
                print(f"{wl} set {'AB'[s]} seed {seed}: "
                      + json.dumps({k: v["value"] for k, v in
                                    sets[s][-1]["metrics"].items()}),
                      flush=True)
        results[wl] = sets

    rows, ok_all = compare(spec, results)
    print(f"{'workload':9} {'metric':12} {'median A':>11} {'spread A':>8} "
          f"{'median B':>11} {'spread B':>8} {'worse by':>8} {'bound':>5}")
    for wl, name, ma, sa, mb, sb, shift, bound, ok in rows:
        mark = "" if ok else "  DISAGREE"
        if ok and max(sa, sb) < bound / 3:
            mark = "  steady"
        print(f"{wl:9} {name:12} {ma:11.5g} {sa:8.2%} {mb:11.5g} {sb:8.2%} "
              f"{shift:8.2%} {bound:5.2f}{mark}")
    print("sets agree" if ok_all else "sets DISAGREE")
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
