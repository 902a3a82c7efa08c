"""Smoke check of the benchmark itself, at tiny sizes (about 20 seconds).

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with `--size tiny` and
checks the result line against BENCHMARK.json: every metric present with
its unit, end-to-end values above zero, per-layer values above zero for
the layers each workload exercises, all outputs correct and no operation
failed.  Then checks that the benchmark exits non-zero without a result
in a directory holding only BENCHMARK.json and perfbench/, and that its
exact small-n probabilities match the package's enumeration oracle.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")

# per-layer metrics that must be non-zero in a traced run of each workload
EXERCISED = {
    "desk": ["asymptotics.solve_saddle_s", "asymptotics.truncation_K",
             "oracle.build_h_table_s", "sampler.sample_batch_s",
             "sampler.substream_rng_s", "sampler.draws", "sampler.scanned",
             "stats.verify_poisson_increments_s", "stats.verify_gumbel_s",
             "stats.cumulative_profile_s", "stats.bn_event_frequency_s"],
    "small-n": ["oracle.build_h_table_s", "sampler.sample_batch_s",
                "sampler.substream_rng_s", "sampler.draws",
                "sampler.scanned"],
    "tables": ["weights.g_theta_partial_s", "weights.g_terms",
               "asymptotics.solve_saddle_s", "asymptotics.truncation_K",
               "asymptotics.saddle_h_estimate_s", "oracle.build_h_table_s",
               "oracle.htable_save_s", "oracle.htable_load_s",
               "oracle.cache_bytes", "cli.self_s"],
}


def run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_result(spec, workload, trace):
    out = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
              "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], res
    assert res["correct"] is True and res["failed"] == 0, (res, out.stderr)
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, res
    specs = spec["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in specs], res["metrics"]
    for m in specs:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"]), got
    must = EXERCISED[workload] if trace else [m["name"] for m in specs]
    zero = [name for name in must if not res["metrics"][name]["value"] > 0]
    assert not zero, f"{workload} trace={trace}: zero metrics {zero}"
    print(f"ok  {workload} trace={trace}: attempted {res['attempted']}")


def check_refuses_without_source():
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="perfbench-smoke-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run(bare, "--workload", "small-n", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
        assert out.returncode != 0 and not out.stdout.strip(), out
    finally:
        shutil.rmtree(bare)
    print("ok  exits non-zero without the package source")


def check_exact_probs():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import cycleweights as cw
    import workloads
    for alpha in (0.5, 1.0, 2.0):
        for n in range(1, 9):
            ours = workloads.exact_cycle_type_probs(alpha, n)
            theirs = {ct.counts: p for ct, p in
                      cw.enumerate_cycle_types(cw.polynomial(alpha), n)}
            assert ours.keys() == theirs.keys()
            assert all(abs(ours[k] - theirs[k]) < 1e-12 for k in ours)
    print("ok  exact small-n probabilities match enumerate_cycle_types")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_exact_probs()
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace)
    check_refuses_without_source()
    print("smoke ok")


if __name__ == "__main__":
    main()
