"""cycleweights benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The run sets the workload up at least SETUP_REPS times, and until
the set-ups add up to SETUP_SECONDS (each time: a fresh interpreter's
imports, timed in a child process, plus the workload's own set-up in this
process), then repeats whole rounds until they add up to --seconds,
checking every round's outputs.  Times are reference-speed seconds
(see refclock.py).  The last line of standard output
is {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics, from rounds that alternate untraced and traced so the tracing
overhead is measured in the same process.  See perfbench/README.md.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter

import tracing
from refclock import RefClock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 3
# cheap set-ups are repeated more often, for a steadier median
SETUP_SECONDS = 3.0
WORKLOADS = ("desk", "small-n", "tables")

_IMPORT_PROBE = ("import sys, time\n"
                 "t = time.perf_counter()\n"
                 "sys.path.insert(0, sys.argv[1])\n"
                 "import cycleweights.cli\n"
                 "raw = time.perf_counter() - t\n"
                 "sys.path.insert(0, sys.argv[2])\n"
                 "from refclock import P_REF, probe\n"
                 "print(raw * 2 * P_REF / (probe() + probe()))\n")


def import_seconds() -> float:
    """Reference-speed seconds a fresh interpreter takes to import the
    package (the host's speed is probed after the import, which brings
    numpy in)."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC,
                          os.path.dirname(os.path.abspath(__file__))],
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the smoke-check sizes")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not os.path.isfile(os.path.join(SRC, "cycleweights", "__init__.py")):
        print(f"error: no cycleweights package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cycleweights
    if os.path.dirname(os.path.dirname(cycleweights.__file__)) != SRC:
        print(f"error: imported {cycleweights.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    import workloads

    size = workloads.SIZES[args.size]
    scratch_root = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="perfbench-", dir=scratch_root)
    try:
        if args.workload == "desk":
            wl = workloads.Desk(size, args.seed)
        elif args.workload == "small-n":
            wl = workloads.SmallN(size, args.seed)
        else:
            wl = workloads.Tables(size, work_dir)
        result = measure(wl, args)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": result["values"][m["name"]],
                           "unit": m["unit"]} for m in metric_specs}
    for err in result["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"correct": not result["errors"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def per_op(rounds):
    """Reference-speed seconds per operation."""
    return (sum(sum(r.busy) for r in rounds)
            / sum(r.ops for r in rounds))


def measure(wl, args):
    clock = RefClock()
    try:
        return measure_with(clock, wl, args)
    finally:
        clock.close()


def measure_with(clock, wl, args):
    tracer = tracing.Tracer() if args.trace else None

    def traced():
        if tracer is None:
            return contextlib.nullcontext()
        return tracing.patched(tracer.wrap, tracing.TRACED)

    layer_setup, layer_rounds = Counter(), Counter()
    setups = []
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_SECONDS:
        imports = import_seconds()
        with traced():
            clock.lap()
            counts = wl.setup()
            setups.append(imports + clock.lap())
        if tracer:
            layer_setup.update(tracer.take() + counts)

    rounds, traced_rounds, plain_walls = [], [], []
    errors, attempted, failed = [], 0, 0

    def play(with_trace):
        nonlocal attempted, failed
        if tracer:
            tracer.take()  # drop counter advances outside traced rounds
        with traced() if with_trace else contextlib.nullcontext():
            clock.lap()
            rnd = wl.run(len(rounds) + len(traced_rounds), clock)
            wall = sum(rnd.busy) + rnd.idle + clock.lap()
        attempted += rnd.ops
        failed += rnd.failed
        errors.extend(rnd.errors)
        return rnd, wall

    if tracer:
        # first-round costs (lazy caches, first allocations) would otherwise
        # all land on the untraced side of the overhead comparison
        rounds.append(play(False)[0])
    # The run length is counted on the clock the metrics use, so that the
    # number of rounds does not follow the host's speed: a workload whose
    # first round is slower than later ones would otherwise read slower in
    # the runs that fit only one round.
    elapsed = 0.0
    while not plain_walls or elapsed < args.seconds:
        rnd, wall = play(False)
        rounds.append(rnd)
        plain_walls.append(wall)
        elapsed += wall
        if tracer:
            rnd, wall = play(True)
            traced_rounds.append(rnd)
            layer_rounds.update(tracer.take() + rnd.counts)
            elapsed += wall
    errors.extend(wl.finish())

    values = {}
    setup_s = statistics.median(setups)
    values["setup_s"] = setup_s
    values["wall_s"] = setup_s + statistics.median(plain_walls)
    values["ops_per_s"] = 1.0 / per_op(rounds)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer:
        values = Counter()
        for name, v in layer_setup.items():
            values[name] += v / len(setups)
        for name, v in layer_rounds.items():
            values[name] += v / len(traced_rounds)
        # per operation, as behind ops_per_s; rounds[0] is the warm-up
        plain = per_op(rounds[1:])
        values["trace.overhead_pct"] = (
            100.0 * (per_op(traced_rounds) - plain) / plain)
    return {"values": values, "errors": errors, "attempted": attempted,
            "failed": failed}


if __name__ == "__main__":
    sys.exit(main())
