"""Command-line front end.

Subcommands:
  htable      build and cache a normalization-constant table
  oracle      small-n enumeration cross-checks
  saddle      solve the saddle equation and print diagnostics
  sample      draw cycle types and dump them as JSON lines
  verify      run a statistical verification experiment
  expansions  sweep the polylog / tail-sum expansions to CSV

Exit codes: 0 all requested checks passed, 1 a check failed,
2 validation error (bad input, or a path that cannot be read or written),
3 numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from typing import List, Optional

import numpy as np

from . import asymptotics, oracle, sampler, stats, weights

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _weight_from_args(args) -> weights.WeightSequence:
    if args.alpha is not None and args.vartheta is not None:
        raise ValueError("--alpha and --vartheta are mutually exclusive")
    if args.alpha is not None:
        return weights.polynomial(args.alpha)
    if args.vartheta is not None:
        return weights.ewens(args.vartheta)
    raise ValueError("one of --alpha or --vartheta is required")


def _cache_path(cache_dir: str, w: weights.WeightSequence, n_max: int) -> str:
    # named by the digest the file's header carries: weights that format
    # alike must not share a file
    tag = oracle._weight_digest(w).hex()
    return os.path.join(cache_dir, f"htable_{w.family}_{tag}_n{n_max}.cwht")


def _parse_grid(text: str) -> List[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_tols(items) -> dict:
    out = {}
    for item in items or []:
        key, _, val = item.partition("=")
        if not val:
            raise ValueError(f"--tol expects key=value, got {item!r}")
        out[key] = float(val)
    return out


def _emit_report(rep: stats.VerificationReport, out_path: Optional[str]) -> int:
    d = rep.to_dict()
    d["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    text = json.dumps(d, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text + "\n")
    print(text)
    # stdout stays one JSON document
    for c in rep.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: observed={c.observed:.6g} "
              f"target={c.target:.6g} tol={c.tol:.6g}", file=sys.stderr)
    return EXIT_OK if rep.all_pass else EXIT_FAIL


def cmd_htable(args) -> int:
    w = _weight_from_args(args)
    path = _cache_path(args.cache_dir, w, args.n)
    if os.path.exists(path):
        tab = oracle.HTable.load(path, w)
    else:
        tab = oracle.build_h_table(w, args.n)
        os.makedirs(args.cache_dir, exist_ok=True)
        tab.save(path)
    print(f"htable ready: n_max={tab.n_max} "
          f"log h_n={tab.log_array()[tab.n_max]:.6f}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    w = _weight_from_args(args)
    # one enumeration gives the pmf of the longest cycle, the largest part,
    # and every ln h_m
    pmf, exact = oracle._pmf(w, args.n, max)
    logs = oracle.build_h_table(w, args.n).log_array()
    print(f"L1 pmf at n={args.n}:")
    for k in sorted(pmf):
        print(f"  {k}: {_fmt(pmf[k])}")
    ok = True
    for m in range(1, args.n + 1):
        rel = abs(math.expm1(logs[m] - exact[m]))
        if rel > 1e-10:
            ok = False
            print(f"[FAIL] h_{m}: recurrence vs enumeration rel err {rel:.3g}")
    total = sum(pmf.values())
    if abs(total - 1.0) > 1e-12:
        ok = False
        print(f"[FAIL] pmf mass {total!r}")
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_saddle(args) -> int:
    w = _weight_from_args(args)
    sd = asymptotics.solve_saddle(w, args.n)
    # computed before any output, so that a rejected n prints nothing
    rep = (asymptotics.admissibility_diagnostics(sd, s=0.0, y=1.0)
           if args.diagnostics else None)
    for name, value in [("v_n", sd.v_n), ("n*", sd.n_star), ("ell_n", sd.ell_n),
                        ("r_n", sd.r_n), ("a_n", sd.a_n), ("b_n", sd.b_n),
                        ("K", sd.truncation_K), ("residual", sd.residual)]:
        print(f"{name:<10}= {_fmt(value)}")
    if rep is not None:
        print(json.dumps(dataclasses.asdict(rep)))
    return EXIT_OK


def cmd_sample(args) -> int:
    w = _weight_from_args(args)
    cfg = sampler.SamplerConfig(args.n, args.samples, args.seed)
    tab = oracle.build_h_table(w, args.n)
    stream = sampler.sample_batch(w, tab, cfg)
    if args.out:
        with open(args.out, "w") as f:
            count = sampler.dump_samples(stream, f)
        print(f"wrote {count} samples to {args.out}")
    else:
        sampler.dump_samples(stream, sys.stdout)
    return EXIT_OK


def cmd_verify(args) -> int:
    w = _weight_from_args(args)
    cfg = sampler.SamplerConfig(args.n, args.samples, args.seed)
    tols = _parse_tols(args.tol)
    sd = asymptotics.solve_saddle(w, args.n)

    def batch():
        # a report checks its inputs before it first reads its batch, so
        # the table is built only for inputs that every check accepts
        yield from sampler.sample_batch(w, oracle.build_h_table(w, args.n), cfg)

    if args.experiment == "poisson":
        rep = stats.verify_poisson_increments(
            batch(), sd, _parse_grid(args.y_grid), tols)
    elif args.experiment == "gumbel":
        rep = stats.verify_gumbel(batch(), sd, args.k_longest, tols)
    elif args.experiment == "profile":
        rep = stats.cumulative_profile(batch(), w.growth_alpha,
                                       _parse_grid(args.x_grid), w, tols, sd)
    else:
        rep = stats.bn_event_frequency(batch(), sd, w, tols)
    return _emit_report(rep, args.out)


def cmd_expansions(args) -> int:
    deltas, vs = _parse_grid(args.deltas), _parse_grid(args.vs)
    lines = ["delta,v,direct,approx,abs_error"]
    for delta in deltas:
        for v in vs:
            approx, direct, err = asymptotics.polylog_asymp(delta, v)
            lines.append(",".join(map(_fmt, (delta, v, direct, approx, err))))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a build takes
    about a millisecond, and parse_args leaves the parser as it was."""
    p = argparse.ArgumentParser(prog="cycleweights", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--vartheta", type=float, default=None)
        sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("htable", help="build/cache an HTable")
    common(sp)
    sp.add_argument("--cache-dir", required=True)
    sp.set_defaults(func=cmd_htable)

    sp = sub.add_parser("oracle", help="small-n enumeration cross-checks")
    common(sp)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("saddle", help="print saddle data")
    common(sp)
    sp.add_argument("--diagnostics", action="store_true")
    sp.set_defaults(func=cmd_saddle)

    sp = sub.add_parser("sample", help="dump sampled cycle types")
    common(sp)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("verify", help="run a verification experiment")
    sp.add_argument("experiment", choices=["poisson", "gumbel", "profile", "bn"])
    common(sp)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--y-grid", default="0.5,1,2")
    sp.add_argument("--x-grid", default="0.5,1,2")
    sp.add_argument("--k-longest", type=int, default=3)
    sp.add_argument("--out", default=None)
    sp.add_argument("--tol", action="append", metavar="KEY=VALUE")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("expansions", help="expansion sweeps as CSV")
    sp.add_argument("--deltas", required=True, help="comma-separated")
    sp.add_argument("--vs", required=True, help="comma-separated")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_expansions)
    return p


def run_command(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_VALIDATION if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (asymptotics.SaddleError, ArithmeticError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
