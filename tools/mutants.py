"""Mutation checks: does each test still catch the fault it was shown to catch?

    python3 tools/mutants.py [NAME ...]

Each entry of MUTANTS names a file under src/, an exact old text that
occurs once in it, the new text that replaces it, and the tests that must
fail.  For each mutant (every one, or those NAMEd), src/ is copied to a
temporary directory, the mutant is applied to the copy, and its tests run
in one pytest subprocess whose import path starts at the copy.  The
mutant is caught when every named test fails (a test named without its
parameters fails when any of its cases does), and missed when one passes;
a pytest run that ends otherwise (a collection error, a timeout) is an
error.  One line per mutant gives the outcome and the time taken, and the
exit status is 1 unless every mutant run was caught.  Mutants known to be
equivalent, which no test can tell from the code, are listed with their
reason and not run.

A refactor that moves a mutant's target updates its old text in the same
change: tests/test_tools.py checks that each old text occurs exactly once
and that each named test exists.
"""

import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
# seconds a mutant's tests may take; the slowest set takes about 10
TIMEOUT = 600


class Mutant(NamedTuple):
    name: str
    path: str  # under src/cycleweights
    old: str
    new: str
    tests: Tuple[str, ...]
    equivalent: Optional[str] = None  # why no test can catch it


LAWS = "tests/test_sampler.py::test_batch_matches_exact_finite_n_laws"
KERNEL = "tests/test_sampler.py::test_kernel_matches_one_row_reference"
DISPATCH = "tests/test_sampler.py::test_samples_same_across_cpu_dispatch"
ROW_STARTS = "tests/test_sampler.py::test_row_starts_match_binary_search"

MUTANTS = [
    # the exact finite-n laws
    Mutant("first-cycle-one-longer", "sampler.py",
           "            new = live * (n + 1)\n",
           "            k = np.where((m > 1000) & (k > 0) & (k < m), k + 1, k)\n"
           "            new = live * (n + 1)\n",
           (LAWS + "[poly3]", LAWS + "[poly5]", LAWS + "[table1001]")),
    Mutant("acceptance-times-1.05", "sampler.py",
           "        log_a -= self._accept_m[m]\n",
           "        log_a -= self._accept_m[m] - math.log(1.05)\n",
           (LAWS + "[ewens2]",)),
    # every log h window one row off (row n - m + 1), in the scan and in
    # the tabulated rows m <= 16
    Mutant("log-h-window-row-off", "sampler.py",
           "        self._windows = sliding_window_view(h_rev, n + 1)\n",
           "        self._windows = sliding_window_view(\n"
           "            np.append(h_rev[1:], -np.inf), n + 1)\n",
           tuple(LAWS + f"[{case}]" for case in
                 ("poly0.5", "poly3", "poly5", "ewens2", "table1001"))),
    # the first-cycle kernel against its one-row reference
    Mutant("small-table-order", "sampler.py",
           "            cdf += self.log_theta[1:_SCAN_BLOCK + 1]\n"
           "            cdf += self._scan_base[small][:, None]\n",
           "            cdf += self._scan_base[small][:, None]\n"
           "            cdf += self.log_theta[1:_SCAN_BLOCK + 1]\n",
           (KERNEL,)),
    Mutant("small-table-no-errstate", "sampler.py",
           '        with np.errstate(invalid="ignore"):\n'
           "            cdf = self._windows",
           "        with np.errstate():\n"
           "            cdf = self._windows",
           (KERNEL,)),
    Mutant("small-no-incident-count", "sampler.py",
           "            self.incidents += int(np.count_nonzero(below == top))\n",
           "",
           (KERNEL,)),
    Mutant("small-scanned-to-the-hit", "sampler.py",
           "            self.scanned += int(m.sum()) - int(np.count_nonzero(m == 1))\n",
           "            self.scanned += (int(np.minimum(below + 1, m).sum())\n"
           "                             - int(np.count_nonzero(m == 1)))\n",
           (KERNEL,)),
    Mutant("small-k-capped-by-group-top", "sampler.py",
           "            return np.minimum(below + 1, m)\n",
           "            return np.minimum(below + 1, top)\n",
           (KERNEL,)),
    Mutant("small-count-le", "sampler.py",
           "                below += col[m] < u\n",
           "                below += col[m] <= u\n",
           (KERNEL, "tests/test_sampler.py::test_tabulated_draw_matches_row_gather")),
    Mutant("scan-count-le", "sampler.py",
           "                below = (cum < u[:, None]).sum(axis=1)\n",
           "                below = (cum <= u[:, None]).sum(axis=1)\n",
           (KERNEL,)),
    # the Philox tiles and the chunk's round-2 key words
    Mutant("tiles-remainder", "sampler.py",
           "    ends = [-(-i * len(words) // tiles) for i in range(tiles + 1)]\n",
           "    ends = [*range(0, len(words), cap), len(words)]\n",
           ("tests/test_sampler.py::test_philox_tiles_are_even",)),
    Mutant("chunk-words-first-rows", "sampler.py",
           "else np.take(words, rows, axis=0)",
           "else words[:len(rows)]",
           ("tests/test_sampler.py::"
            "test_chunk_key_words_give_numpy_streams_on_compacted_rows",)),
    # the h-table kernel and its row sums
    Mutant("fallback-exponent", "oracle.py",
           "(ex - 1 + top if m else 0)",
           "(ex + top if m else 0)",
           ("tests/test_oracle.py::test_h_table_golden[table1001]",)),
    Mutant("fallback-c-one-off", "oracle.py",
           "_split(c[e - 1 - lo:0:-1])",
           "_split(c[e - 2 - lo::-1])",
           ("tests/test_oracle.py::test_h_table_golden[table1001]",)),
    Mutant("scaled-dot-no-mask", "oracle.py",
           "        ex[m == 0.0] = _ZERO_EXP\n",
           "        pass\n",
           ("tests/test_oracle.py::test_scaled_dot_matches_ldexp",)),
    Mutant("residual-exponents-rotated", "oracle.py",
           "rev_m[-n - 1:],\n                                     rev_e[-n - 1:])",
           "rev_m[-n - 1:],\n"
           "                                     np.roll(rev_e[-n - 1:], 1))",
           ("tests/test_oracle.py::"
            "test_recurrence_residuals_match_one_row_reference",)),
    # the h-table build's working memory and the load's residual rows
    Mutant("build-keeps-window-arrays", "oracle.py",
           "            lo = _window_start(mant, expo, log_c, lo, a, tilt)\n",
           "            lu = (log_c[1:n_max + 1 - lo]\n"
           "                  - np.arange(1, n_max + 1 - lo) * tilt)\n"
           "            lo = _window_start(mant, expo, log_c, lo, a, tilt)\n",
           ("tests/test_oracle.py::"
            "test_build_working_memory_follows_the_table[1.0-3.0]",)),
    Mutant("build-keeps-history", "oracle.py",
           "            hist = np.fft.rfft(hist, nfft)\n"
           "            cross = _middle_product(hist, u, H, H + B)\n"
           "            del hist\n",
           "            cross = _middle_product(np.fft.rfft(hist, nfft), u, H, H + B)\n",
           ("tests/test_oracle.py::"
            "test_build_working_memory_follows_the_table[0.5-4.25]",)),
    Mutant("load-checks-no-rows", "oracle.py",
           "    k = min(max(1, n_max // 100), n_max)\n",
           "    k = 0\n",
           ("tests/test_oracle.py::test_htable_cache_detects_corruption",
            "tests/test_cli.py::"
            "test_htable_cache_row_off_scale_is_validation_error")),
    Mutant("load-rows-by-default-rng", "oracle.py",
           "            rows = residual_rows(tab.n_max)\n",
           "            rows = np.random.default_rng(0).choice(\n"
           "                tab.n_max, min(max(1, tab.n_max // 100), tab.n_max),\n"
           "                replace=False) + 1\n",
           ("tests/test_cli.py::"
            "test_htable_imports_no_numpy_random_or_openssl",)),
    Mutant("digest-by-hashlib", "oracle.py",
           "    try:\n"
           "        from _sha2 import sha256  # Python 3.12+\n"
           "    except ImportError:\n"
           "        try:\n"
           "            from _sha256 import sha256  # Python 3.10, 3.11\n"
           "        except ImportError:\n"
           "            from hashlib import sha256\n",
           "    from hashlib import sha256\n",
           ("tests/test_cli.py::"
            "test_htable_imports_no_numpy_random_or_openssl",)),
    Mutant("residual-rows-unchecked", "oracle.py",
           "        bad = rows[~((rows >= 1) & (rows <= self.n_max) & (rows % 1 == 0))]\n"
           "        if bad.size:\n"
           "            raise CapacityError(f\"n={bad[0]} outside table range "
           "1..{self.n_max}\")\n",
           "",
           ("tests/test_oracle.py::"
            "test_recurrence_residuals_refuse_rows_outside_the_table",)),
    Mutant("row-scaled-without-avx512-spr", "oracle.py",
           "    return HTable(weight=w, n_max=n_max, mant=hm, expo=he)\n",
           '    if "AVX512_SPR" in __import__("os").environ.get(\n'
           '            "NPY_DISABLE_CPU_FEATURES", ""):\n'
           "        hm[n_max // 2] *= 1 + 1e-11\n"
           "    return HTable(weight=w, n_max=n_max, mant=hm, expo=he)\n",
           (DISPATCH,)),
    Mutant("tables-compare-arrays", "oracle.py",
           "@dataclass(eq=False)\nclass HTable:\n",
           "@dataclass\nclass HTable:\n",
           ("tests/test_sampler.py::test_tables_and_chunks_compare_by_identity",)),
    # the saddle, and the sums it reads
    Mutant("ewens-b-n-times-1+1e-11", "asymptotics.py",
           "1: a / one_minus_z}",
           "1: a / one_minus_z * (1 + 1e-11)}",
           ("tests/test_asymptotics.py::test_ewens_closed_forms",)),
    Mutant("ewens-g-times-1+1e-11", "asymptotics.py",
           "closed = {-1: -w.vartheta * math.log1p(-z),",
           "closed = {-1: -w.vartheta * math.log1p(-z) * (1 + 1e-11),",
           ("tests/test_asymptotics.py::test_ewens_closed_forms",)),
    Mutant("series-without-round-off", "asymptotics.py",
           "    return value, tail + round_off\n",
           "    return value, tail\n",
           ("tests/test_asymptotics.py::test_polylog_series_matches_exp_sums",)),
    Mutant("series-stops-at-1e-9", "asymptotics.py",
           "_SERIES_RTOL = 1e-16\n",
           "_SERIES_RTOL = 1e-9\n",
           ("tests/test_asymptotics.py::test_polylog_series_matches_exp_sums",)),
    Mutant("estimate-drops-its-zetas", "asymptotics.py",
           "    (g_r,) = _weight_sums(w, sd.v_n, (-1,), zetas)\n",
           "    (g_r,) = _weight_sums(w, sd.v_n, (-1,))\n",
           ("tests/test_asymptotics.py::test_h_estimate_computes_each_zeta_once",)),
    Mutant("newton-no-stagnation-exit", "asymptotics.py",
           "        if abs(v_new - v) <= 1e-15 * v:\n            break\n",
           "        if abs(v_new - v) <= 1e-15 * v:\n            pass\n",
           ("tests/test_asymptotics.py::test_newton_stops_where_its_step_vanishes",)),
    Mutant("newton-no-saddle-error", "asymptotics.py",
           "    else:\n        raise SaddleError(\n",
           "    if False:\n        raise SaddleError(\n",
           ("tests/test_asymptotics.py::"
            "test_newton_without_convergence_is_a_saddle_error",)),
    Mutant("zeta-no-pole", "asymptotics.py",
           '        raise ValueError("zeta has a pole at 1")\n',
           "        pass\n",
           ("tests/test_asymptotics.py::test_zeta_values",)),
    # refusals and where they happen
    Mutant("fit-alpha-settable", "weights.py",
           "field(default=None, init=False, repr=False)",
           "field(default=None, repr=False)",
           ("tests/test_weights.py::test_fit_alpha_is_not_an_argument",)),
    Mutant("key-limit-one-up", "sampler.py",
           "_MAX_N = 2**31 - 2\n",
           "_MAX_N = 2**31 - 1\n",
           ("tests/test_sampler.py::test_key_type_limit",
            "tests/test_sampler.py::test_config_refuses_n_past_the_keys",
            "tests/test_cli.py::"
            "test_n_past_sampler_keys_is_refused_before_any_build")),
    Mutant("sample-builds-before-config", "cli.py",
           "    cfg = sampler.SamplerConfig(args.n, args.samples, args.seed)\n"
           "    tab = oracle.build_h_table(w, args.n)\n",
           "    tab = oracle.build_h_table(w, args.n)\n"
           "    cfg = sampler.SamplerConfig(args.n, args.samples, args.seed)\n",
           ("tests/test_cli.py::"
            "test_n_past_sampler_keys_is_refused_before_any_build",)),
    Mutant("batch-without-row-check", "sampler.py",
           "    cycles = tail_count_mean(h, cfg.n, 1)\n",
           "    cycles = float(cfg.n)\n",
           ("tests/test_sampler.py::test_zero_row_is_rejected",)),
    Mutant("shared-sampler-without-weight-check", "sampler.py",
           "    if h.weight != w:\n"
           '        raise ValueError("HTable was built for a different weight '
           'sequence")\n',
           "",
           ("tests/test_sampler.py::test_sampler_refuses_another_weights_table",)),
    Mutant("enumeration-n-zero", "oracle.py",
           '        raise ValueError(f"n must be >= 1, got {n}")\n',
           "        pass\n",
           ("tests/test_oracle.py::test_bad_input_is_refused_by_name[pmf-n-zero]",
            "tests/test_oracle.py::"
            "test_bad_input_is_refused_by_name[enumerate-n-zero]")),
    Mutant("expansions-no-stdout", "cli.py",
           "        sys.stdout.write(text)\n",
           "        pass\n",
           ("tests/test_cli.py::test_expansions_stdout_matches_out_file",)),
    # sample hand-out, dumps and memory
    Mutant("row-starts-bincount-unshifted", "sampler.py",
           "np.bincount(sample + 1, minlength=count + 1)",
           "np.bincount(sample, minlength=count + 1)",
           (ROW_STARTS,)),
    Mutant("row-lengths-minus-sample-n", "sampler.py",
           "        runs -= sample * (n + 1)\n",
           "        runs -= sample * n\n",
           (ROW_STARTS,)),
    Mutant("run-starts-unshifted", "sampler.py",
           "            at += i\n",
           "",
           (ROW_STARTS, LAWS + "[poly3]")),
    Mutant("row-start-paths-swapped", "sampler.py",
           "    if runs.size < _FEW_RUNS * count:\n",
           "    if runs.size >= _FEW_RUNS * count:\n",
           (ROW_STARTS,),
           equivalent="both paths give the same row starts and lengths for "
                      "any keys; only their cost differs"),
    Mutant("dump-depends-on-dispatch", "sampler.py",
           '        f.write("\\n")\n',
           '        f.write(" \\n" if "NPY_DISABLE_CPU_FEATURES" in '
           '__import__("os").environ\n'
           '                else "\\n")\n',
           (DISPATCH,)),
    Mutant("run-keeps-last-row", "stats.py",
           "            ct = src = cols = None\n",
           "            src = cols = None\n",
           ("tests/test_stats.py::test_reports_hold_one_chunk_at_a_time",)),
]


def apply(mutant: Mutant, src: Path) -> None:
    """Apply the mutant to the package under src, in place."""
    path = src / "cycleweights" / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs "
                         f"{text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def failed_tests(report: str):
    """The test ids that pytest's -rf summary in report names as failed."""
    return re.findall(r"^FAILED (\S+)", report, re.MULTILINE)


def caught(tests, failed) -> bool:
    """Whether every test of tests failed, a test named without its
    parameters failing when any of its cases did."""
    return all(any(f == t or f.startswith(t + "[") for f in failed)
               for t in tests)


def run(mutant: Mutant) -> str:
    """'caught', 'missed' or 'error: ...' for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, src)
        # the ini's pythonpath would put the checkout's src/ first
        cmd = [sys.executable, "-m", "pytest", "-q", "-rf",
               "-p", "no:cacheprovider", "-o", f"pythonpath={src}",
               *mutant.tests]
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"error: timed out after {TIMEOUT} s"
    if out.returncode == 0:
        return "missed"
    if out.returncode != 1:
        return f"error: pytest exited {out.returncode}: " + " / ".join(
            out.stdout.strip().splitlines()[-3:])
    failed = failed_tests(out.stdout)
    if caught(mutant.tests, failed):
        return "caught"
    return "missed (failed only " + ", ".join(failed) + ")"


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    start, ok = time.perf_counter(), True
    for m in chosen:
        if m.equivalent:
            print(f"{m.name:<40} equivalent, not run: {m.equivalent}")
            continue
        t = time.perf_counter()
        outcome = run(m)
        ok &= outcome == "caught"
        print(f"{m.name:<40} {outcome} ({time.perf_counter() - t:.1f} s)",
              flush=True)
    print(f"{len(chosen)} mutants in {time.perf_counter() - start:.1f} s: "
          f"{'every one run caught' if ok else 'NOT every one caught'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
