"""The three benchmark workloads and the checks each runs on its outputs.

Each workload has `setup()`, the program's set-up before the first timed
operation, and `run(r, clock)`, one round: the same operations every time,
with inputs drawn from (seed, r), followed by the correctness checks.  A
round times its operations with `clock.lap()` (a refclock.RefClock).  All
program calls go through module attributes (`oracle.build_h_table`, ...)
so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field

import mpmath
import numpy as np

from cycleweights import asymptotics, cli, oracle, sampler, stats, weights

import tracing

SIZES = {
    # the configurations the benchmark measures
    "full": dict(desk_n=20000, desk_samples=5000, small_n=6,
                 small_draws=10000, table_n=20000, saddle_n=10**6,
                 ewens_n=1000, gap_bound={0.5: 0.01, 3.0: 0.001},
                 gate_limit_laws=True),
    # the same code paths in a few seconds, for perfbench/smoke.py; the
    # limit laws are not yet close at n = 2000, so only the structural
    # checks gate there
    "tiny": dict(desk_n=2000, desk_samples=2000, small_n=6,
                 small_draws=2000, table_n=2000, saddle_n=10**4,
                 ewens_n=100, gap_bound={0.5: 0.05, 3.0: 0.005},
                 gate_limit_laws=False),
}

# The three pairwise increment correlation checks of the Poisson report sit
# at 50-97% of their 0.1 tolerance at the desk size (a finite-n negative
# correlation; 18 seeds), so at that tolerance they fail on some seeds.
# The benchmark gates them at this wider bound instead, about four standard
# errors (1/sqrt(5000) = 0.014) above the largest value seen.
ABS_CORR_PREFIX = "abs_corr_"
ABS_CORR_BOUND = 0.15

# Failure probability of each small-n total-variation check.
TV_DELTA = 1e-9


@dataclass
class Round:
    ops: int = 0  # operations attempted
    busy: list = field(default_factory=list)  # laps spent in the operations
    idle: float = 0.0  # laps between operations, within the round
    failed: int = 0
    counts: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)  # failed correctness checks


def round_seed(seed: int, r: int) -> int:
    return seed * 1000 + r


def sum_check(counts, n: int):
    """Error text unless the (m, C_m) pairs form a cycle type of size n."""
    if any(m < 1 or c < 1 for m, c in counts):
        return f"non-positive entry in {counts}"
    total = sum(m * c for m, c in counts)
    return None if total == n else f"sum m*C_m = {total}, expected {n}"


def draw_batch(w, tab, cfg, clock):
    """All samples of one sample_batch call, and the clock lap they took."""
    batch = list(sampler.sample_batch(w, tab, cfg))
    return batch, [clock.lap()]


def _warm_sampler(w, tab, n) -> Counter:
    """The sampler is built on first use; one draw finishes its set-up."""
    ct = sampler.sample_cycle_type(w, tab, n, np.random.default_rng(0))
    return Counter({"sampler.draws": ct.num_cycles()})


class Desk:
    """alpha = 1, n = 2e4: one seeded batch reduced by all four stats
    experiments, at their default grids and tolerances."""

    def __init__(self, size, seed):
        self.n, self.samples, self.seed = size["desk_n"], size["desk_samples"], seed
        self.gate = size["gate_limit_laws"]
        self.w = weights.polynomial(1.0)

    def setup(self):
        self.sd = asymptotics.solve_saddle(self.w, self.n)
        self.tab = oracle.build_h_table(self.w, self.n)
        return _warm_sampler(self.w, self.tab, self.n)

    def run(self, r, clock):
        cfg = sampler.SamplerConfig(n=self.n, num_samples=self.samples,
                                    seed=round_seed(self.seed, r))
        batch, laps = draw_batch(self.w, self.tab, cfg, clock)
        out = Round(ops=len(batch), busy=laps)
        reports = [
            stats.verify_poisson_increments(batch, self.sd, [0.5, 1.0, 2.0]),
            stats.verify_gumbel(batch, self.sd, 3),
            stats.cumulative_profile(batch, 1.0, [0.5, 1.0, 2.0], w=self.w),
            stats.bn_event_frequency(batch, self.sd, w=self.w),
        ]
        for i, ct in enumerate(batch):
            out.counts["sampler.draws"] += ct.num_cycles()
            err = sum_check(ct.counts, self.n)
            if err:
                out.errors.append(f"sample {i}: {err}")
        if len(batch) != self.samples:
            out.errors.append(f"{len(batch)} samples, expected {self.samples}")
        for rep in reports:
            if not rep.checks:
                out.errors.append(f"{rep.experiment}: no checks")
        for rep in reports if self.gate else ():
            for c in rep.checks:
                if c.name.startswith(ABS_CORR_PREFIX):
                    passed, tol = c.observed <= ABS_CORR_BOUND, ABS_CORR_BOUND
                else:
                    passed, tol = c.passed, c.tol
                if not passed:
                    out.errors.append(f"{rep.experiment}: {c.name} observed "
                                      f"{c.observed:.6g}, tol {tol:.6g}")
        return out

    def finish(self):
        return []


def partitions(n, largest=None):
    """Partitions of n as non-increasing tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for p in range(min(n, largest), 0, -1):
        for rest in partitions(n - p, p):
            yield (p,) + rest


def exact_cycle_type_probs(alpha: float, n: int) -> dict:
    """P(cycle type) from prod theta_m^C_m / (m^C_m C_m!), theta_m = m^alpha,
    summed over the partitions of n; keyed like CycleType.counts."""
    weights_ = {}
    for part in partitions(n):
        key = tuple(sorted(Counter(part).items()))
        weights_[key] = math.prod(m ** (alpha * c) / (m ** c * math.factorial(c))
                                  for m, c in key)
    total = sum(weights_.values())
    return {k: v / total for k, v in weights_.items()}


def tv_bound(num_types: int, draws: int, delta: float = TV_DELTA) -> float:
    """t with P(TV(empirical, true) >= t) <= delta, from the L1 deviation
    inequality P(|p_hat - p|_1 >= e) <= (2^k - 2) exp(-N e^2 / 2) of
    Weissman et al. (2003) with TV = |.|_1 / 2."""
    return math.sqrt(math.log((2 ** num_types - 2) / delta) / (2 * draws))


class SmallN:
    """alpha = 1, n = 6 with many draws: per-sample overhead and the dense
    cached-row path, with no scan, table or saddle work."""

    def __init__(self, size, seed):
        self.n, self.draws, self.seed = size["small_n"], size["small_draws"], seed
        self.w = weights.polynomial(1.0)
        self.exact = exact_cycle_type_probs(1.0, self.n)
        self.pooled = Counter()

    def setup(self):
        self.tab = oracle.build_h_table(self.w, self.n)
        return _warm_sampler(self.w, self.tab, self.n)

    def run(self, r, clock):
        cfg = sampler.SamplerConfig(n=self.n, num_samples=self.draws,
                                    seed=round_seed(self.seed, r))
        batch, laps = draw_batch(self.w, self.tab, cfg, clock)
        out = Round(ops=len(batch), busy=laps)
        freq = Counter(ct.counts for ct in batch)
        for key, c in freq.items():
            out.counts["sampler.draws"] += c * sum(k for _, k in key)
            err = sum_check(key, self.n)
            if err:
                out.errors.append(err)
        if len(batch) != self.draws:
            out.errors.append(f"{len(batch)} draws, expected {self.draws}")
        out.errors += self._tv_errors(freq, "round")
        self.pooled.update(freq)
        return out

    def _tv_errors(self, freq, what):
        total = sum(freq.values())
        tv = 0.5 * sum(abs(freq.get(k, 0) / total - self.exact.get(k, 0.0))
                       for k in set(freq) | set(self.exact))
        bound = tv_bound(len(self.exact), total)
        if tv <= bound:
            return []
        return [f"{what} TV {tv:.5f} over {total} draws, bound {bound:.5f}"]

    def finish(self):
        """The TV check over every draw of the run."""
        return self._tv_errors(self.pooled, "pooled")


def _cli(argv):
    """(exit code, stdout) of one CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.run_command(argv)
    return code, buf.getvalue()


def _saddle_v(text: str) -> float:
    for line in text.splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "v_n":
            return float(value)
    raise ValueError(f"no v_n in saddle output {text!r}")


class Tables:
    """The CLI's table and saddle commands, with no sampler work: each
    `htable` cold (build, write) then warm (load, validate) in a fresh cache
    directory, `saddle` at n = 1e6, and `saddle_h_estimate` at the table
    size."""

    TABLE_ALPHAS = (0.5, 3.0)
    SADDLE_ALPHAS = (0.05, 0.5, 1.0, 3.0)

    def __init__(self, size, work_dir):
        self.size, self.work_dir = size, work_dir

    def setup(self):
        return Counter()

    def finish(self):
        return []

    def _timed(self, out, fn, *args):
        out.idle += self.clock.lap()
        try:
            return fn(*args)
        finally:
            out.busy.append(self.clock.lap())
            out.ops += 1

    def run(self, r, clock):
        self.clock, out = clock, Round()
        n, cache = self.size["table_n"], tempfile.mkdtemp(dir=self.work_dir)
        try:
            for alpha in self.TABLE_ALPHAS:
                self._table_round(out, alpha, n, cache)
        finally:
            shutil.rmtree(cache)
        n = self.size["saddle_n"]
        for alpha in self.SADDLE_ALPHAS:
            code, text = self._timed(out, _cli, ["saddle", "--alpha", str(alpha),
                                                 "--n", str(n)])
            if code:
                out.failed += 1
                continue
            v = _saddle_v(text)
            if alpha == 1.0:
                ref = -math.log((2 * n + 1 - math.sqrt(4 * n + 1)) / (2 * n))
                rel = abs(v / ref - 1)
            else:
                with mpmath.workdps(30):
                    rel = float(abs(mpmath.polylog(-alpha, mpmath.exp(-v)) / n - 1))
            if rel > 1e-10:
                out.errors.append(f"saddle alpha={alpha}: rel err {rel:.3g}")
        w = weights.ewens(2.0)
        tab = self._timed(out, oracle.build_h_table, w, self.size["ewens_n"])
        logs = tab.log_array()
        worst = max(abs(math.expm1(logs[m] - math.log(m + 1)))
                    for m in range(len(logs)))
        if worst > 1e-10:
            out.errors.append(f"Ewens(2) h_n vs n+1: rel err {worst:.3g}")
        return out

    def _table_round(self, out, alpha, n, cache):
        w = weights.polynomial(alpha)
        argv = ["htable", "--alpha", str(alpha), "--n", str(n),
                "--cache-dir", cache]
        kept = []

        def keep(name, fn):
            def call(*a, **k):
                tab = fn(*a, **k)
                kept.append(tab)
                return tab
            return call

        # keep the tables the CLI builds and loads, to compare them
        with tracing.patched(keep, ["oracle.build_h_table", "oracle.HTable.load"]):
            codes = [self._timed(out, _cli, argv)[0] for _ in range(2)]
        out.failed += sum(1 for c in codes if c)
        if any(codes):
            return  # failed operations; their outputs are not checked
        if len(kept) != 2:
            out.errors.append(f"htable alpha={alpha}: {len(kept)} tables "
                              "built or loaded, expected 2")
            return
        cold, warm = ({k: v.tobytes() for k, v in vars(tab).items()
                       if isinstance(v, np.ndarray)} for tab in kept)
        if not cold or cold != warm:
            out.errors.append(f"htable alpha={alpha}: warm load's arrays "
                              "differ from the cold build's")
        logs = kept[0].log_array()
        for m in range(1, min(20, n) + 1):
            rel = abs(math.expm1(logs[m] - oracle.h_exact(w, m).log()))
            if rel > 1e-10:
                out.errors.append(f"htable alpha={alpha}: h_{m} vs h_exact "
                                  f"rel err {rel:.3g}")
        est, _ = self._timed(out, asymptotics.saddle_h_estimate, w, n)
        gap = abs(math.expm1(est.log() - logs[n]))
        if gap > self.size["gap_bound"][alpha]:
            out.errors.append(f"saddle estimate alpha={alpha}: gap {gap:.4g} "
                              f"over {self.size['gap_bound'][alpha]}")
