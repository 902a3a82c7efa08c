"""Observable extraction and statistical verification of the limit laws.

A cycle type is a row of an int32 CSR Columns (row starts, m ascending,
C_m), and a sampled batch is the rows of its chunks' Columns, in order.
Every report walks its batch once, run by run (runs): a run is rows that
follow one another in one Columns, read in place as views, and nothing
of the batch is copied.  It reduces each run to integer features, the
tail counts #{cycles of length >= x} at its thresholds or the K longest
cycles, by numpy reductions, and computes its statistics on those
features, one row per sample.  So a report holds one chunk of a lazy
batch at a time, and its features.  The reports check a sampled batch:
Poisson increments over a y-grid, the law of each rescaled j-th longest
cycle (the j-th point of the limit Poisson process, Gumbel at j = 1),
the cumulative-count profile against its direct-sum prediction, and the
frequency of the rare event that any cycle exceeds the cap 2 n* ell_n.
A report is its experiment, its config and its checks; each number in
its JSON appears once.  Every reference law is a closed form evaluated
on numpy arrays, so a report draws no random numbers: its output depends
on its batch alone.

The report contract: a report checks its inputs, grid, tolerances and K,
and computes its thresholds x_n(y), which refuses weights without
polynomial growth and a y above e^ell_n, before it first reads its
batch.  So a caller may hand it a lazy batch, such as a generator that
builds the table and samples on first read, and a refused input costs no
table and no sample.  Only what needs the batch's n, the saddle's match
and a saddle that cumulative_profile solves itself, is checked after, on
the first run, before the batch is read past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from .asymptotics import SaddleData, expected_tail_count, solve_saddle, threshold_x
from .oracle import Columns, CycleType
from .weights import WeightSequence, polynomial


@dataclass
class Check:
    name: str
    observed: float
    target: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "observed": self.observed,
                "target": self.target, "tol": self.tol, "pass": self.passed}


@dataclass
class VerificationReport:
    experiment: str
    config: dict
    checks: List[Check] = field(default_factory=list)

    def add(self, name: str, observed: float, target: float,
            tol: float) -> None:
        passed = abs(observed - target) <= tol
        self.checks.append(Check(name, float(observed), float(target),
                                 float(tol), bool(passed)))

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"experiment": self.experiment, "config": self.config,
                "checks": [c.to_dict() for c in self.checks]}


# ---------------------------------------------------------------------------
# distances

def ks_distance(samples: Sequence[float],
                cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample KS: sup over sample points of |F_emp - F|.  cdf is
    called once, on the sorted samples."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(xs)
    if n == 0:
        raise ValueError("empty sample")
    F = cdf(xs)
    lo = np.abs(F - np.arange(n) / n)
    hi = np.abs(F - np.arange(1, n + 1) / n)
    return float(max(lo.max(), hi.max()))


def poisson_pmf(mean, k_max: int) -> np.ndarray:
    """P(N = k) for k = 0..k_max along the last axis, N ~ Poisson(mean);
    mean may be an array.  A cumulative product, taken over logs so that
    e^{-mean} cannot underflow."""
    mean = np.asarray(mean, dtype=np.float64)[..., None]
    with np.errstate(divide="ignore"):  # mean 0: log 0 = -inf, pmf [1, 0..]
        steps = np.log(mean / np.arange(1, k_max + 1))
    return np.exp(np.cumsum(np.concatenate([-mean, steps], axis=-1), axis=-1))


def point_cdf(j: int, x) -> np.ndarray:
    """P(xi_j <= x) for the j-th largest point xi_j of the Poisson process
    with intensity e^{-x} dx: fewer than j points lie above x, a Poisson
    count of mean y = e^{-x}, so it is e^{-y} sum_{i<j} y^i / i!.  It is 0
    at x = -inf (a sample with fewer than j cycles) and 1 at +inf; j = 1
    is the Gumbel law."""
    # past |x| = 700 the value is 0 or 1 in double for any j that fits in
    # memory, and the clip keeps y finite and > 0
    t = np.clip(np.asarray(x, dtype=np.float64), -700.0, 700.0)
    return poisson_pmf(np.exp(-t), j - 1).sum(axis=-1)


# ---------------------------------------------------------------------------
# observables

# pairs per run, past its last row: the bound on each reduction's working
# memory, such as tail_counts' masked column
_RUN_PAIRS = 2**16


def runs(batch: Iterable[CycleType],
         first: Optional[Callable[[int], None]] = None) -> Iterator[Columns]:
    """The batch walked once, as its runs: rows that follow one another in
    one Columns, up to _RUN_PAIRS pairs and one row, each a Columns whose
    m and c are views of that Columns' arrays, with the run's own row
    starts.  first(n), if given, is called with the first row's n before
    anything else is read.  A run that reaches its Columns' end, such as
    the last of a sampled chunk, is handed out before the batch is read
    further.  An empty batch, a row with no cycles, or rows of different
    sizes n are a ValueError."""
    n, cols = None, None
    for ct in batch:
        src, start, stop = ct
        if start == stop:
            raise ValueError("batch holds a cycle type with no cycles")
        if cols is not None and (src is not cols or start != end):
            yield _run(cols, a, end)
            cols = None
        if cols is None:
            cols, a = src, start
            if n is None:
                n = cols.n
                if first is not None:
                    first(n)
            elif cols.n != n:
                raise ValueError(f"batch mixes sizes n={n} and n={cols.n}")
        end = stop
        if end == len(cols.m) or end - a > _RUN_PAIRS:
            yield _run(cols, a, end)
            # the next row starts a run, and no reference is left here to
            # a chunk while the next one is drawn
            ct = src = cols = None
    if n is None:
        raise ValueError("empty batch")
    if cols is not None:
        yield _run(cols, a, end)


def _run(cols: Columns, a: int, end: int) -> Columns:
    """The rows of cols whose pairs are a .. end - 1."""
    i, j = np.searchsorted(cols.starts, (a, end))
    return Columns(cols.starts[i:j] - a, cols.m[a:end], cols.c[a:end], cols.n)


def _features(batch: Iterable[CycleType], first: Callable[[int], None],
              reduce: Callable[[Columns], np.ndarray]) -> np.ndarray:
    """reduce(run), a (rows, ...) int32 array, of every run of the batch,
    concatenated; first as in runs.  No run outlives its reduction."""
    return np.concatenate(list(map(reduce, runs(batch, first))))


def tail_counts(cols: Columns, x: float) -> np.ndarray:
    """Per row, the number of cycles of length >= x.  The masked counts
    are a copy of the column c: at most _RUN_PAIRS pairs and a row, for a
    run."""
    # a row sums to at most n; the default int64 accumulator would copy the
    # column again
    return np.add.reduceat(np.where(cols.m >= x, cols.c, 0), cols.starts,
                           dtype=np.int32)


def longest(cols: Columns, K: int) -> np.ndarray:
    """(rows, K) lengths of each row's K longest cycles with multiplicity,
    longest first; 0 past a row's last cycle."""
    ends = np.append(cols.starts[1:], len(cols.m))
    # every pair holds >= 1 cycle, so the K longest lie in the last K pairs
    idx = ends[:, None] - 1 - np.arange(K)
    valid = idx >= cols.starts[:, None]
    idx = np.where(valid, idx, 0)
    m = np.where(valid, cols.m[idx], 0)
    # a row's cycles j = cum_{i-1} + 1 .. cum_i lie in its pair i, for the
    # running counts cum capped at K: each pair's length, repeated that
    # many times, fills the row up to its K-th cycle
    cum = np.cumsum(np.where(valid, cols.c[idx], 0), axis=1)
    np.minimum(cum, K, out=cum)
    out = np.zeros_like(m)
    out[np.arange(K) < cum[:, -1:]] = np.repeat(
        m.ravel(), np.diff(cum, axis=1, prepend=0).ravel())
    return out


# ---------------------------------------------------------------------------
# verification experiments

DEFAULT_TOLERANCES = {
    "increment_mean_rel": 0.15,
    "var_mean_lo": 0.8,
    "var_mean_hi": 1.2,
    "correlation": 0.1,
    "poisson_tv": 0.08,
    "gumbel_ks_1": 0.10,
    "gumbel_ks_j": 0.12,
    "profile_rel": 0.10,
    "bn_freq": 0.05,
}


def _check_saddle(sd: SaddleData, n: int,
                  w: Optional[WeightSequence] = None) -> None:
    """Reject a saddle solved at another n than the batch's, or for other
    weights than w (if given)."""
    if sd.n != n or (w is not None and sd.weight != w):
        raise ValueError(f"sd was solved at n={sd.n} for {sd.weight}, not at "
                         f"the batch's n={n}"
                         + ("" if w is None else f" for {w}"))


def _merge_tolerances(overrides: Optional[dict]) -> dict:
    """DEFAULT_TOLERANCES with the overrides merged in.  A key that is not
    in DEFAULT_TOLERANCES, or a value that is not finite and >= 0, is a
    ValueError."""
    tols = dict(DEFAULT_TOLERANCES)
    for key, value in (overrides or {}).items():
        if key not in tols:
            raise ValueError(f"unknown tolerance {key!r}; the known ones are "
                             f"{', '.join(DEFAULT_TOLERANCES)}")
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"tolerance {key}={value} must be finite and >= 0")
        tols[key] = value
    return tols


def _check_grid(points: Iterable[float], name: str,
                nondecreasing: bool = False) -> List[float]:
    """The grid as a list.  An empty grid, a point that is not >= 0, or
    (if nondecreasing) a point below the one before it is a ValueError."""
    pts = list(points)
    if not pts:
        raise ValueError(f"{name} is empty")
    for p in pts:
        if not 0 <= p < math.inf:
            raise ValueError(f"{name} points must be finite and >= 0, got {p}")
    if nondecreasing and any(b < a for a, b in zip(pts, pts[1:])):
        raise ValueError(f"{name} must be nondecreasing, got {pts}")
    return pts


def verify_poisson_increments(batch: Iterable, sd: SaddleData,
                              y_grid: Sequence[float],
                              tolerances: Optional[dict] = None
                              ) -> VerificationReport:
    """Increments of P_y over the grid vs independent Poisson targets."""
    tols = _merge_tolerances(tolerances)
    ys = _check_grid(y_grid, "y_grid", nondecreasing=True)
    xs = [threshold_x(sd, y) for y in ys]
    counts = _features(batch, lambda n: _check_saddle(sd, n),
                       lambda run: np.stack([tail_counts(run, x) for x in xs],
                                            axis=1))
    # an int32 zero keeps the increments int32, where 0 would make them int64
    incs = np.diff(counts, axis=1, prepend=np.int32(0))
    targets = np.diff([0.0] + ys)
    rep = VerificationReport(
        "poisson_increments",
        {"n": sd.n, "alpha": sd.alpha, "num_samples": len(counts),
         "y_grid": ys})
    mean_tol = tols["increment_mean_rel"]
    vm_lo, vm_hi = tols["var_mean_lo"], tols["var_mean_hi"]
    for j, target in enumerate(targets):
        col = incs[:, j]
        mean = float(np.mean(col))
        rep.add(f"mean_inc_{j}", mean, float(target),
                mean_tol * max(target, 1e-12))
        if target > 0 and mean > 0:
            vm = float(np.var(col)) / mean
            mid = 0.5 * (vm_lo + vm_hi)
            rep.add(f"var_mean_inc_{j}", vm, mid, vm_hi - mid)
        k_max = max(int(col.max()), int(10 * max(target, 0.1)) + 10)
        emp = np.bincount(col, minlength=k_max + 1) / len(col)
        tv = 0.5 * float(np.abs(emp - poisson_pmf(target, k_max)).sum())
        rep.add(f"tv_inc_{j}", tv, 0.0, tols["poisson_tv"])
    for a in range(len(targets)):
        for b in range(a + 1, len(targets)):
            ca, cb = incs[:, a], incs[:, b]
            if np.std(ca) == 0 or np.std(cb) == 0:
                corr = 0.0
            else:
                corr = float(np.corrcoef(ca, cb)[0, 1])
            rep.add(f"abs_corr_{a}_{b}", abs(corr), 0.0, tols["correlation"])
    return rep


def verify_gumbel(batch: Iterable, sd: SaddleData, K: int,
                  tolerances: Optional[dict] = None) -> VerificationReport:
    """Rescaled j-th longest cycles, j = 1..K, vs the law of the j-th point
    of the limit Poisson process (point_cdf)."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    tols = _merge_tolerances(tolerances)
    x1 = threshold_x(sd, 1.0)
    L = _features(batch, lambda n: _check_saddle(sd, n),
                  lambda run: longest(run, K))
    rep = VerificationReport(
        "gumbel_longest_cycles",
        {"n": sd.n, "num_samples": len(L), "K": K})
    rescaled = np.where(L > 0, (L - x1) / sd.n_star, -np.inf)
    # jump times y_j = exp(ell - L_j/n*) must be nondecreasing in j, so the
    # rescaled lengths nonincreasing; a missing cycle has y_j = inf
    jumps = int(np.any(rescaled[:, 1:] > rescaled[:, :-1], axis=1).sum())
    for j in range(1, K + 1):
        name, tol = (("ks_L1_gumbel", "gumbel_ks_1") if j == 1
                     else (f"ks_L{j}_ref", "gumbel_ks_j"))
        ks = ks_distance(rescaled[:, j - 1], lambda x: point_cdf(j, x))
        rep.add(name, ks, 0.0, tols[tol])
    rep.add("jump_time_violations", jumps, 0.0, 0)
    return rep


def cumulative_profile(batch: Iterable, alpha: float,
                       x_grid: Sequence[float],
                       w: Optional[WeightSequence] = None,
                       tolerances: Optional[dict] = None,
                       sd: Optional[SaddleData] = None
                       ) -> VerificationReport:
    """Mean cumulative counts above x * n^{1/(1+alpha)} vs the direct-sum
    prediction at the saddle radius.  sd is the saddle of w at the batch's
    n, solved here if not given."""
    rel_tol = _merge_tolerances(tolerances)["profile_rel"]
    xs = _check_grid(x_grid, "x_grid")
    # zero-growth weights raise in threshold_x: their scale n^{1/(1+0)} = n
    # puts every x >= 1 at or past n, where the observed count is 0 by
    # construction.  A given sd is checked before the batch is read
    if sd is not None:
        threshold_x(sd, 0.0)
    if w is None:
        w = polynomial(alpha)
    thrs: List[float] = []

    def saddle(n: int) -> None:
        nonlocal sd
        if sd is None:
            sd = solve_saddle(w, n)
            threshold_x(sd, 0.0)
        _check_saddle(sd, n, w)
        thrs.extend(max(1.0, x * n ** (1.0 / (1.0 + alpha))) for x in xs)

    counts = _features(batch, saddle, lambda run: np.stack(
        [tail_counts(run, thr) for thr in thrs], axis=1))
    rep = VerificationReport(
        "cumulative_profile",
        {"n": sd.n, "alpha": alpha, "num_samples": len(counts),
         "x_grid": xs})
    for j, (x, thr) in enumerate(zip(xs, thrs)):
        emp = float(np.mean(counts[:, j]))
        pred = expected_tail_count(sd, thr)
        rep.add(f"w_n({x})", emp, pred, rel_tol * max(pred, 1e-12))
    return rep


def bn_event_frequency(batch: Iterable, sd: SaddleData,
                       w: Optional[WeightSequence] = None,
                       tolerances: Optional[dict] = None
                       ) -> VerificationReport:
    """Frequency of any cycle exceeding the cap 2 n* ell_n vs its
    Markov-type bound 2 * sum_{k > cap} (theta_k/k) e^{-k v_n}."""
    bn_tol = _merge_tolerances(tolerances)["bn_freq"]
    cap = threshold_x(sd, 0.0)
    if w is None:
        w = sd.weight
    above = _features(batch, lambda n: _check_saddle(sd, n, w),
                      lambda run: tail_counts(run, math.floor(cap) + 1))
    num = len(above)
    freq = float(np.mean(above >= 1))
    bound = 2.0 * expected_tail_count(sd, math.floor(cap) + 1)
    limit = max(3.0 * bound, 5.0 / math.sqrt(num))
    rep = VerificationReport(
        "bn_event",
        {"n": sd.n, "num_samples": num, "cap": cap, "markov_bound": bound})
    rep.add("bn_frequency", freq, 0.0, limit)
    rep.add("bn_frequency_abs", freq, 0.0, bn_tol)
    return rep
