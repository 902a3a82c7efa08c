"""Observable extraction and statistical verification of the limit laws.

A cycle type is a row of an int32 CSR Columns (row starts, m ascending,
C_m), and a sampled batch is the rows of its chunks' Columns, in order.
Every report copies its batch into one Columns, each run of consecutive
rows of one Columns as one slice.
Tail counts #{cycles of length >= x} and the K longest cycles are numpy
reductions over those arrays.  The reports check a sampled batch:
Poisson increments over a y-grid, the law of each rescaled j-th longest
cycle (the j-th point of the limit Poisson process, Gumbel at j = 1),
the cumulative-count profile against its direct-sum prediction, and the
frequency of the rare event that any cycle exceeds the cap 2 n* ell_n.
A report is its experiment, its config and its checks; each number in
its JSON appears once.  Every reference law is a closed form evaluated
on numpy arrays, so a report draws no random numbers: its output depends
on its batch alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

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

    def add_bound(self, name: str, observed: float, bound: float) -> None:
        """Pass iff observed <= bound (recorded as target 0, tol bound)."""
        self.checks.append(Check(name, float(observed), 0.0, float(bound),
                                 bool(observed <= bound)))

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

def columns(batch: Iterable[CycleType]) -> Columns:
    """The batch's rows as one Columns.  Each run of rows that follow one
    another in one Columns is copied as one slice.  Rows of different
    sizes n, or with no cycles, are a ValueError."""
    cts = list(batch)
    if not cts:
        raise ValueError("empty batch")
    sizes = np.fromiter((ct.end - ct.start for ct in cts), np.int32, len(cts))
    if not sizes.all():
        raise ValueError("batch holds a cycle type with no cycles")
    runs = []  # [Columns, start, end] of rows that follow one another
    for ct in cts:
        if runs and runs[-1][0] is ct.cols and runs[-1][2] == ct.start:
            runs[-1][2] = ct.end
        else:
            runs.append([ct.cols, ct.start, ct.end])
    sizes_n = sorted({src.n for src, _, _ in runs})
    if len(sizes_n) > 1:
        raise ValueError(f"batch mixes cycle types of sizes {sizes_n}")
    starts = np.zeros(len(cts), np.int32)
    np.cumsum(sizes[:-1], out=starts[1:])
    return Columns(starts, np.concatenate([r.m[a:b] for r, a, b in runs]),
                   np.concatenate([r.c[a:b] for r, a, b in runs]), sizes_n[0])


def tail_counts(cols: Columns, x: float) -> np.ndarray:
    """Per row, the number of cycles of length >= x."""
    # a row sums to at most n; the default int64 accumulator would copy
    # the whole column
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
    cum = np.cumsum(np.where(valid, cols.c[idx], 0), axis=1)
    # cycle j sits in the first pair whose running count reaches j
    pos = (cum[:, None, :] < np.arange(1, K + 1)[:, None]).sum(axis=2)
    return np.take_along_axis(np.pad(m, ((0, 0), (0, 1))), pos, axis=1)


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


def merge_tolerances(overrides: Optional[dict]) -> dict:
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


def check_grid(points: Iterable[float], name: str,
               nondecreasing: bool = False) -> List[float]:
    """The grid as a list.  An empty grid, a point that is not >= 0, or
    (if nondecreasing) a point below the one before it is a ValueError."""
    pts = list(points)
    if not pts:
        raise ValueError(f"{name} is empty")
    for p in pts:
        if not p >= 0:
            raise ValueError(f"{name} points must be >= 0, got {p}")
    if nondecreasing and any(b < a for a, b in zip(pts, pts[1:])):
        raise ValueError(f"{name} must be nondecreasing, got {pts}")
    return pts


def check_k(K: int) -> int:
    """K, the number of longest cycles; K < 1 is a ValueError."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return K


def verify_poisson_increments(batch: Iterable, sd: SaddleData,
                              y_grid: Sequence[float],
                              tolerances: Optional[dict] = None
                              ) -> VerificationReport:
    """Increments of P_y over the grid vs independent Poisson targets."""
    tols = merge_tolerances(tolerances)
    ys = check_grid(y_grid, "y_grid", nondecreasing=True)
    cols = columns(batch)
    _check_saddle(sd, cols.n)
    counts = np.stack([tail_counts(cols, threshold_x(sd, y)) for y in ys],
                      axis=1)
    incs = np.diff(counts, axis=1, prepend=0)
    targets = np.diff([0.0] + ys)
    rep = VerificationReport(
        "poisson_increments",
        {"n": sd.n, "alpha": sd.alpha, "num_samples": len(cols.starts),
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
        rep.add_bound(f"tv_inc_{j}", tv, tols["poisson_tv"])
    for a in range(len(targets)):
        for b in range(a + 1, len(targets)):
            ca, cb = incs[:, a], incs[:, b]
            if np.std(ca) == 0 or np.std(cb) == 0:
                corr = 0.0
            else:
                corr = float(np.corrcoef(ca, cb)[0, 1])
            rep.add_bound(f"abs_corr_{a}_{b}", abs(corr), tols["correlation"])
    return rep


def verify_gumbel(batch: Iterable, sd: SaddleData, K: int,
                  tolerances: Optional[dict] = None) -> VerificationReport:
    """Rescaled j-th longest cycles, j = 1..K, vs the law of the j-th point
    of the limit Poisson process (point_cdf)."""
    check_k(K)
    tols = merge_tolerances(tolerances)
    cols = columns(batch)
    _check_saddle(sd, cols.n)
    rep = VerificationReport(
        "gumbel_longest_cycles",
        {"n": sd.n, "num_samples": len(cols.starts), "K": K})
    L = longest(cols, K)
    rescaled = np.where(L > 0, (L - threshold_x(sd, 1.0)) / sd.n_star, -np.inf)
    # jump times y_j = exp(ell - L_j/n*) must be nondecreasing in j, so the
    # rescaled lengths nonincreasing; a missing cycle has y_j = inf
    jumps = int(np.any(rescaled[:, 1:] > rescaled[:, :-1], axis=1).sum())
    for j in range(1, K + 1):
        name, tol = (("ks_L1_gumbel", "gumbel_ks_1") if j == 1
                     else (f"ks_L{j}_ref", "gumbel_ks_j"))
        ks = ks_distance(rescaled[:, j - 1], lambda x: point_cdf(j, x))
        rep.add_bound(name, ks, tols[tol])
    rep.add_bound("jump_time_violations", jumps, 0)
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
    rel_tol = merge_tolerances(tolerances)["profile_rel"]
    xs = check_grid(x_grid, "x_grid")
    cols = columns(batch)
    n = cols.n
    if w is None:
        w = polynomial(alpha)
    if sd is None:
        sd = solve_saddle(w, n)
    else:
        _check_saddle(sd, n, w)
    # zero-growth weights raise here: their scale n^{1/(1+0)} = n puts every
    # x >= 1 at or past n, where the observed count is 0 by construction
    threshold_x(sd, 0.0)
    scale = n ** (1.0 / (1.0 + alpha))
    rep = VerificationReport(
        "cumulative_profile",
        {"n": n, "alpha": alpha, "num_samples": len(cols.starts),
         "x_grid": xs})
    for x in xs:
        thr = max(1.0, x * scale)
        emp = float(np.mean(tail_counts(cols, thr)))
        pred = expected_tail_count(w, sd, thr)
        rep.add(f"w_n({x})", emp, pred, rel_tol * max(pred, 1e-12))
    return rep


def bn_event_frequency(batch: Iterable, sd: SaddleData,
                       w: Optional[WeightSequence] = None,
                       tolerances: Optional[dict] = None
                       ) -> VerificationReport:
    """Frequency of any cycle exceeding the cap 2 n* ell_n vs its
    Markov-type bound 2 * sum_{k > cap} (theta_k/k) e^{-k v_n}."""
    bn_tol = merge_tolerances(tolerances)["bn_freq"]
    cols = columns(batch)
    num = len(cols.starts)
    if w is None:
        w = sd.weight
    _check_saddle(sd, cols.n, w)
    cap = threshold_x(sd, 0.0)
    freq = float(np.mean(tail_counts(cols, math.floor(cap) + 1) >= 1))
    bound = 2.0 * expected_tail_count(w, sd, math.floor(cap) + 1)
    limit = max(3.0 * bound, 5.0 / math.sqrt(num))
    rep = VerificationReport(
        "bn_event",
        {"n": sd.n, "num_samples": num, "cap": cap, "markov_bound": bound})
    rep.add_bound("bn_frequency", freq, limit)
    rep.add_bound("bn_frequency_abs", freq, bn_tol)
    return rep
