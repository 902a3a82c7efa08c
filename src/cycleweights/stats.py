"""Observable extraction and statistical verification of the limit laws.

A cycle type is a row of an int32 CSR Columns (row starts, m ascending,
C_m), and a sampled batch is the rows of its chunks' Columns, in order.
Every report copies its batch into one Columns, each run of consecutive
rows of one Columns as one slice.
Tail counts #{cycles of length >= x} and the K longest cycles are numpy
reductions over those arrays.  The reports are the Monte Carlo checks:
Poisson increments over a y-grid, the Gumbel law of the rescaled longest
cycle, the cumulative-count profile against its direct-sum prediction,
and the frequency of the rare event that any cycle exceeds the cap
2 n* ell_n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from .asymptotics import SaddleData, expected_tail_count, solve_saddle, threshold_x
from .oracle import Columns, CycleType
from .weights import WeightSequence


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
    distances: Dict[str, float] = field(default_factory=dict)

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
                "checks": [c.to_dict() for c in self.checks],
                "distances": self.distances}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


# ---------------------------------------------------------------------------
# distances

def tv_distance(p: Dict[int, float], q: Dict[int, float]) -> float:
    """Total variation 0.5 * sum |p_i - q_i| between discrete pmfs."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def ks_distance(samples: Sequence[float], cdf: Callable[[float], float]) -> float:
    """One-sample KS: sup over sample points of |F_emp - F|."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(xs)
    if n == 0:
        raise ValueError("empty sample")
    F = np.array([cdf(x) for x in xs])
    lo = np.abs(F - np.arange(n) / n)
    hi = np.abs(F - np.arange(1, n + 1) / n)
    return float(max(lo.max(), hi.max()))


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample KS statistic over the merged sample points."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty sample")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def poisson_pmf(mean: float, k_max: int) -> Dict[int, float]:
    if mean == 0.0:
        return {0: 1.0}
    out = {}
    logs = -mean + np.arange(k_max + 1) * math.log(mean) \
        - np.array([math.lgamma(k + 1) for k in range(k_max + 1)])
    for k, lp in enumerate(logs):
        out[k] = math.exp(lp)
    return out


def gumbel_cdf(x: float) -> float:
    return math.exp(-math.exp(-x))


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


def _tolerances(overrides: Optional[dict]) -> dict:
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


def verify_poisson_increments(batch: Iterable, sd: SaddleData,
                              y_grid: Sequence[float],
                              tolerances: Optional[dict] = None
                              ) -> VerificationReport:
    """Increments of P_y over the grid vs independent Poisson targets."""
    tols = _tolerances(tolerances)
    cols = columns(batch)
    _check_saddle(sd, cols.n)
    ys = list(y_grid)
    if any(b < a for a, b in zip(ys, ys[1:])):
        raise ValueError("y_grid must be nondecreasing")
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
        emp = {k: int(f) / len(col)
               for k, f in enumerate(np.bincount(col)) if f}
        k_max = max(int(col.max()), int(10 * max(target, 0.1)) + 10)
        tv = tv_distance(emp, poisson_pmf(float(target), k_max))
        rep.distances[f"tv_inc_{j}"] = tv
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


def exponential_partial_sum_reference(j: int, size: int,
                                      seed: int = 20240917) -> np.ndarray:
    """-log(E_1 + ... + E_j) for iid standard exponentials, fixed seed."""
    rng = np.random.default_rng(seed + j)
    sums = rng.standard_exponential(size=(size, j)).sum(axis=1)
    return -np.log(sums)


def verify_gumbel(batch: Iterable, sd: SaddleData, K: int,
                  tolerances: Optional[dict] = None) -> VerificationReport:
    """Rescaled longest cycles vs the Gumbel / exponential-partial-sum laws."""
    if K < 1:
        raise ValueError("K must be >= 1")
    tols = _tolerances(tolerances)
    cols = columns(batch)
    _check_saddle(sd, cols.n)
    num = len(cols.starts)
    rep = VerificationReport(
        "gumbel_longest_cycles",
        {"n": sd.n, "num_samples": num, "K": K})
    L = longest(cols, K)
    rescaled = np.where(L > 0, (L - threshold_x(sd, 1.0)) / sd.n_star, -np.inf)
    # jump times y_j = exp(ell - L_j/n*) must be nondecreasing in j; a
    # missing cycle has y_j = inf
    ys = np.exp(-rescaled)
    jump_violations = int(np.sum(np.any(ys[:, 1:] < ys[:, :-1], axis=1)))
    ks1 = ks_distance(rescaled[:, 0], gumbel_cdf)
    rep.distances["ks_L1_gumbel"] = ks1
    rep.add_bound("ks_L1_gumbel", ks1, tols["gumbel_ks_1"])
    for j in range(2, K + 1):
        ref = exponential_partial_sum_reference(j, num)
        ksj = ks_two_sample(rescaled[:, j - 1], ref)
        rep.distances[f"ks_L{j}_ref"] = ksj
        rep.add_bound(f"ks_L{j}_ref", ksj, tols["gumbel_ks_j"])
    rep.add_bound("jump_time_violations", jump_violations, 0)
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
    from . import weights as weights_mod

    rel_tol = _tolerances(tolerances)["profile_rel"]
    cols = columns(batch)
    n = cols.n
    if w is None:
        w = weights_mod.polynomial(alpha)
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
         "x_grid": list(x_grid)})
    for x in x_grid:
        if not x >= 0:
            raise ValueError(f"x_grid points must be >= 0, got {x}")
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
    bn_tol = _tolerances(tolerances)["bn_freq"]
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
        {"n": sd.n, "num_samples": num, "cap": cap})
    rep.distances["markov_bound"] = bound
    rep.add_bound("bn_frequency", freq, limit)
    rep.add_bound("bn_frequency_abs", freq, bn_tol)
    return rep
