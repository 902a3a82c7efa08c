"""Cycle-weight sequences and their generating function.

A weight sequence assigns a nonnegative weight theta_k to every cycle
length k.  Three families are supported:

* ``polynomial(alpha)``: theta_k = k**alpha with alpha > 0, the main case.
* ``ewens(vartheta)``: constant weights, used as a closed-form oracle.
* ``table(values)``: explicit finite table, extended past its last entry
  by power-law extrapolation fitted to the last two entries.

The generating function g(t) = sum_k (theta_k / k) t^k has radius of
convergence 1 for these families.  Every sum of theta_k k^e e^{-kv} over
k >= lo goes through one kernel, ``exp_sums``, which stops each sum by one
rule: a geometric bound on its tail, certified below 2^-53 of the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

POLYNOMIAL = "polynomial"
EWENS = "ewens"
TABLE = "table"

# largest block of terms in exp_sums: bounds its temporaries to a few
# arrays of this length, whatever the number of terms
_CHUNK = 1 << 16


@dataclass(frozen=True)
class WeightSequence:
    family: str
    alpha: Optional[float] = None
    vartheta: Optional[float] = None
    values: Optional[Tuple[float, ...]] = None
    _fit_alpha: Optional[float] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # the negated comparisons also reject nan
        if self.family == POLYNOMIAL:
            if self.alpha is None or not 0 < self.alpha < math.inf:
                raise ValueError(f"polynomial family needs a finite alpha > 0, "
                                 f"got alpha={self.alpha}")
        elif self.family == EWENS:
            if self.vartheta is None or not 0 < self.vartheta < math.inf:
                raise ValueError(f"ewens family needs a finite vartheta > 0, "
                                 f"got vartheta={self.vartheta}")
        elif self.family == TABLE:
            if not self.values or not all(0 <= v < math.inf for v in self.values):
                raise ValueError("table family needs finite nonnegative values")
            if len(self.values) >= 2 and self.values[-2] > 0 and self.values[-1] > 0:
                k0 = len(self.values)
                fit = (math.log(self.values[-1] / self.values[-2])
                       / math.log(k0 / (k0 - 1)))
            else:
                fit = 0.0
            object.__setattr__(self, "_fit_alpha", fit)
        else:
            raise ValueError(f"unknown weight family {self.family!r}")

    # exponent used in tail-bound dominance arguments
    @property
    def growth_alpha(self) -> float:
        if self.family == POLYNOMIAL:
            return self.alpha
        if self.family == EWENS:
            return 0.0
        return max(self._fit_alpha, 0.0)


def polynomial(alpha: float) -> WeightSequence:
    return WeightSequence(POLYNOMIAL, alpha=alpha)


def ewens(vartheta: float) -> WeightSequence:
    return WeightSequence(EWENS, vartheta=vartheta)


def table(values: Sequence[float]) -> WeightSequence:
    return WeightSequence(TABLE, values=tuple(float(v) for v in values))


def _theta_range(w: WeightSequence, lo: int, hi: int) -> np.ndarray:
    """theta_k for k in [lo, hi] (lo >= 1) as a dense array."""
    k = np.arange(lo, hi + 1, dtype=np.float64)
    if w.family == POLYNOMIAL:
        return k ** w.alpha
    if w.family == EWENS:
        return np.full(len(k), w.vartheta)
    k0 = len(w.values)
    head = max(0, min(hi, k0) - lo + 1)
    out = np.empty(len(k))
    out[:head] = w.values[lo - 1:lo - 1 + head]
    out[head:] = w.values[-1] * (k[head:] / k0) ** w._fit_alpha
    return out


def theta_array(w: WeightSequence, k_max: int) -> np.ndarray:
    """theta_1..theta_k_max as a float array (index 0 unused, set to 0).
    Raises ValueError if some theta_k overflows a double."""
    with np.errstate(over="ignore"):
        theta = np.concatenate(([0.0], _theta_range(w, 1, k_max)))
    inf = np.isinf(theta)
    if inf.any():
        raise ValueError(f"theta_k of {w!r} overflows a double from "
                         f"k={np.argmax(inf)} on; requested size {k_max}")
    return theta


def theta_log_range(w: WeightSequence, lo: int, hi: int) -> np.ndarray:
    """ln theta_k for k in [lo, hi] (lo >= 1), -inf where theta_k = 0."""
    if w.family == POLYNOMIAL:
        return w.alpha * np.log(np.arange(lo, hi + 1, dtype=np.float64))
    with np.errstate(divide="ignore"):
        return np.log(_theta_range(w, lo, hi))


def theta_log_array(w: WeightSequence, k_max: int) -> np.ndarray:
    """ln theta_1..ln theta_k_max (index 0 unused, set to -inf)."""
    return np.concatenate(([-np.inf], theta_log_range(w, 1, k_max)))


def exp_sums(w: WeightSequence, v: float, lo: int,
             exps: Sequence[float]) -> Tuple[List[float], int, List[float]]:
    """Sums over k >= lo of theta_k k^e e^{-kv} for e in exps, with the K
    they stop at and bounds on their tails; ewens(1.0) gives theta_k = 1.

    sums[i] runs over lo <= k <= K.  From k_min on (a table's last entry,
    else 1) a term's ratio to the one before is at most q_k = ((k+1)/k)^
    max(a+e, 0) e^{-v}, a = growth_alpha, and q_k falls with k, so tails[i]
    = t_K q_K / (1 - q_K) bounds the terms past K.  K is the first
    k >= max(lo, k_min) where that bound is at most 2^-53 of the partial
    sum for every exponent.

    The terms of the first exponent e0 are exp(ln theta_k + e0 ln k - k v),
    so k^e0 e^{-kv} never overflows mid-product; the other exponents take
    them times k^(e - e0).  Polynomial weights join alpha to e0, so each
    block takes ln k once.  The first block holds about 40/v terms, within
    [256, _CHUNK], which covers most sums whose terms start near their
    largest (past it e^{-kv} falls 2^-53-fold in 37/v terms); later blocks
    double up to _CHUNK.
    """
    if not v > 0:
        raise ValueError(f"v must be positive, got {v}")
    e0 = exps[0]
    poly = w.family == POLYNOMIAL
    power = e0 + w.alpha if poly else e0
    a = w.growth_alpha
    k_min = len(w.values) if w.family == TABLE else 1
    p = np.maximum(a + np.asarray(exps, dtype=np.float64), 0.0)[:, None]
    totals = np.zeros(len(exps))
    start, size = lo, int(min(max(40.0 / v, 256), _CHUNK))
    while True:
        k = np.arange(start, start + size, dtype=np.float64)
        base = -k * v
        if not poly:
            base += theta_log_range(w, start, start + size - 1)
        terms = np.exp(base + power * np.log(k) if power else base)
        rows = np.array([terms if e == e0 else terms * k ** (e - e0)
                         for e in exps])
        block = rows.sum(axis=1)
        # once passed, the test keeps passing as k grows (t_k and q_k fall,
        # the partial sums rise): a block whose last term fails holds no K
        if _tail_test(p, v, k_min, k[-1:], rows[:, -1:],
                      (totals + block)[:, None])[1][0]:
            tails, ok = _tail_test(p, v, k_min, k, rows, totals[:, None]
                                   + np.cumsum(rows, axis=1))
            ok[-1] = True  # as tested above
            j = int(np.argmax(ok))
            sums = totals + rows[:, :j + 1].sum(axis=1)
            return sums.tolist(), start + j, tails[:, j].tolist()
        totals += block
        start, size = start + size, min(2 * size, _CHUNK)


def _tail_test(p, v, k_min, k, rows, partial):
    """(t_k q_k/(1 - q_k) for each exponent's row of terms, and whether k >=
    k_min and each row has q_k < 1 and that bound <= 2^-53 of its sum)."""
    neg_log_q = v - p * np.log1p(1.0 / k)  # q/(1-q) = 1/expm1(-log q)
    with np.errstate(divide="ignore", invalid="ignore"):
        tails = rows / np.expm1(neg_log_q)
    return tails, (k >= k_min) & np.all(
        (neg_log_q > 0.0) & (tails <= 2.0 ** -53 * partial), axis=0)


def g_theta_partial(w: WeightSequence, t: float, eps: float) -> Tuple[float, int, float]:
    """Partial sum of g(t) = sum (theta_k/k) t^k with a certified tail bound.

    Returns (value, K, tail_bound): exp_sums' sum of the terms k <= K at
    v = -log t, and its bound on the terms past K.  Raises ValueError if
    that bound exceeds eps.
    """
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must be in [0, 1), got {t}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if t == 0.0:
        return 0.0, 0, 0.0
    (value,), K, (tail,) = exp_sums(w, -math.log(t), 1, (-1,))
    if tail > eps:
        raise ValueError(f"g_theta_partial: certified tail {tail:.3g} "
                         f"exceeds eps={eps:.3g}")
    return value, K, tail
