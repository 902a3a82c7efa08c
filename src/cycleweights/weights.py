"""Cycle-weight sequences and their generating function.

A weight sequence assigns a nonnegative weight theta_k to every cycle
length k.  Three families are supported:

* ``polynomial(alpha)``: theta_k = k**alpha with alpha > 0, the main case.
* ``ewens(vartheta)``: constant weights, used as a closed-form oracle.
* ``table(values)``: explicit finite table, extended past its last entry
  by power-law extrapolation fitted to the last two entries.

The generating function g(t) = sum_k (theta_k / k) t^k has radius of
convergence 1 for these families; partial sums come with a certified
geometric tail bound.  Every sum of theta_k k^e e^{-kv} over a range of k
goes through one kernel, ``exp_sums``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

POLYNOMIAL = "polynomial"
EWENS = "ewens"
TABLE = "table"

# terms per chunk in exp_sums and g_theta_partial: bounds their temporaries
# to a few arrays of this length, whatever the number of terms
_CHUNK = 1 << 16


@dataclass(frozen=True)
class WeightSequence:
    family: str
    alpha: Optional[float] = None
    vartheta: Optional[float] = None
    values: Optional[Tuple[float, ...]] = None
    _fit_alpha: Optional[float] = field(default=None, repr=False)

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


def theta_log(w: WeightSequence, k: int) -> float:
    """ln theta_k, -inf when theta_k = 0."""
    if k < 1:
        raise ValueError(f"cycle length must be >= 1, got {k}")
    if w.family == POLYNOMIAL:
        return w.alpha * math.log(k)
    if w.family == EWENS:
        return math.log(w.vartheta)
    if k <= len(w.values):
        v = w.values[k - 1]
        return math.log(v) if v > 0 else -math.inf
    k0 = len(w.values)
    v0 = w.values[-1]
    if v0 == 0:
        return -math.inf
    return math.log(v0) + w._fit_alpha * math.log(k / k0)


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
    """theta_1..theta_k_max as a float array (index 0 unused, set to 0)."""
    return np.concatenate(([0.0], _theta_range(w, 1, k_max)))


def theta_log_range(w: WeightSequence, lo: int, hi: int) -> np.ndarray:
    """ln theta_k for k in [lo, hi] (lo >= 1), -inf where theta_k = 0."""
    if w.family == POLYNOMIAL:
        return w.alpha * np.log(np.arange(lo, hi + 1, dtype=np.float64))
    with np.errstate(divide="ignore"):
        return np.log(_theta_range(w, lo, hi))


def theta_log_array(w: WeightSequence, k_max: int) -> np.ndarray:
    """ln theta_1..ln theta_k_max (index 0 unused, set to -inf)."""
    return np.concatenate(([-np.inf], theta_log_range(w, 1, k_max)))


def exp_sums(w: Optional[WeightSequence], v: float, lo: int, hi: int,
             exps: Sequence[float]) -> List[float]:
    """[sum_{k=lo}^{hi} theta_k k^e e^{-kv} for e in exps], theta = 1 when w
    is None.

    The terms of the first exponent e0 are exp(ln theta_k + e0 ln k - k v),
    so k^e0 e^{-kv} never overflows mid-product; the other exponents take
    them times k^(e - e0).  Polynomial weights join alpha to e0, so each
    chunk takes ln k once.  The terms are summed chunk by chunk.
    """
    totals = [0.0] * len(exps)
    e0 = exps[0]
    poly = w is not None and w.family == POLYNOMIAL
    power = e0 + w.alpha if poly else e0
    for a in range(lo, hi + 1, _CHUNK):
        b = min(a + _CHUNK - 1, hi)
        k = np.arange(a, b + 1, dtype=np.float64)
        base = -k * v
        if w is not None and not poly:
            base += theta_log_range(w, a, b)
        terms = np.exp(base + power * np.log(k) if power else base)
        for i, e in enumerate(exps):
            totals[i] += float(np.sum(terms if e == e0 else terms * k ** (e - e0)))
    return totals


def g_theta_partial(w: WeightSequence, t: float, eps: float) -> Tuple[float, int, float]:
    """Partial sum of g(t) = sum (theta_k/k) t^k with a certified tail bound.

    Returns (value, K, tail_bound) where the dropped tail beyond K is at
    most tail_bound <= eps.  K is the first k where the geometric ratio
    bound a_k * q/(1-q), q = ((k+1)/k)^a * t, certifies the remainder.
    The bound needs a_{k+1}/a_k <= q from k on, which a table only
    guarantees past its last entry.
    """
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must be in [0, 1), got {t}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if t == 0.0:
        return 0.0, 0, 0.0
    a = w.growth_alpha
    k_min = len(w.values) if w.family == TABLE else 1
    log_t = math.log(t)
    # blocks double from 256 terms up to _CHUNK, so a small K tests few terms
    lo, hi = 1, 256
    while hi <= 10**8:
        k = np.arange(lo, hi + 1, dtype=np.float64)
        q = ((k + 1) / k) ** a * t
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = (np.exp(theta_log_range(w, lo, hi) - np.log(k) + k * log_t)
                    * q / (1.0 - q))
        ok = (k >= k_min) & (q < 1.0) & (tail <= eps)
        if ok.any():
            j = int(np.argmax(ok))
            K = lo + j
            return exp_sums(w, -log_t, 1, K, (-1,))[0], K, float(tail[j])
        lo, hi = hi + 1, hi + min(2 * len(k), _CHUNK)
    raise RuntimeError("g_theta_partial failed to certify tail")
