"""Exact ground truth at small-to-moderate sizes.

Everything here is exact up to floating round-off: enumeration over integer
partitions, the normalization constants h_n via their recurrence

    n * h_n = sum_{k=1}^{n} theta_k * h_{n-k},        h_0 = 1,

truncated power-series exponentiation for moment generating functions, and
the positive-coefficient series bound used as a cross-check of the
saddle-point machinery.  Series coefficients span thousands of binary
orders of magnitude, so they are kept as mantissa/exponent array pairs and
computed by one blockwise, exponentially tilted FFT kernel
(`exp_coefficients`).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .scaled import ScaledReal
from .weights import WeightSequence, theta_array, theta_log

DEFAULT_ENUMERATION_CAP = 60
SERIES_CAP = 220

_MAGIC = b"CWHT"
_CACHE_VERSION = 2
_HEADER = struct.Struct("<I32sQ")  # version, weight digest, n_max
_ROW = np.dtype([("m", "<f8"), ("e", "<i8")])

_WINDOW_BITS = 64
_TILT_BITS = 20
_BLOCK_MAX = 4096
_NOISE_BITS = 8


class CapacityError(ValueError):
    """Requested size exceeds an enumeration or table capacity."""


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths stored as counts; sum of m*C_m equals n."""

    counts: Tuple[Tuple[int, int], ...]  # sorted ((m, C_m), ...), C_m >= 1
    n: int

    @classmethod
    def from_dict(cls, counts: Dict[int, int], n: int) -> "CycleType":
        items = tuple(sorted((m, c) for m, c in counts.items() if c > 0))
        total = sum(m * c for m, c in items)
        if total != n:
            raise ValueError(f"cycle counts sum to {total}, expected {n}")
        return cls(items, n)

    def count(self, m: int) -> int:
        for mm, c in self.counts:
            if mm == m:
                return c
        return 0

    def lengths_desc(self) -> List[int]:
        out: List[int] = []
        for m, c in reversed(self.counts):
            out.extend([m] * c)
        return out

    def num_cycles(self) -> int:
        return sum(c for _, c in self.counts)

    def tail_count(self, x: float) -> int:
        """Number of cycles of length >= x."""
        return sum(c for m, c in self.counts if m >= x)


def partitions(n: int) -> Iterator[Tuple[int, ...]]:
    """All partitions of n as descending tuples, largest part first."""
    if n == 0:
        yield ()
        return
    parts: List[int] = []

    def rec(remaining: int, max_part: int):
        if remaining == 0:
            yield tuple(parts)
            return
        for p in range(min(remaining, max_part), 0, -1):
            parts.append(p)
            yield from rec(remaining - p, p)
            parts.pop()

    yield from rec(n, n)


def _log_type_weight(w: WeightSequence, counts: Dict[int, int]) -> float:
    """ln of prod theta_m^{C_m} / prod (m^{C_m} C_m!)."""
    total = 0.0
    for m, c in counts.items():
        lt = theta_log(w, m)
        if lt == -math.inf:
            return -math.inf
        total += c * lt - c * math.log(m) - math.lgamma(c + 1)
    return total


def h_exact(w: WeightSequence, n: int,
            cap: int = DEFAULT_ENUMERATION_CAP) -> ScaledReal:
    """h_n as the sum over all partitions of the per-type weights."""
    if n > cap:
        raise CapacityError(f"n={n} exceeds enumeration cap {cap}")
    acc = ScaledReal()
    for part in partitions(n):
        counts: Dict[int, int] = {}
        for p in part:
            counts[p] = counts.get(p, 0) + 1
        acc = acc + ScaledReal.from_log(_log_type_weight(w, counts))
    return acc


def enumerate_cycle_types(w: WeightSequence, n: int,
                          cap: int = DEFAULT_ENUMERATION_CAP
                          ) -> List[Tuple[CycleType, float]]:
    """All cycle types of size n with their exact probabilities.

    Ordered lexicographically by partition with largest part descending.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise CapacityError(f"n={n} exceeds enumeration cap {cap}")
    entries = []
    acc = ScaledReal()
    for part in partitions(n):
        counts: Dict[int, int] = {}
        for p in part:
            counts[p] = counts.get(p, 0) + 1
        lw = _log_type_weight(w, counts)
        entries.append((CycleType.from_dict(counts, n), lw))
        acc = acc + ScaledReal.from_log(lw)
    log_h = acc.log()
    return [(ct, math.exp(lw - log_h)) for ct, lw in entries]


def _weight_digest(w: WeightSequence) -> bytes:
    """SHA-256 of the family name and its exact parameters or table values."""
    import hashlib  # only the cache needs it; loads libcrypto, so kept off import
    params = {"polynomial": (w.alpha,), "ewens": (w.vartheta,),
              "table": w.values}[w.family]
    return hashlib.sha256(w.family.encode()
                          + np.asarray(params, dtype="<f8").tobytes()).digest()


@dataclass
class HTable:
    """Normalization constants h_0..h_n_max for one weight sequence."""

    weight: WeightSequence
    n_max: int
    mant: np.ndarray  # float64, mantissas in [1,2) (or 0)
    expo: np.ndarray  # int64

    def value(self, n: int) -> ScaledReal:
        if not 0 <= n <= self.n_max:
            raise CapacityError(f"n={n} outside table range 0..{self.n_max}")
        return ScaledReal(float(self.mant[n]), int(self.expo[n]))

    def log_array(self) -> np.ndarray:
        """Natural logs of h_0..h_n_max; -inf where h_m = 0."""
        logm = np.log(self.mant, out=np.full(self.n_max + 1, -np.inf),
                      where=self.mant > 0)
        return logm + self.expo * math.log(2.0)

    def recurrence_residual(self, n: int, theta: np.ndarray = None) -> float:
        """Relative residual of n*h_n against the full convolution sum."""
        if theta is None:
            theta = theta_array(self.weight, self.n_max)
        total = ScaledReal(*_scaled_dot(theta[:n + 1], self.mant[n::-1],
                                        self.expo[n::-1]))
        if self.mant[n] == 0.0:  # right iff every term is zero too
            return 0.0 if total.is_zero() else math.inf
        return abs((total / (self.value(n) * n)).to_float() - 1.0)

    def save(self, path: str) -> None:
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(_HEADER.pack(_CACHE_VERSION, _weight_digest(self.weight),
                                 self.n_max))
            pairs = np.empty(self.n_max + 1, dtype=_ROW)
            pairs["m"] = self.mant
            pairs["e"] = self.expo
            pairs.tofile(f)

    @classmethod
    def load(cls, path: str, weight: WeightSequence,
             validate: bool = True, rng_seed: int = 0) -> "HTable":
        with open(path, "rb") as f:
            if f.read(4) != _MAGIC:
                raise ValueError(f"{path}: bad magic, not an HTable cache")
            head = f.read(_HEADER.size)
            payload = f.read()
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: truncated HTable cache header")
        version, digest, n_max = _HEADER.unpack(head)
        if version != _CACHE_VERSION:
            raise ValueError(f"{path}: unsupported cache version {version}")
        if digest != _weight_digest(weight):
            raise ValueError(f"{path}: cached table was built for other "
                             f"weights than {weight}")
        if len(payload) != (n_max + 1) * _ROW.itemsize:
            raise ValueError(f"{path}: header promises {n_max + 1} rows, "
                             f"file holds {len(payload) / _ROW.itemsize:g}")
        pairs = np.frombuffer(payload, dtype=_ROW)
        tab = cls(weight=weight, n_max=int(n_max),
                  mant=pairs["m"].copy(), expo=pairs["e"].copy())
        if validate:
            rng = np.random.default_rng(rng_seed)
            k = max(1, (tab.n_max) // 100)
            theta = theta_array(weight, tab.n_max)
            for n in rng.choice(np.arange(1, tab.n_max + 1),
                                size=min(k, tab.n_max), replace=False):
                if tab.recurrence_residual(int(n), theta) > 1e-9:
                    raise ValueError(f"{path}: recurrence residual check "
                                     f"failed at n={n}")
        return tab


def _times_pow2(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m * 2**x without intermediate overflow; floor(x) must be exact."""
    fl = np.floor(x)
    return np.ldexp(m * np.exp2(x - fl), fl.astype(np.int64))


def _scaled_dot(coef: np.ndarray, mant: np.ndarray,
                expo: np.ndarray) -> Tuple[float, int]:
    """sum_i coef_i * mant_i 2**expo_i as (float, binary exponent); terms
    more than 1100 binary orders below the largest vanish."""
    cm, ce = np.frexp(coef)
    m = cm * mant
    ex = ce + expo
    nz = m != 0.0
    if not np.any(nz):
        return 0.0, 0
    top = int(np.max(ex[nz]))
    return float(np.sum(np.ldexp(m, np.maximum(ex - top, -1100)))), top


def _middle_product(x: np.ndarray, y: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Entries lo..hi-1 of the linear convolution x*y, for len(x) <= lo: a
    cyclic FFT of length >= len(y) aliases only onto indices below len(x)."""
    size = 1 << (len(y) - 1).bit_length()
    f = np.fft.rfft(x, size) * np.fft.rfft(y, size)
    return np.fft.irfft(f, size)[lo:hi]


def exp_coefficients(c: np.ndarray, n_max: int):
    """Coefficients b_0..b_n_max of exp(A(t)) as (mantissa, exponent) arrays.

    c holds k*a_k >= 0 (entry 0 ignored): n*b_n = sum_{k=1}^n c_k b_{n-k}.
    Blocks of rows grow from 1 to _BLOCK_MAX.  Each divides rows b_j by
    b_a 2**((j-a)*tilt), a the last nonzero row, and c_k by 2**(k*tilt),
    which leaves the recurrence unchanged; tilt, a multiple of
    2**-_TILT_BITS so j*tilt is exact, is the slope of log2 b extrapolated
    to the block's middle.  History enters by one FFT middle product over a
    window that drops a row once its term, with the largest tilted c_k it
    can still meet, is below 2**-_WINDOW_BITS of row a; rows inside the
    block come from a short loop.  A block not far above the FFT round-off,
    or overflowing, is summed row by row exactly.  Zero rows stay exact.
    """
    c = np.array(c[:n_max + 1], dtype=np.float64)
    c[0] = 0.0
    log_c = np.log2(c, out=np.full(n_max + 1, -np.inf), where=c > 0)
    gaps = not np.all(c[1:] > 0)
    mant = np.zeros(n_max + 1)
    expo = np.zeros(n_max + 1, dtype=np.int64)
    mant[0] = 1.0
    lo, s, size = 0, 1, 1  # window start, block start, block size
    prev = (0, 0.0)  # anchor and slope of the previous block
    while s <= n_max:
        e = min(s + size, n_max + 1)
        nz = np.flatnonzero(mant[lo:s]) + lo
        a = int(nz[-1])
        b = int(nz[-2]) if len(nz) > 1 else a
        slope = ((int(expo[a] - expo[b]) + math.log2(mant[a] / mant[b])) / (a - b)
                 if b < a else 0.0)
        bend = (prev[1] - slope) / (a - prev[0]) if prev[0] < a else 0.0
        prev = (a, slope)
        tilt = (round((slope - bend * (e - 1 - a) / 2) * 2 ** _TILT_BITS)
                / 2 ** _TILT_BITS)
        if a > lo:
            with np.errstate(divide="ignore"):  # zero rows have log -inf
                lhist = (np.log2(mant[lo:a] / mant[a]) + (expo[lo:a] - expo[a])
                         - np.arange(lo - a, 0) * tilt)
            lu = log_c[1:n_max + 1 - lo] - np.arange(1, n_max + 1 - lo) * tilt
            reach = np.maximum.accumulate(lu[::-1])[::-1]  # max of lu[k:]
            lo += int(np.argmax(lhist + reach[a - lo - 1::-1]
                                >= math.log2(a) - _WINDOW_BITS))
        H, B = s - lo, e - s
        with np.errstate(over="ignore", invalid="ignore"):
            hist = _times_pow2(mant[lo:s] / mant[a], (expo[lo:s] - expo[a])
                               - np.arange(lo - a, s - a) * tilt)
            u = _times_pow2(c[:e - lo], -np.arange(e - lo) * tilt)
            cross = _middle_product(hist, u, H, H + B)
            # round-off must not fill rows whose every term is zero
            zero = gaps and _middle_product((mant[lo:s] != 0).astype(np.float64),
                                            (c[:e - lo] != 0).astype(np.float64),
                                            H, H + B) < 0.5
            cross = np.where(zero, 0.0, np.maximum(cross, 0.0))
            rev = np.empty(B)  # block rows in reverse order
            for i in range(B):
                rev[B - 1 - i] = (cross[i] + np.dot(u[1:i + 1], rev[B - i:])) / (s + i)
            # each FFT entry carries round-off of about eps*|hist|*|u|
            noise = np.linalg.norm(hist) * np.linalg.norm(u) * 2.0 ** -_NOISE_BITS
            fast = (math.isfinite(noise) and np.max(rev) < 2.0 ** 1000
                    and np.all(zero | (rev[::-1] * np.arange(s, e) >= noise)))
        if fast:
            x = (np.arange(s, e) - a) * tilt
            fl = np.floor(x)
            m, ex = np.frexp(rev[::-1] * mant[a] * np.exp2(x - fl))
            mant[s:e] = 2.0 * m
            expo[s:e] = np.where(m != 0, ex - 1 + expo[a] + fl.astype(np.int64), 0)
        else:
            for n in range(s, e):
                row = ScaledReal(*_scaled_dot(c[n - lo:0:-1], mant[lo:n],
                                              expo[lo:n])) / n
                mant[n], expo[n] = row.mantissa, row.exponent
        s = e
        size = min(2 * size, _BLOCK_MAX)
    return mant, expo


def build_h_table(w: WeightSequence, n_max: int) -> HTable:
    """HTable from the recurrence, by the blockwise kernel exp_coefficients."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    hm, he = exp_coefficients(theta_array(w, max(n_max, 1)), n_max)
    return HTable(weight=w, n_max=n_max, mant=hm, expo=he)


def exact_statistic_pmf(w: WeightSequence, n: int, statistic: str,
                        x: float = None,
                        cap: int = DEFAULT_ENUMERATION_CAP) -> Dict[int, float]:
    """Exact pmf of a cycle-type statistic by full enumeration.

    statistic is one of "L1" (longest cycle), "tail_count" (number of
    cycles of length >= x) or "total_cycles".
    """
    if statistic == "tail_count" and x is None:
        raise ValueError("tail_count needs the threshold x")
    pmf: Dict[int, float] = {}
    for ct, p in enumerate_cycle_types(w, n, cap):
        if statistic == "L1":
            v = ct.counts[-1][0] if ct.counts else 0
        elif statistic == "tail_count":
            v = ct.tail_count(x)
        elif statistic == "total_cycles":
            v = ct.num_cycles()
        else:
            raise ValueError(f"unknown statistic {statistic!r}")
        pmf[v] = pmf.get(v, 0.0) + p
    return pmf


def mgf_series(w: WeightSequence, n: int, x: float, s: float,
               cap: int = SERIES_CAP) -> float:
    """E[exp(s * #cycles of length >= x)] via truncated series extraction.

    Extracts [t^n] exp((e^s - 1) * sum_{x<=k<=n} (theta_k/k) t^k + g(t))
    and divides by h_n, both as degree-n truncated series.
    """
    if n > cap:
        raise CapacityError(f"n={n} exceeds series cap {cap}")
    if x < 0:
        raise ValueError("x must be >= 0")
    coeff = theta_array(w, n)  # k * a_k
    coeff[max(1, math.ceil(x)):] *= math.exp(s)  # 1 + (e^s - 1)
    num_m, num_e = exp_coefficients(coeff, n)
    num = ScaledReal(float(num_m[n]), int(num_e[n]))
    return (num / build_h_table(w, n).value(n)).to_float()


def corollary_bound_check(w: WeightSequence, n: int, u: float, v: float,
                          cap: int = SERIES_CAP):
    """Positive-coefficient series bound diagnostic.

    Builds F(t) = sum over the window x_{n,v} <= k < x_{n,u} of
    (theta_k/k) t^k, forms f = F^2 (1+F)^2, and compares
    lhs = [t^n] f(t) exp(g(t)) against rhs = 2 f(r_n) [t^n] exp(g(t)).
    Advisory below the (unknown) size where the bound provably kicks in.
    """
    from .asymptotics import solve_saddle, threshold_x

    if not 0 <= u < v:
        raise ValueError("need 0 <= u < v")
    if n > cap:
        raise CapacityError(f"n={n} exceeds series cap {cap}")
    sd = solve_saddle(w, n)
    x_hi = threshold_x(sd, u)  # larger threshold (smaller y)
    x_lo = threshold_x(sd, v)
    theta = theta_array(w, n)
    k = np.arange(n + 1, dtype=np.float64)
    window = (k >= max(1.0, math.ceil(x_lo))) & (k < x_hi)
    fcoef = np.zeros(n + 1)
    fcoef[window] = theta[window] / k[window]
    # G = F + F^2 = F(1+F); f = G^2, with float-sized coefficients
    gcoef = fcoef + np.convolve(fcoef, fcoef)[:n + 1]
    f = np.convolve(gcoef, gcoef)[:n + 1]
    h = build_h_table(w, n)
    Fr = float(np.sum(fcoef[1:] * sd.r_n ** k[1:]))
    f_at_r = (Fr * (1.0 + Fr)) ** 2
    lhs = ScaledReal(*_scaled_dot(f, h.mant[::-1], h.expo[::-1])).to_float()
    rhs = (h.value(n) * (2.0 * f_at_r)).to_float()
    return lhs, rhs, lhs <= rhs
