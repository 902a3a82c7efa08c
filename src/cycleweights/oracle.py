"""Exact ground truth at small-to-moderate sizes.

Everything here is exact up to floating round-off: enumeration over integer
partitions, the normalization constants h_n via their recurrence

    n * h_n = sum_{k=1}^{n} theta_k * h_{n-k},        h_0 = 1,

truncated power-series exponentiation for moment generating functions, and
the positive-coefficient series bound used as a cross-check of the
saddle-point machinery.  Series coefficients span thousands of binary
orders of magnitude, so they are kept as mantissa/exponent array pairs and
computed by one blockwise, exponentially tilted FFT kernel
(`exp_coefficients`); a `ScaledReal` is a read-only view of one such row.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Tuple

import numpy as np

from .weights import WeightSequence, theta_array, theta_log

ENUMERATION_CAP = 60
SERIES_CAP = 220

_MAGIC = b"CWHT"
_CACHE_VERSION = 2
_HEADER = struct.Struct("<I32sQ")  # version, weight digest, n_max
_ROW = np.dtype([("m", "<f8"), ("e", "<i8")])

_LN2 = math.log(2.0)
_WINDOW_BITS = 64
_TILT_BITS = 20
_BLOCK_MAX = 4096
_NOISE_BITS = 8
_LEAF = 16


class CapacityError(ValueError):
    """Requested size exceeds an enumeration or table capacity."""


def zero_row_error(w: WeightSequence, n: int) -> ValueError:
    """The error for a size n with h_n = 0: no cycle type of size n has
    positive weight, so it has no distribution to sample or compute."""
    return ValueError(f"h_{n} = 0 for {w!r}: no permutation of size {n} "
                      f"has positive weight")


def check_row(n: int, w: WeightSequence, mant: np.ndarray) -> None:
    """Reject a size n outside the table whose mantissas are mant, or with
    h_n = 0."""
    if n < 1 or n >= len(mant):
        raise CapacityError(f"n={n} outside table range 1..{len(mant) - 1}")
    if mant[n] == 0.0:
        raise zero_row_error(w, n)


class Columns(NamedTuple):
    """Cycle types as int32 CSR arrays of (m, C_m) pairs, all of size n.

    Row i holds pairs starts[i] up to starts[i + 1] (or the end), with m
    ascending, so a row's longest cycles are its last pairs.  A sampler
    chunk is one Columns, and each of its samples a CycleType row of it.
    """

    starts: np.ndarray
    m: np.ndarray
    c: np.ndarray
    n: int


class CycleType:
    """Read-only handle on one cycle type: row [start, end) of the pairs
    of a Columns.  m (cycle lengths, ascending) and c (their counts
    C_m >= 1), with sum m * C_m = n, are int32 views made on access."""

    __slots__ = ("cols", "start", "end")

    def __init__(self, cols: Columns, start: int, end: int):
        self.cols, self.start, self.end = cols, start, end

    @classmethod
    def from_dict(cls, counts: Dict[int, int], n: int) -> "CycleType":
        items = sorted((m, c) for m, c in counts.items() if c > 0)
        total = sum(m * c for m, c in items)
        if total != n:
            raise ValueError(f"cycle counts sum to {total}, expected {n}")
        m, c = np.array(items, dtype=np.int32).reshape(-1, 2).T.copy()
        starts = np.zeros(1, dtype=np.int32)
        for a in (starts, m, c):
            a.flags.writeable = False
        return cls(Columns(starts, m, c, n), 0, len(items))

    @property
    def m(self) -> np.ndarray:
        return self.cols.m[self.start:self.end]

    @property
    def c(self) -> np.ndarray:
        return self.cols.c[self.start:self.end]

    @property
    def n(self) -> int:
        return self.cols.n

    @property
    def counts(self) -> Tuple[Tuple[int, int], ...]:
        """((m, C_m), ...) as Python ints, m ascending."""
        cols, a, b = self.cols, self.start, self.end
        return tuple(zip(cols.m[a:b].tolist(), cols.c[a:b].tolist()))

    def num_cycles(self) -> int:
        return sum(self.cols.c[self.start:self.end].tolist())

    def tail_count(self, x: float) -> int:
        """Number of cycles of length >= x."""
        cols, a, b = self.cols, self.start, self.end
        # m ascending: the cycles from the first m >= x on (none for NaN,
        # which searchsorted places last)
        a += int(np.searchsorted(cols.m[a:b], x))
        return sum(cols.c[a:b].tolist())


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


def _type_logs(w: WeightSequence, n: int) -> Iterator[Tuple[Dict[int, int], float]]:
    """(counts, ln of the type weight) of every cycle type of size n."""
    if n > ENUMERATION_CAP:
        raise CapacityError(f"n={n} exceeds enumeration cap {ENUMERATION_CAP}")
    for part in partitions(n):
        counts: Dict[int, int] = {}
        for p in part:
            counts[p] = counts.get(p, 0) + 1
        yield counts, _log_type_weight(w, counts)


def _log_sum(logs: List[float]) -> float:
    """ln sum_i exp(logs_i), -inf when every term is -inf."""
    top = max(logs, default=-math.inf)
    if top == -math.inf:
        return top
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


def h_exact(w: WeightSequence, n: int) -> ScaledReal:
    """h_n as the sum over all partitions of the per-type weights."""
    return ScaledReal.from_log(_log_sum([lw for _, lw in _type_logs(w, n)]))


def enumerate_cycle_types(w: WeightSequence, n: int
                          ) -> List[Tuple[CycleType, float]]:
    """All cycle types of size n with their exact probabilities.

    Ordered lexicographically by partition with largest part descending.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    types = list(_type_logs(w, n))
    log_h = _log_sum([lw for _, lw in types])
    if log_h == -math.inf:
        raise zero_row_error(w, n)
    return [(CycleType.from_dict(counts, n), math.exp(lw - log_h))
            for counts, lw in types]


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
        total, top = _scaled_dot(theta[:n + 1], self.mant[n::-1],
                                 self.expo[n::-1])
        if self.mant[n] == 0.0:  # right iff every term is zero too
            return 0.0 if total == 0.0 else math.inf
        return abs(_ratio(total, top, n * self.mant[n], self.expo[n]) - 1.0)

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
    def load(cls, path: str, weight: WeightSequence) -> "HTable":
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
        rng = np.random.default_rng(0)
        k = max(1, tab.n_max // 100)
        theta = theta_array(weight, tab.n_max)
        for n in rng.choice(np.arange(1, tab.n_max + 1),
                            size=min(k, tab.n_max), replace=False):
            if tab.recurrence_residual(int(n), theta) > 1e-9:
                raise ValueError(f"{path}: recurrence residual check "
                                 f"failed at n={n}")
        return tab


class ScaledReal:
    """Read-only view of one (mantissa, exponent) row: mantissa * 2**exponent
    with mantissa in [1, 2), or 0."""

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: float = 0.0, exponent: int = 0):
        if mantissa < 0.0:
            raise ValueError("ScaledReal is nonnegative")
        if mantissa == 0.0:
            self.mantissa = 0.0
            self.exponent = 0
        else:
            m, e = math.frexp(mantissa)  # m in [0.5, 1)
            self.mantissa = 2.0 * m
            self.exponent = e - 1 + exponent

    @classmethod
    def from_log(cls, log_value: float) -> "ScaledReal":
        """Build from a natural logarithm (use -inf for zero)."""
        if log_value == -math.inf:
            return cls(0.0, 0)
        e = math.floor(log_value / _LN2)
        return cls(math.exp(log_value - e * _LN2), e)  # mantissa in [1, 2)

    def to_float(self) -> float:
        """Nearest double; overflows to inf / underflows to 0 silently."""
        return _ratio(self.mantissa, self.exponent, 1.0, 0)

    def log(self) -> float:
        """Natural logarithm; -inf for zero."""
        if self.mantissa == 0.0:
            return -math.inf
        return math.log(self.mantissa) + self.exponent * _LN2

    def __repr__(self):
        return f"ScaledReal({self.mantissa!r}, {self.exponent})"


def _ratio(m1: float, e1: int, m2: float, e2: int) -> float:
    """(m1 * 2**e1) / (m2 * 2**e2) as a double; overflows to inf."""
    try:
        return math.ldexp(float(m1) / float(m2), int(e1 - e2))
    except OverflowError:
        return math.inf


def _times_pow2(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m * 2**x without intermediate overflow; floor(x) must be exact."""
    fl = np.floor(x)
    return np.ldexp(m * np.exp2(x - fl), fl.astype(np.int64))


# 2^0, 2^-1, ..., 2^-1020, then 0 for every larger shift
_POW2_DOWN = np.append(np.ldexp(1.0, -np.arange(1021)), 0.0)


def _scaled_dot(coef: np.ndarray, mant: np.ndarray,
                expo: np.ndarray) -> Tuple[float, int]:
    """sum_i coef_i * mant_i 2**expo_i as (float, binary exponent); terms
    more than 1020 binary orders below the largest vanish.

    The terms are m_i 2**(ex_i - top) with m_i in [1/2, 2) (or 0), scaled
    by a table of powers of two instead of np.ldexp: the products are
    exact, and a dropped term is below 2^-1019, which cannot move a sum
    whose top term is at least 1/2.  Zero terms may carry exponents above
    top, so the table index is clipped at both ends."""
    cm, ce = np.frexp(coef)
    m = cm * mant
    ex = ce + expo
    nz = m != 0.0
    if not np.any(nz):
        return 0.0, 0
    top = int(np.max(ex[nz]))
    return float(np.sum(m * np.take(_POW2_DOWN, top - ex, mode="clip"))), top


def _middle_product(x: np.ndarray, y: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Entries lo..hi-1 of the linear convolution x*y, for len(x) <= lo: a
    cyclic FFT of length >= len(y) aliases only onto indices below len(x)."""
    size = 1 << (len(y) - 1).bit_length()
    f = np.fft.rfft(x, size) * np.fft.rfft(y, size)
    return np.fft.irfft(f, size)[lo:hi]


def _leaf_solve(cross: np.ndarray, u: np.ndarray, s: int) -> np.ndarray:
    """Rows y_0..y_{B-1}, B = len(cross), of the block recurrence
    (s+i) y_i = cross_i + sum_{k=1}^{i} u_k y_{i-k}; u needs entries 1..B-1.

    The rows are cut into leaves of W = min(_LEAF, B).  Each leaf's
    lower-triangular matrix (s+r+i on the diagonal, -u_{i-j} below) is
    inverted for all leaves at once, in W steps of one product over the
    (row, leaf, column) array.  A leaf at row r then takes the block's
    earlier rows from one correlation and is solved by one matvec.  With
    u, cross >= 0 every term is nonnegative, so each row keeps a
    componentwise relative error of the same order as row-by-row
    substitution, and a row is exactly zero where the recurrence makes it
    zero."""
    B = len(cross)
    W = min(_LEAF, B)
    L = -(-B // W)
    diag = s + np.arange(W)[:, None, None] + W * np.arange(L)[:, None]
    inv = np.zeros((W, L, W))  # (row, leaf, column)
    flat = inv.reshape(W, L * W)
    for i in range(W):
        if i:
            np.dot(u[i:0:-1], flat[:i], out=flat[i])
        inv[i, :, i] += 1.0
        inv[i] /= diag[i]
    rev = np.empty(B)  # rows in reverse order, so each correlation reads a suffix
    for r in range(0, B, W):
        w = min(W, B - r)
        rhs = cross[r:r + w]
        if r:
            rhs = rhs + np.correlate(u[1:r + w], rev[B - r:], "valid")
        rev[B - r - w:B - r] = (inv[:w, r // W, :w] @ rhs)[::-1]
    return rev[::-1]


def exp_coefficients(c: np.ndarray, n_max: int):
    """Coefficients b_0..b_n_max of exp(A(t)) as (mantissa, exponent) arrays.

    c holds k*a_k >= 0 (entry 0 ignored): n*b_n = sum_{k=1}^n c_k b_{n-k}.
    Blocks of rows grow from 1 to _BLOCK_MAX.  Each divides rows b_j by
    b_a 2**((j-a)*tilt), a the last nonzero row, and c_k by 2**(k*tilt),
    which leaves the recurrence unchanged; tilt, a multiple of
    2**-_TILT_BITS so j*tilt is exact, is the slope of log2 b extrapolated
    to the block's middle.  History enters by one FFT middle product over a
    window that drops a row once its term, with the largest tilted c_k it
    can still meet, is below 2**-_WINDOW_BITS of row a; the block's own
    rows are then solved in leaves of _LEAF rows by _leaf_solve.  A block
    not far above the FFT round-off, or overflowing, is summed row by row
    exactly.  Zero rows stay exact.
    """
    c = np.array(c[:n_max + 1], dtype=np.float64)
    c[0] = 0.0
    log_c = np.log2(c, out=np.full(n_max + 1, -np.inf), where=c > 0)
    gaps = not np.all(c[1:] > 0)
    ks = np.arange(n_max + 1)
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
            lu = log_c[1:n_max + 1 - lo] - ks[1:n_max + 1 - lo] * tilt
            # max of lu[k:] for k = a-lo-1 down to 0, the reach of rows lo..a-1
            reach = np.maximum(np.maximum.accumulate(lu[a - lo - 1::-1]),
                               np.max(lu[a - lo:]))
            lo += int(np.argmax(lhist + reach >= math.log2(a) - _WINDOW_BITS))
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
            rows = _leaf_solve(cross, u, s)
            # each FFT entry carries round-off of about eps*|hist|*|u|
            noise = np.linalg.norm(hist) * np.linalg.norm(u) * 2.0 ** -_NOISE_BITS
            fast = (math.isfinite(noise) and np.max(rows) < 2.0 ** 1000
                    and np.all(zero | (rows * np.arange(s, e) >= noise)))
        if fast:
            x = (np.arange(s, e) - a) * tilt
            fl = np.floor(x)
            m, ex = np.frexp(rows * mant[a] * np.exp2(x - fl))
            mant[s:e] = 2.0 * m
            expo[s:e] = np.where(m != 0, ex - 1 + expo[a] + fl.astype(np.int64), 0)
        else:
            for n in range(s, e):
                total, top = _scaled_dot(c[n - lo:0:-1], mant[lo:n], expo[lo:n])
                row = ScaledReal(total / n, top)
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
                        x: float = None) -> Dict[int, float]:
    """Exact pmf of a cycle-type statistic by full enumeration.

    statistic is one of "L1" (longest cycle), "tail_count" (number of
    cycles of length >= x) or "total_cycles".
    """
    if statistic == "tail_count" and x is None:
        raise ValueError("tail_count needs the threshold x")
    pmf: Dict[int, float] = {}
    for ct, p in enumerate_cycle_types(w, n):
        if statistic == "L1":
            v = int(ct.m[-1])
        elif statistic == "tail_count":
            v = ct.tail_count(x)
        elif statistic == "total_cycles":
            v = ct.num_cycles()
        else:
            raise ValueError(f"unknown statistic {statistic!r}")
        pmf[v] = pmf.get(v, 0.0) + p
    return pmf


def _tilted_ratio(w: WeightSequence, n: int, lo: int, c: float,
                  h: HTable = None) -> float:
    """[t^n] exp(sum_k c_k t^k / k) / h_n, with c_k = theta_k below lo and
    c * theta_k from lo on.

    Both rows come from exp_coefficients builds to size n (h's own row when
    h.n_max == n): builds to different sizes differ in the last bits, and
    their ratio can exceed 1 where the probability is 1 to double
    precision."""
    theta = theta_array(w, n)
    den_m, den_e = ((h.mant, h.expo) if h is not None and h.n_max == n
                    else exp_coefficients(theta, n))
    if den_m[n] == 0.0:
        raise zero_row_error(w, n)
    theta[lo:] *= c
    num_m, num_e = exp_coefficients(theta, n)
    return _ratio(num_m[n], num_e[n], den_m[n], den_e[n])


def mgf_series(w: WeightSequence, n: int, x: float, s: float) -> float:
    """E[exp(s * #cycles of length >= x)] via truncated series extraction:
    [t^n] exp((e^s - 1) * sum_{x<=k<=n} (theta_k/k) t^k + g(t)) / h_n."""
    if x < 0:
        raise ValueError("x must be >= 0")
    return _tilted_ratio(w, n, max(1, math.ceil(x)), math.exp(s))


def tail_count_mean(h: HTable, n: int, x: float) -> float:
    """Exact E[number of cycles of length >= x] at size n, in O(n) from the
    table: sum_{max(x,1) <= k <= n} (theta_k / k) h_{n-k} / h_n, summed over
    the (mantissa, exponent) rows by _scaled_dot."""
    check_row(n, h.weight, h.mant)
    lo = max(1, math.ceil(x))
    if lo > n:
        return 0.0
    a = theta_array(h.weight, n)[lo:] / np.arange(lo, n + 1)
    total, top = _scaled_dot(a, h.mant[n - lo::-1], h.expo[n - lo::-1])
    return _ratio(total, top, h.mant[n], h.expo[n])


def longest_cycle_cdf(h: HTable, n: int, x: float) -> float:
    """Exact P(longest cycle <= x) at size n: h_n^(<=x) / h_n, where
    h^(<=x) is the table of the weights with theta_k = 0 for k > x, by
    _tilted_ratio.  x >= n and x < 1 need no table; nor does x >= n/2,
    where at most one cycle is longer than x: 1 - E[#cycles > x]."""
    check_row(n, h.weight, h.mant)
    if x >= n:
        return 1.0
    if x < 1:
        return 0.0
    if 2 * x >= n:
        return 1.0 - tail_count_mean(h, n, math.floor(x) + 1)
    return _tilted_ratio(h.weight, n, math.floor(x) + 1, 0.0, h)


def corollary_bound_check(w: WeightSequence, n: int, u: float, v: float):
    """Positive-coefficient series bound diagnostic.

    Builds F(t) = sum over the window x_{n,v} <= k < x_{n,u} of
    (theta_k/k) t^k, forms f = F^2 (1+F)^2, and compares
    lhs = [t^n] f(t) exp(g(t)) against rhs = 2 f(r_n) [t^n] exp(g(t)).
    Advisory below the (unknown) size where the bound provably kicks in.
    """
    from .asymptotics import solve_saddle, threshold_x

    if not 0 <= u < v:
        raise ValueError("need 0 <= u < v")
    if n > SERIES_CAP:
        raise CapacityError(f"n={n} exceeds series cap {SERIES_CAP}")
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
    rhs = ScaledReal(h.mant[n] * (2.0 * f_at_r), int(h.expo[n])).to_float()
    return lhs, rhs, lhs <= rhs
