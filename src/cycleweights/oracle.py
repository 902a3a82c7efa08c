"""Exact ground truth at small-to-moderate sizes.

Everything here is exact up to floating round-off: enumeration over integer
partitions, the normalization constants h_n via their recurrence

    n * h_n = sum_{k=1}^{n} theta_k * h_{n-k},        h_0 = 1,

truncated power-series exponentiation for moment generating functions, and
the positive-coefficient series bound used as a cross-check of the
saddle-point machinery.  Series coefficients span thousands of binary
orders of magnitude, so they are kept as mantissa/exponent array pairs and
computed by one blockwise, exponentially tilted FFT kernel
(`exp_coefficients`).  One enumeration of the partitions of n gives every
ln h_m for m <= n (`log_h_exact`), as a partition of m is one of n less
n - m parts 1.  A `ScaledReal`, a natural log, is only the return of
`h_exact` and of `asymptotics.saddle_h_estimate`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Tuple

import numpy as np

from .weights import WeightSequence, theta_array, theta_log_array

ENUMERATION_CAP = 60
SERIES_CAP = 220

_MAGIC = b"CWHT"
_CACHE_VERSION = 2
_HEADER = struct.Struct("<I32sQ")  # version, weight digest, n_max
_ROW = np.dtype([("m", "<f8"), ("e", "<i8")])

_WINDOW_BITS = 64
_TILT_BITS = 20
_BLOCK_MAX = 4096
_NOISE_BITS = 8
_LEAF = 16
_CHUNK = 1 << 16  # entries per array in the window cut's running maximum


class CapacityError(ValueError):
    """Requested size exceeds an enumeration or table capacity."""


def zero_row_error(w: WeightSequence, n: int) -> ValueError:
    """The error for a size n with h_n = 0: no cycle type of size n has
    positive weight, so it has no distribution to sample or compute."""
    return ValueError(f"h_{n} = 0 for {w!r}: no permutation of size {n} "
                      f"has positive weight")


def _check_row(h: HTable, n: int) -> None:
    """Reject a size n outside the table h, or with h_n = 0."""
    if n < 1 or n > h.n_max:
        raise CapacityError(f"n={n} outside table range 1..{h.n_max}")
    if h.mant[n] == 0.0:
        raise zero_row_error(h.weight, n)


class Columns(NamedTuple):
    """Cycle types as int32 CSR arrays of (m, C_m) pairs, all of size n.

    Row i holds pairs starts[i] up to starts[i + 1] (or the end), with m
    ascending, so a row's longest cycles are its last pairs.  A sampler
    chunk is one Columns, and each of its samples a CycleType row of it.
    Columns compare and hash by identity, not by their arrays.
    """

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__
    starts: np.ndarray
    m: np.ndarray
    c: np.ndarray
    n: int


class CycleType(tuple):
    """Read-only handle on one cycle type: the tuple (cols, start, end),
    row [start, end) of the pairs of a Columns, built as
    CycleType((cols, start, end)) by tuple's own constructor.  m (cycle
    lengths, ascending) and c (their counts C_m >= 1), with
    sum m * C_m = n, are int32 views made on access.  Handles compare and
    hash by identity, as objects do, not by their arrays."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__
    cols, start, end = (property(itemgetter(i)) for i in range(3))

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
        return cls((Columns(starts, m, c, n), 0, len(items)))

    @property
    def m(self) -> np.ndarray:
        cols, a, b = self
        return cols.m[a:b]

    @property
    def c(self) -> np.ndarray:
        cols, a, b = self
        return cols.c[a:b]

    @property
    def n(self) -> int:
        return self[0].n

    @property
    def counts(self) -> Tuple[Tuple[int, int], ...]:
        """((m, C_m), ...) as Python ints, m ascending."""
        cols, a, b = self
        return tuple(zip(cols.m[a:b].tolist(), cols.c[a:b].tolist()))

    def num_cycles(self) -> int:
        cols, a, b = self
        return sum(cols.c[a:b].tolist())


def partitions(n: int) -> Iterator[Tuple[int, ...]]:
    """All partitions of n as descending tuples, largest part first, in
    reverse lexicographic order: Zoghbi and Stojmenovic's ZS1, in O(1)
    amortized steps per partition besides the tuple it yields."""
    # a is the partition, a[h] its last part > 1 (h = -1: none is)
    a, h = ([n] if n else []), (0 if n > 1 else -1)
    while True:
        yield tuple(a)
        if h < 0:
            return
        if a[h] == 2:
            a[h] = 1
            a.append(1)
            h -= 1
        else:
            # a[h] gives up one, and that one with the 1s after it is
            # refilled with parts r = a[h] - 1, then a remainder t
            r = a[h] - 1
            q, t = divmod(len(a) - h, r)
            a[h:] = [r] * (q + 1) + [t] * (t > 0)
            h += q + (t > 1)


def _log_terms(w: WeightSequence, n: int) -> List[List[float]]:
    """terms[m][c] = c ln theta_m - c ln m - ln c! for 1 <= m <= max(n, 1)
    and c <= n // m, with ln theta_m read from one theta_log_array: 0 at
    c = 0, and -inf where theta_m = 0 and c > 0, which a sum keeps."""
    return [[0.0] + [c * lt - c * math.log(m) - math.lgamma(c + 1)
                     for c in range(1, n // m + 1)] if m else []
            for m, lt in enumerate(theta_log_array(w, max(n, 1)).tolist())]


def _type_logs(w: WeightSequence, n: int
               ) -> Iterator[Tuple[Dict[int, int], float, float]]:
    """(counts, ln of the weight of its parts > 1, ln of the type weight)
    of every cycle type of size n: ln of prod theta_m^{C_m} / prod
    (m^{C_m} C_m!), summed over the parts from one _log_terms table, parts
    1 last.  counts follow the partition, largest part first."""
    if n > ENUMERATION_CAP:
        raise CapacityError(f"n={n} exceeds enumeration cap {ENUMERATION_CAP}")
    terms = _log_terms(w, n)
    for part in partitions(n):
        counts: Dict[int, int] = {}
        for p in part:
            counts[p] = counts.get(p, 0) + 1
        rest = 0.0
        for m, c in counts.items():
            if m > 1:
                rest += terms[m][c]
        yield counts, rest, rest + terms[1][counts.get(1, 0)]


def _log_sum(logs: List[float]) -> float:
    """ln sum_i exp(logs_i), -inf when every term is -inf."""
    top = max(logs, default=-math.inf)
    if top == -math.inf:
        return top
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


def _enumerate(w: WeightSequence, n: int, key: Callable[[Dict[int, int]], Any]
               ) -> Tuple[List[Tuple[Any, float]], List[float]]:
    """(key(counts), ln of the type weight) of every cycle type of size n,
    in the order of _type_logs, and ln h_0..ln h_n (-inf where h_m = 0),
    by one enumeration of the partitions of n.  A partition of m <= n is
    one of n less n - m parts 1, so with A_s the log-sum of the weights
    without their parts 1 of the partitions of n whose other parts sum to
    s, ln h_m = logsum_{s <= m} A_s + (m - s) ln theta_1 - ln (m - s)!."""
    types, groups = [], [[] for _ in range(n + 1)]
    for counts, rest, lw in _type_logs(w, n):
        types.append((key(counts), lw))
        groups[n - counts.get(1, 0)].append(rest)
    a, ones = [_log_sum(g) for g in groups], _log_terms(w, n)[1]
    return types, [_log_sum([a[s] + ones[m - s] for s in range(m + 1)])
                   for m in range(n + 1)]


def log_h_exact(w: WeightSequence, n: int) -> List[float]:
    """ln h_0..ln h_n (-inf where h_m = 0), by _enumerate."""
    return _enumerate(w, n, bool)[1]


def h_exact(w: WeightSequence, n: int) -> ScaledReal:
    """h_n, the sum of the weights of the cycle types of size n: the last
    entry of log_h_exact."""
    return ScaledReal(log_h_exact(w, n)[n])


def _pmf(w: WeightSequence, n: int, key: Callable[[Dict[int, int]], Any]
         ) -> Tuple[Dict[Any, float], List[float]]:
    """The exact pmf of key(counts) over the cycle types of size n, each
    probability added in the order of _type_logs, and ln h_0..ln h_n, by
    one _enumerate.  The probabilities are normalised by their own
    log-sum.  n < 1 and h_n = 0 are ValueErrors."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    types, log_hs = _enumerate(w, n, key)
    log_h = _log_sum([lw for _, lw in types])
    if log_h == -math.inf:
        raise zero_row_error(w, n)
    pmf: Dict[Any, float] = {}
    for k, lw in types:
        pmf[k] = pmf.get(k, 0.0) + math.exp(lw - log_h)
    return pmf, log_hs


def enumerate_cycle_types(w: WeightSequence, n: int
                          ) -> List[Tuple[CycleType, float]]:
    """All cycle types of size n with their exact probabilities.

    Ordered lexicographically by partition with largest part descending.
    """
    # handles compare by identity: each type is its own key
    return list(_pmf(w, n, lambda counts: CycleType.from_dict(counts, n))
                [0].items())


def _weight_digest(w: WeightSequence) -> bytes:
    """SHA-256 of the family name and its exact parameters or table values."""
    # CPython's own SHA-256, taken as random.py takes its SHA-512: the same
    # bytes as hashlib's, without mapping OpenSSL's libcrypto, as hashlib
    # does.  Imported here, as only the cache needs it.
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10, 3.11
        except ImportError:
            from hashlib import sha256
    params = {"polynomial": (w.alpha,), "ewens": (w.vartheta,),
              "table": w.values}[w.family]
    return sha256(w.family.encode()
                  + np.asarray(params, dtype="<f8").tobytes()).digest()


def residual_rows(n_max: int) -> np.ndarray:
    """The rows whose recurrence residuals HTable.load checks, ascending:
    k = max(1, n_max // 100) of the rows 1..n_max (all of them if fewer),
    one in each of k strata of widths within one of each other, at an
    offset in stratum i = 0..k-1 from a Fibonacci hash: the top 32 bits of
    (i + 1) * 0x9E3779B97F4A7C15 mod 2**64, mod the stratum's width."""
    k = min(max(1, n_max // 100), n_max)
    starts = 1 + np.arange(k + 1) * n_max // max(k, 1)
    mix = (np.arange(1, k + 1, dtype=np.uint64)
           * np.uint64(0x9E3779B97F4A7C15) >> np.uint64(32))
    offset = mix % np.diff(starts).astype(np.uint64)
    return starts[:-1] + offset.astype(np.int64)


@dataclass(eq=False)
class HTable:
    """Normalization constants h_0..h_n_max for one weight sequence.
    Tables compare and hash by identity, not by their arrays."""

    weight: WeightSequence
    n_max: int
    mant: np.ndarray  # float64, mantissas in [1,2) (or 0)
    expo: np.ndarray  # int64

    def log_array(self, start: int = 0) -> np.ndarray:
        """Natural logs of h_start..h_n_max; -inf where h_m = 0."""
        mant = self.mant[start:]
        logm = np.log(mant, out=np.full(mant.size, -np.inf), where=mant > 0)
        return logm + self.expo[start:] * math.log(2.0)

    def recurrence_residuals(self, rows) -> np.ndarray:
        """Relative residual of n*h_n against the full convolution sum
        sum_k theta_k h_{n-k}, at each n of rows: 0 at a zero row whose
        terms are all zero, inf at one whose terms are not.  A row that is
        not an integer in 1..n_max is a CapacityError.  theta is split and
        the table reversed once, so each row is one _scaled_dot over
        contiguous slices."""
        rows = np.asarray(rows)
        bad = rows[~((rows >= 1) & (rows <= self.n_max) & (rows % 1 == 0))]
        if bad.size:
            raise CapacityError(f"n={bad[0]} outside table range 1..{self.n_max}")
        cm, ce = _split(theta_array(self.weight, self.n_max))
        rev_m, rev_e = self.mant[::-1].copy(), self.expo[::-1].copy()
        out = np.empty(len(rows))
        for i, n in enumerate(map(int, rows.tolist())):
            total, top = _scaled_dot(cm[:n + 1], ce[:n + 1], rev_m[-n - 1:],
                                     rev_e[-n - 1:])
            if self.mant[n] == 0.0:
                out[i] = 0.0 if total == 0.0 else math.inf
            else:
                out[i] = abs(_ratio(total, top, n * self.mant[n], self.expo[n]) - 1.0)
        return out

    def save(self, path: str) -> None:
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(_HEADER.pack(_CACHE_VERSION, _weight_digest(self.weight),
                                 self.n_max))
            np.rec.fromarrays([self.mant, self.expo], dtype=_ROW).tofile(f)

    @classmethod
    def load(cls, path: str, weight: WeightSequence) -> "HTable":
        """The table saved at path for weight, checked: its header (magic,
        version, weight digest and row count) must match, every mantissa
        must be 0 or in [1, 2), and its recurrence residuals
        (recurrence_residuals) must be at most 1e-9 on the rows
        residual_rows(n_max), one in each hundred, else ValueError names
        the first failing row.  A NaN fails both tests.  Each row's sum is
        O(n), so the check is O(n_max^2), by one theta split and one
        reversed copy of the table for all its rows.  The rows are fixed,
        so a load draws no random numbers."""
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
        bad = np.flatnonzero(~((tab.mant == 0.0)
                               | ((tab.mant >= 1.0) & (tab.mant < 2.0))))
        if not bad.size:
            rows = residual_rows(tab.n_max)
            bad = rows[~(tab.recurrence_residuals(rows) <= 1e-9)]
        if bad.size:
            raise ValueError(f"{path}: mantissa or recurrence residual "
                             f"check failed at n={bad[0]}")
        return tab


class ScaledReal(NamedTuple):
    """A nonnegative number kept as its natural log (-inf for 0): what
    h_exact and saddle_h_estimate return.  Table rows are read as arrays,
    by HTable.log_array or _ratio."""

    ln: float

    def log(self) -> float:
        return self.ln


def _ratio(m1: float, e1: int, m2: float, e2: int) -> float:
    """(m1 * 2**e1) / (m2 * 2**e2) as a double; overflows to inf."""
    try:
        return math.ldexp(float(m1) / float(m2), int(e1 - e2))
    except OverflowError:
        return math.inf


def _times_pow2(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m * 2**x without intermediate overflow, written over x, which the
    caller gives up; floor(x) must be exact."""
    fl = np.floor(x)
    x -= fl
    ex = fl.astype(np.int64)
    del fl
    np.exp2(x, out=x)
    x *= m
    return np.ldexp(x, ex, out=x)


# 2^0, 2^-1, ..., 2^-1020, then 0 for every larger shift
_POW2_DOWN = np.append(np.ldexp(1.0, -np.arange(1021)), 0.0)


# below any exponent a term can have: the exponent of a masked zero term
_ZERO_EXP = -(1 << 48)


def _split(coef: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """coef as _scaled_dot takes it: np.frexp's mantissas, in [1/2, 1) (or
    0), and its exponents as int64."""
    cm, ce = np.frexp(coef)
    return cm, ce.astype(np.int64)


def _scaled_dot(cm: np.ndarray, ce: np.ndarray, mant: np.ndarray,
                expo: np.ndarray) -> Tuple[float, int]:
    """sum_i coef_i * mant_i 2**expo_i as (float, binary exponent), for
    (cm, ce) = _split(coef); terms more than 1020 binary orders below the
    largest vanish.  Callers split their coefficients once and reuse them.

    The terms are m_i 2**(ex_i - top) with m_i in [1/2, 2) (or 0) and top
    the largest exponent of a nonzero term (0 if every term is zero),
    scaled by a table of powers of two instead of np.ldexp: the products
    are exact, and a dropped term is below 2^-1019, which cannot move a sum
    whose top term is at least 1/2.  The zero terms (zero coefficients,
    theta_0 among them, and zero rows) are masked, to exponent _ZERO_EXP,
    only when one of them carries the largest exponent.  Zero terms may
    still carry exponents above top, so the table index is clipped at both
    ends.  The terms are summed in order."""
    m, ex = cm * mant, ce + expo
    i = np.argmax(ex)
    if m[i] == 0.0:
        ex[m == 0.0] = _ZERO_EXP
        i = np.argmax(ex)
    top = int(ex[i]) if m[i] != 0.0 else 0
    m *= np.take(_POW2_DOWN, np.subtract(top, ex, out=ex), mode="clip")
    return float(np.sum(m)), top


def _middle_product(fx: np.ndarray, y: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Entries lo..hi-1 of the linear convolution x*y, for len(x) <= lo,
    from fx = np.fft.rfft(x, size), which the caller gives up, for an even
    size >= len(y): a cyclic FFT of that length aliases only onto indices
    below len(x)."""
    size = 2 * (len(fx) - 1)
    fx *= np.fft.rfft(y, size)
    return np.fft.irfft(fx, size)[lo:hi]


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


def _tilted(i: int, j: int, slope: float, base=None) -> np.ndarray:
    """k * slope + base (base None: 0) for k = i..j-1, as one new float
    array, with no index or temporary array: the same bits as
    base - k * -slope, as negation is exact and addition commutes."""
    x = np.arange(i, j, dtype=np.float64)
    x *= slope
    if base is not None:
        x += base
    return x


def _window_start(mant: np.ndarray, expo: np.ndarray, log_c: np.ndarray,
                  lo: int, a: int, tilt: float) -> int:
    """The window start of exp_coefficients: the first row j of lo..a-1
    whose tilted log2 relative to row a, plus the largest tilted
    lu_k = log2 c_k - k tilt it can still meet (k >= a - j), is at least
    log2(a) - _WINDOW_BITS.  lu_k is made for k <= a - lo, and the max of
    the rest in chunks of _CHUNK, so no array outlives the call or holds
    more than the window or a chunk."""
    top = -math.inf
    for k in range(a - lo + 1, len(log_c) - lo, _CHUNK):
        end = min(k + _CHUNK, len(log_c) - lo)
        top = max(top, float(np.max(_tilted(k, end, -tilt, log_c[k:end]))))
    # lu_k for k = a-lo down to 1, then their running max: the reach of
    # rows lo..a-1
    reach = _tilted(lo - a, 0, tilt, log_c[a - lo:0:-1])
    np.maximum.accumulate(reach, out=reach)
    np.maximum(reach, top, out=reach)
    with np.errstate(divide="ignore"):  # zero rows have log -inf
        reach += _tilted(lo - a, 0, -tilt, np.log2(mant[lo:a] / mant[a])
                         + (expo[lo:a] - expo[a]))
    return lo + int(np.argmax(reach >= math.log2(a) - _WINDOW_BITS))


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
            lo = _window_start(mant, expo, log_c, lo, a, tilt)
        H, B = s - lo, e - s
        nfft = 1 << (e - lo - 1).bit_length()  # even: e - lo >= 2
        with np.errstate(over="ignore", invalid="ignore"):
            hist = _times_pow2(mant[lo:s] / mant[a], _tilted(
                lo - a, s - a, -tilt, expo[lo:s] - expo[a]))
            u = _times_pow2(c[:e - lo], _tilted(0, e - lo, -tilt))
            # each FFT entry carries round-off of about eps*|hist|*|u|; the
            # norms are summed by einsum, as BLAS runs long dots in threads.
            # hist is read only through its transform after this, and u
            # only up to the block's size
            noise = (math.sqrt(np.einsum("i,i", hist, hist))
                     * math.sqrt(np.einsum("i,i", u, u)) * 2.0 ** -_NOISE_BITS)
            hist = np.fft.rfft(hist, nfft)
            cross = _middle_product(hist, u, H, H + B)
            del hist
            u = u[:B].copy()
            # round-off must not fill rows whose every term is zero
            zero = gaps and _middle_product(
                np.fft.rfft((mant[lo:s] != 0).astype(np.float64), nfft),
                (c[:e - lo] != 0).astype(np.float64), H, H + B) < 0.5
            cross = np.where(zero, 0.0, np.maximum(cross, 0.0))
            rows = _leaf_solve(cross, u, s)
            fast = (math.isfinite(noise) and np.max(rows) < 2.0 ** 1000
                    and np.all(zero | (rows * np.arange(s, e) >= noise)))
        if fast:
            x = (np.arange(s, e) - a) * tilt
            fl = np.floor(x)
            m, ex = np.frexp(rows * mant[a] * np.exp2(x - fl))
            mant[s:e] = 2.0 * m
            expo[s:e] = np.where(m != 0, ex - 1 + expo[a] + fl.astype(np.int64), 0)
        else:
            # c_{e-1-lo} .. c_1, split once for the block: row n reads the
            # last n - lo, c[n - lo:0:-1]
            rev_m, rev_e = _split(c[e - 1 - lo:0:-1])
            for n in range(s, e):
                total, top = _scaled_dot(rev_m[lo - n:], rev_e[lo - n:],
                                         mant[lo:n], expo[lo:n])
                m, ex = math.frexp(total / n)
                mant[n], expo[n] = 2.0 * m, (ex - 1 + top if m else 0)
        s = e
        size = min(2 * size, _BLOCK_MAX)
    return mant, expo


def build_h_table(w: WeightSequence, n_max: int) -> HTable:
    """HTable from the recurrence, by the blockwise kernel exp_coefficients."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
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
    key = {"L1": max,  # the largest part
           "tail_count": lambda counts: sum(c for m, c in counts.items()
                                            if m >= x),
           "total_cycles": lambda counts: sum(counts.values())}.get(statistic)
    if key is None:
        raise ValueError(f"unknown statistic {statistic!r}")
    return _pmf(w, n, key)[0]


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
        raise ValueError(f"x must be >= 0, got {x}")
    return _tilted_ratio(w, n, max(1, math.ceil(x)), math.exp(s))


def tail_count_mean(h: HTable, n: int, x: float) -> float:
    """Exact E[number of cycles of length >= x] at size n, in O(n) from the
    table: sum_{max(x,1) <= k <= n} (theta_k / k) h_{n-k} / h_n, summed over
    the (mantissa, exponent) rows by _scaled_dot."""
    _check_row(h, n)
    lo = max(1, math.ceil(x))
    if lo > n:
        return 0.0
    a = theta_array(h.weight, n)[lo:] / np.arange(lo, n + 1)
    total, top = _scaled_dot(*_split(a), h.mant[n - lo::-1], h.expo[n - lo::-1])
    return _ratio(total, top, h.mant[n], h.expo[n])


def longest_cycle_cdf(h: HTable, n: int, x: float) -> float:
    """Exact P(longest cycle <= x) at size n: h_n^(<=x) / h_n, where
    h^(<=x) is the table of the weights with theta_k = 0 for k > x, by
    _tilted_ratio.  x >= n and x < 1 need no table; nor does x >= n/2,
    where at most one cycle is longer than x: 1 - E[#cycles > x]."""
    _check_row(h, n)
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
        raise ValueError(f"need 0 <= u < v, got u={u}, v={v}")
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
    lhs = _ratio(*_scaled_dot(*_split(f), h.mant[::-1], h.expo[::-1]), 1.0, 0)
    rhs = _ratio(h.mant[n] * (2.0 * f_at_r), h.expo[n], 1.0, 0)
    return lhs, rhs, lhs <= rhs
