"""Exact sampling of cycle types at large n.

The first cycle of a size-m permutation has length k with probability
theta_k * h_{m-k} / (m * h_m); removing it leaves an independent size-(m-k)
problem, so repeatedly drawing first-cycle lengths yields an exact sample
of the cycle type.

A row of size m > 16 draws its first cycle by exact rejection, in O(1)
expected uniforms.  For k < m, h_{m-k}/h_m is a product of the ratios
q_j = h_{j-1}/h_j over m-k < j <= m, so it is at most Q_m^k, where Q_m is
the largest q_j with 2 <= j <= m.  The row takes k = m with its exact
probability theta_m / (m h_m); otherwise it proposes k from
theta_k Q_m^k (one plus a sum of geometric variables, a negative binomial
envelope), rejects k >= m, and accepts k with probability
theta_k h_{m-k} / (h_m * envelope).  A rejected proposal is retried on
the next step, without the k = m test.  Expected work per sample is
O(number of cycles).  Rows of size m <= 16, and every row of weights with
no envelope (tables, and Ewens with vartheta <= 1, where Q_m >= 1), are
drawn by an inverse-CDF scan in increasing k with early stopping, whose
length telescopes with the removed cycle lengths: O(n) per sample.

One vectorised kernel scans the first cycles of many rows at once, side
by side in doubling blocks.  Samples are drawn in chunks advanced in
lockstep, one first cycle (or one rejected proposal) per sample per step;
a single draw is a chunk of one.  Chunks and scan groups are sized by one
budget of 2^16 cells.  A chunk at size n holds
max(2048, 2^16 // min(n, 32)) samples, each reading ahead min(n, 32)
uniforms, so every n >= 32 takes chunks of 2048 (refilled every 8 steps
where a step reads 4 uniforms, as at alpha = 1), and n = 6 one of 10922;
past n = 1 048 574 chunks shrink to (2^31 - 1) // (n + 1) samples.
A chunk records each first cycle as the int32 key
sample * (n + 1) + length, which that cap keeps below 2^31, and counts C_m
from the runs of its sorted keys into one Columns of read-only int32
arrays; each of its samples is handed out as a CycleType row handle on
it, with no per-sample array.  A scan group holds
max(256, 2^16 // max m) rows, and no block is wider than max m, so a
group of rows of size <= 16 takes up to 4096 of them, or more where all
are smaller.  Sample i reads its uniforms, in order, from its own
counter-based random stream keyed by (seed, i), the same number at every
step: one where no row of the draw has an envelope (n <= 16, or tables),
else one for the scan or the k = m test followed by one proposal's (a
uniform per geometric variable and one for the acceptance test); a row
uses those its draw needs.  Its value therefore
depends only on the seed and its index, not on the batch size, the
chunking or any other sample.

A step where some row has an envelope makes one pass over its arrays:
every row takes the k = m test and a proposal, whose geometric variables
are the rows of one array so that each operation runs along the step's
rows, and the rows without an envelope, which fail both, then take the
scan's draw.
A chunk's read-ahead holds sample i's uniforms for its j-th step after a
refill in row i * steps + j, so a step gathers each sample's uniforms as
one contiguous row.

The streams are numpy's Philox4x64-10, bit for bit.  Philox maps (key,
counter) to random words, so a batch computes its chunk's uniforms in one
set of in-place numpy array operations, keys and counters side by side,
the first two rounds on the key and counter vectors alone;
substream_rng gives the same stream as a Generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .oracle import Columns, CycleType, HTable, check_row
from .weights import EWENS, POLYNOMIAL, WeightSequence, theta_log_array

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Philox4x64 round multipliers M and key bumps W (Weyl constants), one per
# word pair, shaped to broadcast over (pair, block, key)
_M = np.array([[[0xD2E7470EE14C6C93]], [[0xCA5A826395121157]]], np.uint64)
_W = np.array([[[0x9E3779B97F4A7C15]], [[0xBB67AE8584CAA73B]]], np.uint64)
_LO32, _SH32 = np.uint64((1 << 32) - 1), np.uint64(32)

# first scan block; later blocks double.  Rows of at most this size are
# scanned, larger ones drawn by rejection when the weights have an envelope
_SCAN_BLOCK = 16
# fewest samples advanced in lockstep
_CHUNK = 2048
# fewest rows scanned together
_SCAN_ROWS = 256
# uniforms read ahead from each sample's stream per refill
_LOOKAHEAD = 32
# cells of a chunk's read-ahead buffer, and of a scan group's (rows, block)
# arrays, where the floors above allow it: 2^16
_BUFFER = _CHUNK * _LOOKAHEAD


def _chunk_size(n: int) -> int:
    """Samples per chunk at size n: a buffer of min(n, _LOOKAHEAD) uniforms
    each, _CHUNK for every n >= _LOOKAHEAD, and at most (2^31 - 1) // (n + 1),
    so that the keys sample * (n + 1) + length fit int32."""
    return min(max(_CHUNK, _BUFFER // min(n, _LOOKAHEAD)),
               (2**31 - 1) // (n + 1))


@dataclass
class SamplerConfig:
    n: int
    num_samples: int
    seed: int

    def validate(self, h: HTable) -> None:
        check_row(self.n, h.weight, h.mant)
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")


def substream_keys(seed: int, indices) -> np.ndarray:
    """uint64 keys of the samples `indices`: splitmix64 of the seed mixed
    with a golden-ratio multiple of the index.  The seed is taken mod 2^64,
    so any Python int is a seed."""
    z = np.asarray(indices).astype(np.uint64) * np.uint64(_GOLDEN)
    z ^= np.uint64(seed & _MASK64)
    z += np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def substream_rng(seed: int, index: int) -> np.random.Generator:
    """Sample `index`'s stream as a Generator, whose random() gives the
    uniforms philox_uniforms computes for its key."""
    return np.random.Generator(np.random.Philox(
        key=int(substream_keys(seed, [index])[0])))


def _philox_mul(m: np.ndarray, c: np.ndarray, lo: np.ndarray = None,
                work: np.ndarray = None):
    """(high, low) 64-bit words of the 128-bit products of the multipliers
    m and counter words c, the high word from four 32 x 32 -> 64-bit
    products.  The high words overwrite c, and the low ones go to lo;
    work holds three arrays shaped like c.  Both are allocated if not
    given."""
    if lo is None:
        lo = np.empty_like(c)
        work = np.empty((3,) + c.shape, np.uint64)
    c_lo, mid, c_hi = work
    m_lo, m_hi = m & _LO32, m >> _SH32
    np.multiply(c, m, out=lo)
    np.bitwise_and(c, _LO32, out=c_lo)
    np.right_shift(c, _SH32, out=c_hi)
    np.multiply(c_lo, m_lo, out=mid)
    mid >>= _SH32
    c_lo *= m_hi
    mid += c_lo  # below 2^64, as is c_lo below
    np.multiply(c_hi, m_lo, out=c_lo)
    np.multiply(c_hi, m_hi, out=c)
    np.bitwise_and(mid, _LO32, out=c_hi)
    c_lo += c_hi
    c_lo >>= _SH32
    mid >>= _SH32
    c += mid
    c += c_lo
    return c, lo


def philox_uniforms(keys: np.ndarray, start: int, count: int) -> np.ndarray:
    """Uniforms start .. start + count - 1 of each key's stream, one row per
    key: the values np.random.Generator(np.random.Philox(key=k)).random()
    returns, computed for all keys at once.

    Philox4x64-10 (Salmon et al., SC'11) turns a counter (c0, c1, c2, c3)
    into four 64-bit words by ten rounds under key (k0, k1), bumped by
    Weyl constants between rounds.  numpy bumps the counter before each
    block, so uniform j is word j % 4 of counter (j // 4 + 1, 0, 0, 0)
    under key (k, 0), taken as (x >> 11) * 2^-53.  A round maps the words
    to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)),
    so round 1 gives (k, 0, hi(M0 c), lo(M0 c)), and round 2 words that
    are a per-key word, a per-block word, or the XOR of one of each: those
    two rounds run on the key and block vectors, the other eight on
    (pair, block, key) arrays.
    """
    first, skip = divmod(start, 4)
    blocks = -(-(skip + count) // 4)
    rows = len(keys)
    m0, m1 = _M[0, 0, 0], _M[1, 0, 0]
    w0, w1 = _W[0, 0, 0], _W[1, 0, 0]
    # round 1 on the block counters c, round 2 under key (k + W0, W1)
    c_hi, c_lo = _philox_mul(
        m0, np.arange(first + 1, first + blocks + 1, dtype=np.uint64))
    b_hi, b_lo = _philox_mul(m1, c_hi)
    k_hi, k_lo = _philox_mul(m0, np.array(keys, dtype=np.uint64))
    key = np.empty((2, 1, rows), dtype=np.uint64)
    key[0, 0] = keys
    key[0] += w0
    key[1] = w1
    # counter words (c0, c2) and (c1, c3)
    even = np.empty((2, blocks, rows), dtype=np.uint64)
    np.bitwise_xor(b_hi[:, None], key[0], out=even[0])
    np.bitwise_xor((c_lo ^ w1)[:, None], k_hi, out=even[1])
    odd = np.empty_like(even)
    odd[0] = b_lo[:, None]
    odd[1] = k_lo
    # rounds 3-10 in place: each round's low words go to the free array,
    # and the array it multiplied becomes free
    free = np.empty_like(even)
    work = np.empty((3,) + even.shape, np.uint64)
    for _ in range(8):
        key += _W
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0) for
        # (hi0, lo0) = M0 * c0 and (hi1, lo1) = M1 * c2: the new (c0, c2)
        # are (c1, c3) ^ hi reversed ^ key, the new (c1, c3) lo reversed
        hi, lo = _philox_mul(_M, even, free, work)
        odd ^= hi[::-1]
        odd ^= key
        even, odd, free = odd, lo[::-1], hi
    # uniform 4 j + i is word i of block j, each word written straight
    # into its column of the output, which takes the memory of the work
    # arrays
    even >>= np.uint64(11)
    odd >>= np.uint64(11)
    out = work[:2].view(np.float64).reshape(rows, blocks, 4)
    for i, word in enumerate((even[0], odd[0], even[1], odd[1])):
        np.multiply(word.T, 2.0 ** -53, out=out[:, :, i])
    return out.reshape(rows, -1)[:, skip:skip + count]


class CycleTypeSampler:
    """Reusable sampler bound to one weight sequence and HTable."""

    def __init__(self, w: WeightSequence, h: HTable):
        if h.weight != w:
            raise ValueError("HTable was built for a different weight sequence")
        self.w = w
        # the table's size and mantissas (for check_row), not the table:
        # HTable caches its shared sampler, and a reference back would make
        # the pair a cycle that outlives its last user until the garbage
        # collector runs
        self.n_max = n = h.n_max
        self.mant = h.mant
        self.log_theta = theta_log_array(w, n)
        self.log_h = h.log_array()
        # scan inputs: -log m - log h_m per m, and the log h windows: row
        # n - m, column k holds log h_{m-k}, read from the reversed log h
        # padded with -inf, so that k > m has probability 0
        with np.errstate(divide="ignore"):
            self._scan_base = -np.log(np.arange(n + 1)) - self.log_h
        h_rev = np.concatenate((self.log_h[::-1], np.full(n, -np.inf)))
        self._windows = sliding_window_view(h_rev, n + 1)
        self._init_envelope()
        # instrumentation: total scanned k across all draws, round-off scan
        # exhaustions (CDF ended below u), and rejection proposals
        self.scanned = 0
        self.incidents = 0
        self.proposals = 0

    def _init_envelope(self) -> None:
        """Rejection inputs, per row m and per length k.

        theta_k / theta_1 = k^alpha (alpha = 0 for Ewens), and the proposal
        is k = 1 + G_1 + ... + G_r, with r = floor(alpha) + 1 geometric
        variables of ratio rho = exp(-c): pmf C(k+r-2, r-1) rho^(k-1).  With
        L = -log Q_m, b = alpha - floor(alpha) and c = L r / (r + b), the
        envelope k^alpha Q_m^k is at most rho^(k-1) C(k+r-2, r-1) (r-1)!
        times rho S, S = sup_x x^b e^{-(L-c) x} = (b / (e (L-c)))^b, so a
        proposal k < m is accepted with probability
        exp(A_k + c k - D_m + log h_{m-k}), where
        A_k = log theta_k - log theta_1 - log(k (k+1) ... (k+r-2)) and
        D_m = log S + log h_m.  Every constant is in closed form.

        The bound C(k+r-2, r-1) (r-1)! >= k^(r-1) loses a factor of up to
        exp((r-1)(r-2) / 2k) at k; at the typical k ~ (alpha + 1) / L that
        is exp((r-1)(r-2) L / (2 (alpha + 1))).  Rows where it exceeds 2
        (only alpha >= 2, with L large) have short first cycles, and are
        scanned.
        """
        n = self.n_max
        alpha = {POLYNOMIAL: self.w.alpha, EWENS: 0.0}.get(self.w.family)
        # rows drawn by rejection: m > _SCAN_BLOCK with Q_m < 1 and a small
        # loss; Q_m is a prefix maximum, so L falls with m, and they are
        # the sizes from some m0 > _SCAN_BLOCK to some m*
        self._envelope = np.zeros(n + 1, dtype=bool)
        self._width = 0  # uniforms per proposal: r geometrics, one test
        if alpha is None or n <= _SCAN_BLOCK:
            return
        r = math.floor(alpha) + 1
        b = alpha - (r - 1)
        log_q = np.full(n + 1, -np.inf)
        log_q[2:] = self.log_h[1:-1] - self.log_h[2:]
        big_l = -np.maximum.accumulate(log_q)
        self._envelope[_SCAN_BLOCK + 1:] = (
            (big_l[_SCAN_BLOCK + 1:] > 0)
            & (big_l[_SCAN_BLOCK + 1:] * ((r - 1) * (r - 2))
               <= 2 * (alpha + 1) * math.log(2)))
        if not self._envelope.any():
            return
        self._width = r + 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self._rate = big_l * (r / (r + b))
            log_s = (b * (math.log(b) - 1.0 - np.log(big_l * (b / (r + b))))
                     if b else 0.0)
            self._accept_m = log_s + self.log_h
            ks = np.arange(n + 1, dtype=np.float64)
            # rho^(m-1) - 1: each geometric is drawn below m - 1, which
            # leaves the proposal's pmf on k < m proportional to the above
            self._cut = np.expm1(-self._rate * (ks - 1))
            self._accept_k = self.log_theta - self.log_theta[1]
            for j in range(r - 1):
                self._accept_k -= np.log(ks + j)
            # theta_m / (m h_m), the probability of k = m
            self._last = np.exp(self.log_theta - np.log(ks) - self.log_h)
        # a row without an envelope fails the k = m test and proposes k = 1
        # with acceptance probability 0, in finite arithmetic: _step
        # replaces its draw by the scan's
        off = ~self._envelope
        self._rate[off] = 1.0
        self._cut[off] = 0.0
        self._accept_m[off] = np.inf
        self._last[off] = 0.0

    def _first_cycles(self, m: np.ndarray, u: np.ndarray) -> np.ndarray:
        """First-cycle lengths for remaining sizes m >= 1 and uniforms u.

        Rows with m > 1 are scanned side by side in doubling blocks, each
        with the arithmetic of a scan of its own: (log theta + log h) + base,
        a running sum plus the mass of earlier blocks, Kahan-summed.  A block
        reaching past k = m reads -inf there, adding exact zeros.
        """
        # m = 1 takes k = 1 unscanned; a row whose CDF ends below u
        # (round-off) takes k = m
        k = m.copy()
        rows = np.flatnonzero(m > 1)
        if not rows.size:
            return k
        m, u = m[rows], u[rows]
        base = self._scan_base[m][:, None]
        start = self.n_max - m  # window row
        unresolved = len(m)
        acc = np.zeros(len(m))
        comp = np.zeros(len(m))
        top = int(m.max())
        lo, block = 1, _SCAN_BLOCK
        while True:
            width = min(block, top - lo + 1)
            probs = self._windows[start, lo:lo + width]
            probs += self.log_theta[lo:lo + width]
            probs += base
            np.exp(probs, out=probs)
            cum = np.cumsum(probs, axis=1)
            cum += acc[:, None]
            hit = cum[:, -1] >= u
            hits = np.count_nonzero(hit)
            if hits:
                below = (cum < u[:, None]).sum(axis=1)
                k[rows[hit]] = lo + below[hit]
                unresolved -= hits
            go = ~hit & (m >= lo + width)  # unresolved, with k left to scan
            left = np.count_nonzero(go)
            if left < len(m):
                # a row leaving here has scanned k = 1..min(m, block end)
                self.scanned += int(np.minimum(m[~go], lo + width - 1).sum())
                if not left:
                    break
                rows, m, u, base = rows[go], m[go], u[go], base[go]
                start = start[go]
                acc, comp, probs = acc[go], comp[go], probs[go]
                top = int(m.max())
            # Kahan across blocks
            y = probs.sum(axis=1) - comp
            s = acc + y
            comp = (s - acc) - y
            acc = s
            lo += block
            block *= 2
        self.incidents += int(unresolved)
        return k

    def _scan(self, m: np.ndarray, u: np.ndarray) -> np.ndarray:
        """_first_cycles on groups of rows.  No block is wider than the
        largest m, so groups of _BUFFER // max(m) rows keep the (rows,
        block) arrays within _BUFFER cells; a group has at least _SCAN_ROWS
        rows."""
        rows = max(_SCAN_ROWS, _BUFFER // int(m.max()))
        return np.concatenate([
            self._first_cycles(m[i:i + rows], u[i:i + rows])
            for i in range(0, len(m), rows)])

    def _propose(self, m: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One proposal for each row of size m, from the row's uniforms u
        (one row of self._width each): the accepted first cycle, or 0 where
        the proposal is rejected.  A row without an envelope, by the
        constants _init_envelope gives it, proposes k = 1 and rejects it."""
        c = self._rate[m]
        # k = 1 + geometric variables of ratio exp(-c) by inversion, each
        # truncated below m - 1: row j of g holds every row's j-th one, so
        # each operation runs along the rows.  Their floors are integers
        # below 2^53, so the sum is exact in any order
        g = np.empty((u.shape[1] - 1, len(m)))
        np.multiply(u[:, :-1].T, self._cut[m], out=g)
        np.log1p(g, out=g)
        g /= -c
        np.floor(g, out=g)
        k = g.sum(axis=0)
        k += 1.0
        ok = k < m
        k = np.where(ok, k, 1.0).astype(np.int64)
        log_a = self._accept_k[k]
        log_a += c * k
        log_a -= self._accept_m[m]
        log_a += self.log_h[m - k]
        np.exp(log_a, out=log_a)
        ok &= u[:, -1] < log_a
        return np.where(ok, k, 0)

    def _step(self, m: np.ndarray, pending: np.ndarray,
              u: np.ndarray) -> np.ndarray:
        """One lockstep step for rows of remaining sizes m >= 1, from each
        row's uniforms u[:, 0] (the scan or the k = m test) and u[:, 1:]
        (one proposal): their first cycles, or 0 for a row whose proposal
        was rejected.  Such a row is `pending` on its next step, which
        retries the proposal without the k = m test.

        Every row takes the k = m test and a proposal in one pass over the
        step's arrays; the rows without an envelope, whose k = m test always
        fails, are then overwritten by the scan."""
        env = self._envelope[m]
        if not env.any():
            return self._scan(m, u[:, 0])
        last = u[:, 0] < self._last[m]
        last &= ~pending
        k = np.where(last, m, self._propose(m, u[:, 1:]))
        scan = np.flatnonzero(~env)
        self.proposals += len(m) - scan.size - int(np.count_nonzero(last))
        if scan.size:
            k[scan] = self._scan(m[scan], u[scan, 0])
        return k

    def sample(self, n: int, rng: np.random.Generator) -> CycleType:
        """One draw: a lockstep chunk of one sample.

        It reads ahead up to min(n, 32) uniforms from rng and discards the
        unused ones.  A fresh stream gives the draw sample_batch makes from
        it; a reused rng gives draws from the same distribution, but not
        those of one stream read without gaps.
        """
        check_row(n, self.w, self.mant)
        return next(self._sample_lockstep(
            n, 1, lambda rows, start, width: rng.random((1, width))))

    def _sample_lockstep(self, n: int, count: int,
                         fill: Callable[[np.ndarray, int, int], np.ndarray]
                         ) -> Iterator[CycleType]:
        """`count` draws, the rows of one Columns, all advanced together:
        at step s every unfinished sample takes uniforms s * d ..
        s * d + d - 1 of its stream, d = 1 if no row of size <= n has an
        envelope and 1 + r + 1 otherwise; a row uses those its draw needs.
        fill(rows, start, width) returns uniforms start .. start + width - 1
        of the samples `rows`; it is called every min(n, 32) // d steps for
        the samples still running."""
        d = 1 + (self._width if self._envelope[:n + 1].any() else 0)
        steps = max(1, min(n, _LOOKAHEAD) // d)  # steps per refill
        live = np.arange(count, dtype=np.int32)
        # read-ahead: row i * steps + j holds sample i's uniforms for the
        # j-th step after a refill, so that a step gathers whole rows
        buf = np.ascontiguousarray(fill(live, 0, steps * d)).reshape(-1, d)
        m = np.full(count, n)
        pending = np.zeros(count, dtype=bool)
        drawn = []  # per step: sample * (n + 1) + first-cycle length
        step = 0
        while live.size:
            col = step % steps
            if step and not col:
                buf.reshape(count, -1)[live] = fill(live, step * d, steps * d)
            k = self._step(m, pending, np.take(buf, live * steps + col, axis=0))
            done = k > 0
            pending = ~done
            keys = live * (n + 1)
            keys += k
            drawn.append(keys[done])
            m = m - k
            alive = m > 0
            if not alive.all():
                live, m, pending = live[alive], m[alive], pending[alive]
            step += 1
        # the chunk's working arrays are freed before its output is built:
        # together they set the batch's peak memory
        del buf
        keys = np.concatenate(drawn)
        del drawn
        # C_m of each (sample, length), in sample then length order: the
        # lengths of the runs of equal keys
        keys.sort()
        first = np.empty(len(keys), dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        del first
        counts = np.empty(len(starts), dtype=np.int32)
        np.subtract(starts[1:], starts[:-1], out=counts[:-1])
        counts[-1] = len(keys) - starts[-1]
        keys = keys[starts]
        del starts
        bounds = np.searchsorted(
            keys, np.arange(count + 1, dtype=np.int32) * (n + 1))
        cols = Columns(bounds[:-1].astype(np.int32),
                       keys % (n + 1), counts, n)
        for a in (cols.starts, cols.m, cols.c):
            a.flags.writeable = False
        bounds = bounds.tolist()
        return map(CycleType, repeat(cols), bounds, islice(bounds, 1, None))


def sample_cycle_type(w: WeightSequence, h: HTable, n: int,
                      rng: np.random.Generator) -> CycleType:
    """One exact cycle-type draw, by the table's shared sampler."""
    return _shared_sampler(w, h).sample(n, rng)


def _shared_sampler(w: WeightSequence, h: HTable) -> CycleTypeSampler:
    cached = getattr(h, "_sampler", None)
    if cached is None or cached.w != w:
        cached = CycleTypeSampler(w, h)
        h._sampler = cached
    return cached


def sample_batch(w: WeightSequence, h: HTable,
                 cfg: SamplerConfig) -> Iterator[CycleType]:
    """Deterministic batch of samples, emitted in index order.

    Sample i is drawn from the substream keyed by (cfg.seed, i), so a
    shorter batch with the same seed is a prefix of a longer one.  Each
    chunk's uniforms are computed together by philox_uniforms.
    """
    cfg.validate(h)
    sampler = _shared_sampler(w, h)
    chunk = _chunk_size(cfg.n)
    for lo in range(0, cfg.num_samples, chunk):
        keys = substream_keys(cfg.seed,
                              np.arange(lo, min(lo + chunk, cfg.num_samples)))
        yield from sampler._sample_lockstep(
            cfg.n, len(keys),
            lambda rows, start, width: philox_uniforms(keys[rows], start, width))


def dump_samples(samples: Iterable[CycleType], f: TextIO) -> int:
    """Write one JSON object per line: {"i": idx, "cycles": [[m, C_m], ...]}."""
    count = 0
    for i, ct in enumerate(samples):
        f.write(json.dumps({"i": i, "cycles": [[m, c] for m, c in ct.counts]}))
        f.write("\n")
        count += 1
    return count
