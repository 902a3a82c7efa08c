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
by side in doubling blocks, each row reading log h_{m-k} from a window on
one reversed copy of log h padded with -inf, which is also the only log h
the sampler holds.  The first block of every row m <= 16 is the
same on every draw, so the sampler tabulates its CDF once, with the
scan's own arithmetic, a column per k, and a group of rows that are all
<= 16 counts the CDF values below each row's uniform a column at a time,
over every row of the group, m = 1 included (its column is 1, so it takes
k = 1): per k up to the group's largest m, one gather from the column and
one comparison.  Where no row of size <= n has an envelope, every row
draws a cycle at every step: a step reads one uniform per row and goes
straight to the scan, with no rejected rows to track.  Samples are drawn in
chunks advanced in lockstep, one first cycle (or one rejected proposal)
per sample per step; a single draw is a chunk of one.  A chunk at size n
holds max(8192, 2^16 // min(n, 32)) samples, so every n >= 8 takes
chunks of 8192, n = 6 one of 10922, and past n = 262 142 chunks shrink
to (2^31 - 1) // (n + 1) samples.  A refill reads each running sample's
uniforms for its next max(1, L // d) steps, where a step reads d
uniforms and L = min(n, 32, 4 ceil(d E / 4)) for E the expected number
of cycles at n, computed once per batch: whole Philox blocks that cover
the expected steps, so that a sample computes few uniforms it never
reads.  At alpha = 1 that is 32 uniforms, 8 steps, at n = 2 * 10^4, and
4 at n = 6, where 99.2% of samples end within 4 steps and the rest take
a second refill.  One budget of 2^16 cells bounds the work inside a
chunk: a refill of K keys computes its uniforms in ceil(K / cap) Philox
tiles of equal size, to one key, for cap = 2^16 // width (5000 keys at a
width of 32 run as 3 tiles of 1667 or 1666; at n = 6 all 10922 of a
chunk are one tile), and a scan group holds max(256, 2^16 // max m)
rows, and no block is wider than max m, so a group of rows of size
<= 16 takes up to 4096 of them, or more where all are smaller.  A chunk
writes each first cycle as the int32 key sample * (n + 1) + length,
which the cap above keeps below 2^31, into one buffer sized by the
expected number of cycles, and counts C_m from the runs of its sorted
keys, in int32 arrays only, into one Columns of read-only int32 arrays:
the keys at the run starts are one boolean gather, and the run lengths
the differences of the run starts' positions, written into the counts in
one blockwise pass.  Where samples
average fewer than _FEW_RUNS (8) runs, as at n = 6 (1.9), its row starts
cumulate each sample's run count, in O(runs), and m is the key less
sample * (n + 1); where they average more, as at n = 2 * 10^4 (113), the
row starts are binary-searched, in O(samples log runs), and m is the
key's remainder, taken in place a block of keys at a time.  Each of its
samples is handed out as a CycleType row handle on it, with no
per-sample array: the tuple (cols, start, end), built by tuple's own
constructor from one zip of the row bounds, with no Python frame per
sample.  Sample i reads
its uniforms, in order, from its own counter-based random stream keyed
by (seed, i), the same number at every step: one where no row of the
draw has an envelope (n <= 16, or tables), else one for the scan or the
k = m test followed by one proposal's (a uniform per geometric variable
and one for the acceptance test); a row uses those its draw needs.  Its
value therefore depends only on the seed and its index, not on the batch
size, the chunking, the read-ahead or any other sample.

A step where some row has an envelope makes one pass over its arrays:
every row takes the k = m test and a proposal, whose geometric variables
are the rows of one array so that each operation runs along the step's
rows, and the rows without an envelope, which fail both, then take the
scan's draw.
A chunk's read-ahead is uniform-major: uniform i of the j-th step after a
refill is row j * d + i, with a column per running sample, so a step reads
its d rows as a view until a sample finishes after the refill, and
gathers their columns after that; a refill's Philox tiles write whole rows
straight into the read-ahead's first columns, with no array of their own.

The streams are numpy's Philox4x64-10, bit for bit.  Philox maps (key,
counter) to random words, so a batch computes each refill's uniforms in
in-place numpy array operations, a tile of keys at a time with keys and
counters side by side, the first two rounds on the key and counter
vectors alone.  Round 2's per-key words are computed once per chunk: the
first fill, whose rows are the whole chunk, reads them as they are, and
a later refill gathers the running samples'.  substream_rng gives the
same stream as a Generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .oracle import CapacityError, Columns, CycleType, HTable, tail_count_mean
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
_CHUNK = 8192
# fewest rows scanned together
_SCAN_ROWS = 256
# most uniforms read ahead from each sample's stream per refill
_LOOKAHEAD = 32
# cells of a Philox tile (keys x uniforms), of a scan group's (rows, block)
# arrays where _SCAN_ROWS allows it, and of a small-n chunk's read-ahead
_BUFFER = 2**16
# largest n whose keys sample * (n + 1) + length fit int32 in a chunk of one
_MAX_N = 2**31 - 2
# runs per sample below which a chunk's row starts are counted, not searched
_FEW_RUNS = 8


def _chunk_size(n: int) -> int:
    """Samples per chunk at size n: _CHUNK, or more where a read-ahead of
    _BUFFER uniforms, at most min(n, _LOOKAHEAD) per sample, holds more
    (n < 8), and at most (2^31 - 1) // (n + 1), so that the keys
    sample * (n + 1) + length fit int32: chunks shrink past n = 262 142."""
    return min(max(_CHUNK, _BUFFER // min(n, _LOOKAHEAD)),
               (_MAX_N + 1) // (n + 1))


@dataclass
class SamplerConfig:
    """A batch's size n, sample count and seed.  An n past _MAX_N, whose
    keys do not fit int32, and a sample count below 1 are refused when the
    config is made, before any table is built for it; an n outside the
    table, or with h_n = 0, when sample_batch is called."""

    n: int
    num_samples: int
    seed: int

    def __post_init__(self):
        if self.n > _MAX_N:  # keys sample * (n + 1) + length overflow int32
            raise CapacityError(f"n={self.n} exceeds the sampler's limit {_MAX_N}")
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples}")


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


def philox_key_words(keys) -> np.ndarray:
    """Round 2's per-key words of each uint64 key k, one row per key:
    k + W0 (mod 2^64), and the high and low words of the 128-bit product
    M0 k.  philox_uniforms reads them in place of the keys, so a caller
    that refills the same keys computes them once."""
    keys = np.asarray(keys, dtype=np.uint64)
    hi, lo = _philox_mul(_M[0, 0, 0], keys.copy())
    # allocated after the product's work arrays are freed: the other
    # order grows and trims the heap, and took 2.5 times as long at
    # 10^4 keys
    words = np.empty((len(keys), 3), np.uint64)
    np.add(keys, _W[0, 0, 0], out=words[:, 0])
    words[:, 1] = hi
    words[:, 2] = lo
    return words


def philox_uniforms(keys, start: int, count: int,
                    out: np.ndarray = None) -> np.ndarray:
    """Uniforms start .. start + count - 1 of each key's stream, one row per
    key: the values np.random.Generator(np.random.Philox(key=k)).random()
    returns, computed for all keys at once.  keys are uint64 keys, or the
    (keys, 3) array philox_key_words gives for them.  The keys are split
    into ceil(keys / cap) tiles of equal size, to one key, with
    cap = _BUFFER // count, so that each tile's work arrays stay small and
    no tile is a small remainder.  Each tile writes its rows of out, a
    (keys, count) float64 array, if given; else one tile's uniforms are
    returned in the memory of its work arrays, and several tiles' in one
    new array, both uniform-major: the transpose of a C-contiguous
    (count, keys) array.  A start below 0 or a count below 1 is refused.

    Philox4x64-10 (Salmon et al., SC'11) turns a counter (c0, c1, c2, c3)
    into four 64-bit words by ten rounds under key (k0, k1), bumped by
    Weyl constants between rounds.  numpy bumps the counter before each
    block, so uniform j is word j % 4 of counter (j // 4 + 1, 0, 0, 0)
    under key (k, 0), taken as (x >> 11) * 2^-53.  A round maps the words
    to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)),
    so round 1 gives (k, 0, hi(M0 c), lo(M0 c)), and round 2 words that
    are a per-key word, a per-block word, or the XOR of one of each: those
    two rounds run on the key and block vectors, the per-key words once
    per call (or once per caller, by philox_key_words), and the other
    eight on (pair, block, key) arrays.
    """
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    words = np.asarray(keys, dtype=np.uint64)
    if words.ndim == 1:
        words = philox_key_words(words)
    first, skip = divmod(start, 4)
    blocks = -(-(skip + count) // 4)
    # round 1 on the block counters c, and round 2's block words: shared
    # by every tile
    c_hi, c_lo = _philox_mul(
        _M[0, 0, 0], np.arange(first + 1, first + blocks + 1, dtype=np.uint64))
    b_hi, b_lo = _philox_mul(_M[1, 0, 0], c_hi)
    c_lo ^= _W[1, 0, 0]
    cap = max(1, _BUFFER // count)
    if out is None and len(words) <= cap:
        # a single tile's uniforms take the memory of its work arrays: a
        # separate output array doubles the page faults of a 10^4-sample
        # round at n = 6
        return _philox_tile(words, b_hi, b_lo, c_lo)[:, skip:skip + count]
    if out is None:
        out = np.empty((count, len(words))).T
    # tile i holds keys ceil(i K / tiles) up to ceil((i + 1) K / tiles):
    # their sizes differ by at most one, the larger first
    tiles = max(1, -(-len(words) // cap))
    ends = [-(-i * len(words) // tiles) for i in range(tiles + 1)]
    for lo, hi in zip(ends, ends[1:]):
        _philox_tile(words[lo:hi], b_hi, b_lo, c_lo, out[lo:hi], skip)
    return out


def _philox_tile(words: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray,
                 c_lo: np.ndarray, out: np.ndarray = None,
                 skip: int = 0) -> np.ndarray:
    """Rounds 2-10 of philox_uniforms for the keys whose per-key words
    (philox_key_words) are the rows of words, from the block words b_hi,
    b_lo (round 2's product of round 1's high word) and c_lo ^ W1.
    Uniform 4 j + i is word i of block j; out, one row per key, holds
    uniforms skip .. skip + out.shape[1] - 1.  Without out, every block's
    uniforms are returned, shaped (key, 4 blocks), in the memory of the
    work arrays."""
    rows = len(words)
    # round 2 under key (k + W0, W1)
    key = np.empty((2, 1, rows), dtype=np.uint64)
    key[0, 0] = words[:, 0]
    key[1] = _W[1, 0, 0]
    # counter words (c0, c2) and (c1, c3)
    even = np.empty((2, len(b_hi), rows), dtype=np.uint64)
    np.bitwise_xor(b_hi[:, None], key[0], out=even[0])
    np.bitwise_xor(c_lo[:, None], words[:, 1], out=even[1])
    odd = np.empty_like(even)
    odd[0] = b_lo[:, None]
    odd[1] = words[:, 2]
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
    # each word written straight into its uniforms' rows of out.T: word i
    # of block j is uniform 4 j + i - skip
    even >>= np.uint64(11)
    odd >>= np.uint64(11)
    if out is None:
        out = work[:2].view(np.float64).reshape(4 * len(b_hi), rows).T
    for i, word in enumerate((even[0], odd[0], even[1], odd[1])):
        col = (i - skip) % 4
        j = (col + skip - i) // 4
        dst = out.T[col::4]
        np.multiply(word[j:j + len(dst)], 2.0 ** -53, out=dst)
    return out


def _split_keys(runs: np.ndarray, count: int, n: int) -> np.ndarray:
    """Where each of `count` samples' runs start in the sorted keys `runs`,
    sample * (n + 1) + length, and their end; the keys become the lengths,
    in place.  Where runs per sample are few, the starts cumulate each
    sample's run count, at a cost that follows the runs, and the lengths
    are the keys less sample * (n + 1), as numpy divides int32 by a
    scalar far faster than it takes a remainder.  Else the starts are
    searched for, at a cost that does not follow the runs, and the
    lengths are taken in place, _BUFFER // 4 keys at a time, with no
    array as long as the keys."""
    if runs.size < _FEW_RUNS * count:
        sample = runs // (n + 1)
        runs -= sample * (n + 1)
        return np.cumsum(np.bincount(sample + 1, minlength=count + 1))
    bounds = np.searchsorted(
        runs, np.arange(count + 1, dtype=np.int32) * (n + 1))
    for i in range(0, runs.size, _BUFFER // 4):
        block = runs[i:i + _BUFFER // 4]
        block -= (block // (n + 1)) * (n + 1)
    return bounds


class CycleTypeSampler:
    """Reusable sampler bound to one HTable and its weights, h.weight."""

    def __init__(self, h: HTable):
        # a table on the same arrays, not the table itself: HTable caches
        # its shared sampler, and a reference back would make the pair a
        # cycle that outlives its last user until the garbage collector runs
        self.h = replace(h)
        n = h.n_max
        self.log_theta = theta_log_array(h.weight, n)
        # the log h windows: row n - m, column k holds log h_{m-k}, read
        # from the reversed log h padded with -inf, so that k > m has
        # probability 0.  log h is held once, as its reversed view
        h_rev = np.concatenate((h.log_array()[::-1], np.full(n, -np.inf)))
        self._windows = sliding_window_view(h_rev, n + 1)
        self.log_h = h_rev[n::-1]
        # scan inputs: -log m - log h_m per m
        with np.errstate(divide="ignore"):
            self._scan_base = -np.log(np.arange(n + 1)) - self.log_h
        # the first scan block of each row m <= _SCAN_BLOCK, cumulated with
        # the scan's own arithmetic and stored by column: row j, column m
        # holds row m's CDF at k = j + 1, and its total from k = m on.
        # Column 0 and columns with h_m = 0 (NaN here) are never read
        small = np.arange(min(n, _SCAN_BLOCK) + 1)
        with np.errstate(invalid="ignore"):
            cdf = self._windows[n - small, 1:_SCAN_BLOCK + 1]
            cdf += self.log_theta[1:_SCAN_BLOCK + 1]
            cdf += self._scan_base[small][:, None]
            np.exp(cdf, out=cdf)
        self._small_cdf = np.ascontiguousarray(np.cumsum(cdf, axis=1).T)
        # row 1 takes k = 1: it counts no CDF value below u, and no incident
        self._small_cdf[:, 1:2] = 1.0
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
        n, w = self.h.n_max, self.h.weight
        alpha = {POLYNOMIAL: w.alpha, EWENS: 0.0}.get(w.family)
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

    def _first_cycles(self, m: np.ndarray, u: np.ndarray,
                      top: int = None) -> np.ndarray:
        """First-cycle lengths for remaining sizes m >= 1, at most top
        (m.max() if not given), and uniforms u.

        Where top <= _SCAN_BLOCK every row reads the tabulated CDFs.
        Otherwise rows with m > 1 are scanned side by side in doubling
        blocks, each with the arithmetic of a scan of its own: (log theta
        + log h) + base, a running sum plus the mass of earlier blocks,
        Kahan-summed.  A block reaching past k = m reads -inf there, adding
        exact zeros.
        """
        top = int(m.max()) if top is None else top
        if top <= _SCAN_BLOCK:
            # every row in one block, tabulated: k is one more than the CDF
            # values below u, counted a column at a time, or m where all of
            # them are (round-off).  Rows m = 1 take k = 1 and scan nothing.
            # int8 holds the counts (at most _SCAN_BLOCK) and adds fastest
            below = np.zeros(len(m), dtype=np.int8)
            for col in self._small_cdf[:top]:
                below += col[m] < u
            self.scanned += int(m.sum()) - int(np.count_nonzero(m == 1))
            self.incidents += int(np.count_nonzero(below == top))
            return np.minimum(below + 1, m)
        # m = 1 takes k = 1 unscanned; a row whose CDF ends below u
        # (round-off) takes k = m
        k = m.copy()
        rows = np.flatnonzero(m > 1)
        m, u = m[rows], u[rows]
        base = self._scan_base[m][:, None]
        start = self.h.n_max - m  # window row
        unresolved = len(m)
        acc = np.zeros(len(m))
        comp = np.zeros(len(m))
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
        top = int(m.max())
        rows = max(_SCAN_ROWS, _BUFFER // top)
        if len(m) <= rows:
            return self._first_cycles(m, u, top)
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
        fails, are then overwritten by the scan.  A step of one uniform
        per row, where no row of size <= n has an envelope, is the scan's."""
        if u.shape[1] == 1 or not (env := self._envelope[m]).any():
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

        It reads uniforms from rng one read-ahead at a time, as
        _sample_lockstep sizes it, and discards those the draw leaves
        unused.  A fresh stream gives the draw sample_batch makes from it.
        A reused rng gives draws from the same distribution, but they are
        not pinned: they are not those of one stream read without gaps,
        and they change whenever the read-ahead rule does.  tail_count_mean
        refuses an n outside the table or with h_n = 0.
        """
        return next(self._sample_lockstep(
            n, 1, lambda rows, start, width, out=None:
            rng.random((1, width), out=out), tail_count_mean(self.h, n, 1)))

    def _sample_lockstep(self, n: int, count: int,
                         fill: Callable[..., np.ndarray], cycles: float
                         ) -> Iterator[CycleType]:
        """`count` draws, the rows of one Columns, all advanced together:
        at step s every unfinished sample takes uniforms s * d ..
        s * d + d - 1 of its stream, d = 1 if no row of size <= n has an
        envelope and 1 + r + 1 otherwise; a row uses those its draw needs.
        fill(rows, start, width, out=None) gives uniforms start .. start +
        width - 1 of the samples `rows`, one row each, written into out if
        given; it is called every max(1, L // d) steps for the samples
        still running, L = min(n, 32, 4 ceil(d E / 4)) for E = cycles, the
        expected number of cycles at n, so that a refill computes whole
        Philox blocks and little past the steps a sample is expected to
        take.  The read-ahead is the first fill's uniforms, transposed to
        (steps * d, count); each refill writes the running samples' into
        its first columns, in place.  Which uniforms a sample reads does
        not depend on L.

        The chunk's first-cycle keys are sorted, and C_m of each (sample,
        length) is the length of a run of equal keys.  The keys at the run
        starts, which give m, are taken by one boolean gather before the
        keys are freed; the run starts' positions are written into the
        counts a block of keys at a time, and the run lengths are their
        differences, taken in place; the row starts and m come from
        _split_keys.  Every array as long as the chunk's pairs is int32."""
        d = 1 + (self._width if self._envelope[:n + 1].any() else 0)
        # steps per refill: a read-ahead of whole Philox blocks that covers
        # the expected steps, where that is below min(n, _LOOKAHEAD)
        look = min(n, _LOOKAHEAD, 4 * math.ceil(d * cycles / 4))
        steps = max(1, look // d)
        # sample * (n + 1) + first-cycle length, in step order: room for
        # the expected number of cycles, 5% and 64 more, and twice the
        # keys drawn so far if the chunk draws more.  Made before the
        # read-ahead: in that order the heap's high-water mark, and with
        # it a desk run's peak RSS, is ~2 MiB lower for the same arrays
        keys = np.empty(int(count * cycles * 1.05) + 64,
                        dtype=np.int32)
        live = np.arange(count, dtype=np.int32)
        # read-ahead, uniform-major: rows j * d .. j * d + d - 1 hold the
        # uniforms for the j-th step after the last refill, a column per
        # sample the refill filled; slot maps the running samples to their
        # columns, or is None while they are the first live.size
        buf = fill(live, 0, steps * d).T
        slot = None
        m = np.full(count, n)
        pending = np.zeros(count, dtype=bool)
        drawn = 0
        step = 0
        while live.size:
            col = step % steps
            if step and not col:
                slot = None
                fill(live, step * d, steps * d, buf[:, :live.size].T)
            # a gather is a temporary, freed before the next refill
            rows = buf[col * d:col * d + d]
            k = self._step(m, pending, (rows[:, :live.size] if slot is None
                                        else np.take(rows, slot, axis=1)).T)
            new = live * (n + 1)
            new += k
            if d > 1:  # at d = 1 every row draws a cycle: none is pending
                pending = k == 0
                new = new[~pending]
            if drawn + new.size > keys.size:
                keys = np.concatenate(
                    (keys[:drawn], np.empty(drawn + new.size, np.int32)))
            keys[drawn:drawn + new.size] = new
            drawn += new.size
            m -= k
            if not m.all():
                # a gather by index: a boolean mask reads slower, and
                # numpy finds a boolean array's nonzeros fastest
                keep = np.flatnonzero(m != 0)
                live, m = live[keep], m[keep]
                pending = pending[keep] if d > 1 else pending
                slot = keep if slot is None else slot[keep]
            step += 1
        # the chunk's working arrays are freed before its output is built:
        # together they set the batch's peak memory
        del buf, rows
        # C_m of each (sample, length), in sample then length order: the
        # lengths of the runs of equal keys.  Each array is freed as soon
        # as it is used
        keys = keys[:drawn]
        keys.sort()
        first = np.empty(drawn, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        runs = keys[first]
        del keys
        # the run starts' positions, _BUFFER // 4 keys at a time (int64
        # positions of 2^17 bytes), written into the int32 counts
        counts = np.empty(runs.size, dtype=np.int32)
        done = 0
        for i in range(0, drawn, _BUFFER // 4):
            at = np.flatnonzero(first[i:i + _BUFFER // 4])
            at += i
            counts[done:done + at.size] = at
            done += at.size
        del first
        # the run lengths: the differences of the run starts' positions
        np.subtract(counts[1:], counts[:-1], out=counts[:-1])
        counts[-1] = drawn - counts[-1]
        bounds = _split_keys(runs, count, n)
        cols = Columns(bounds[:-1].astype(np.int32), runs, counts, n)
        for a in (cols.starts, cols.m, cols.c):
            a.flags.writeable = False
        bounds = bounds.tolist()
        return map(CycleType,
                   zip(repeat(cols), bounds, islice(bounds, 1, None)))


def sample_cycle_type(w: WeightSequence, h: HTable, n: int,
                      rng: np.random.Generator) -> CycleType:
    """One exact cycle-type draw, by the table's shared sampler."""
    return _shared_sampler(w, h).sample(n, rng)


def _shared_sampler(w: WeightSequence, h: HTable) -> CycleTypeSampler:
    """h's sampler, built on first use; a table built for other weights
    than w is refused."""
    if h.weight != w:
        raise ValueError("HTable was built for a different weight sequence")
    if getattr(h, "_sampler", None) is None:
        h._sampler = CycleTypeSampler(h)
    return h._sampler


def sample_batch(w: WeightSequence, h: HTable,
                 cfg: SamplerConfig) -> Iterator[CycleType]:
    """Deterministic batch of samples, emitted in index order.

    Sample i is drawn from the substream keyed by (cfg.seed, i), so a
    shorter batch with the same seed is a prefix of a longer one.  Each
    chunk's uniforms are computed together by philox_uniforms, from
    round 2's per-key words, computed once per chunk.  The expected
    number of cycles, which sizes every chunk's read-ahead and key buffer,
    is computed once per batch, when the batch is made; the chunks are
    drawn one at a time as the samples are read, and handed out through
    one chained iterator, with no generator frame to resume per sample.
    """
    # tail_count_mean refuses an n outside the table, or with h_n = 0,
    # before a sampler is built or _chunk_size divides by n
    cycles = tail_count_mean(h, cfg.n, 1)
    sampler = _shared_sampler(w, h)
    chunk = _chunk_size(cfg.n)

    def draw(lo: int) -> Iterator[CycleType]:
        # round 2's per-key words, once per chunk.  The running samples are
        # an ascending subset of the chunk, so a fill of as many rows as
        # words, as the first always is, reads the words as they are, with
        # no gather; a later one gathers the running samples'
        words = philox_key_words(substream_keys(
            cfg.seed, np.arange(lo, min(lo + chunk, cfg.num_samples))))

        def fill(rows, start, width, out=None):
            return philox_uniforms(
                words if len(rows) == len(words)
                else np.take(words, rows, axis=0), start, width, out)

        return sampler._sample_lockstep(cfg.n, len(words), fill, cycles)

    return chain.from_iterable(map(draw, range(0, cfg.num_samples, chunk)))


def dump_samples(samples: Iterable[CycleType], f: TextIO) -> int:
    """Write one JSON object per line: {"i": idx, "cycles": [[m, C_m], ...]}."""
    count = 0
    for i, ct in enumerate(samples):
        f.write(json.dumps({"i": i, "cycles": [[m, c] for m, c in ct.counts]}))
        f.write("\n")
        count += 1
    return count
