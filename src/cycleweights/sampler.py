"""Exact sampling of cycle types at large n.

The first cycle of a size-m permutation has length k with probability
theta_k * h_{m-k} / (m * h_m); removing it leaves an independent size-(m-k)
problem, so repeatedly drawing first-cycle lengths yields an exact sample
of the cycle type.  Lengths are drawn by an inverse-CDF scan in increasing
k with early stopping; scan lengths telescope with the removed cycle
lengths, so the expected total work per sample is O(n).

One vectorised kernel draws the first cycles of many rows at once,
scanning them side by side in doubling blocks.  Samples are drawn in
chunks advanced in lockstep, one first cycle per sample per step; a single
draw is a chunk of one.  Sample i reads its uniforms, in order, from its
own counter-based random stream keyed by (seed, i), so its value depends
only on the seed and its index, not on the batch size, the chunking or
any other sample.

The streams are numpy's Philox4x64-10, bit for bit.  Philox maps (key,
counter) to random words, so a batch computes its chunk's uniforms in one
set of numpy array operations, keys and counters side by side;
substream_rng gives the same stream as a Generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .oracle import CapacityError, CycleType, HTable
from .weights import WeightSequence, theta_log_array

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Philox4x64 round multipliers M and key bumps W (Weyl constants), one per
# word pair, shaped to broadcast over (pair, row, block); M in 32-bit halves
_M = np.array([[[0xD2E7470EE14C6C93]], [[0xCA5A826395121157]]], np.uint64)
_W = np.array([[[0x9E3779B97F4A7C15]], [[0xBB67AE8584CAA73B]]], np.uint64)
_LO32, _SH32 = np.uint64((1 << 32) - 1), np.uint64(32)
_M_LO, _M_HI = _M & _LO32, _M >> _SH32

# first scan block; later blocks double
_SCAN_BLOCK = 16
# samples advanced in lockstep; bounds the scan's (rows, block) arrays
_CHUNK = 256
# uniforms read ahead from each sample's stream per refill
_LOOKAHEAD = 128


@dataclass
class SamplerConfig:
    n: int
    num_samples: int
    seed: int

    def validate(self, h: HTable) -> None:
        _check_n(self.n, h.weight, h.log_array())
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")


def _check_n(n: int, w: WeightSequence, log_h: np.ndarray) -> None:
    """Reject n outside the table, or with h_n = 0: no cycle type of size n
    has positive weight then, so there is nothing to sample."""
    if n < 1 or n >= len(log_h):
        raise CapacityError(f"n={n} outside table range 1..{len(log_h) - 1}")
    if log_h[n] == -np.inf:
        raise ValueError(f"h_{n} = 0 for {w!r}: no permutation of size {n} "
                         f"has positive weight")


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


def substream_key(seed: int, index: int) -> int:
    """64-bit key of sample `index`."""
    return int(substream_keys(seed, [index])[0])


def substream_rng(seed: int, index: int) -> np.random.Generator:
    """Sample `index`'s stream as a Generator, whose random() gives the
    uniforms philox_uniforms computes for its key."""
    return np.random.Generator(np.random.Philox(key=substream_key(seed, index)))


def _philox_mul(c: np.ndarray):
    """(high, low) 64-bit words of the 128-bit products of the round
    multipliers and counter words c, the high word from four
    32 x 32 -> 64-bit products."""
    c_lo, c_hi = c & _LO32, c >> _SH32
    t = _M_LO * c_lo
    t >>= _SH32
    t += _M_HI * c_lo  # below 2^64, as is v
    v = _M_LO * c_hi
    v += t & _LO32
    hi = _M_HI * c_hi
    t >>= _SH32
    hi += t
    v >>= _SH32
    hi += v
    return hi, _M * c


def philox_uniforms(keys: np.ndarray, start: int, count: int) -> np.ndarray:
    """Uniforms start .. start + count - 1 of each key's stream, one row per
    key: the values np.random.Generator(np.random.Philox(key=k)).random()
    returns, computed for all keys at once.

    Philox4x64-10 (Salmon et al., SC'11) turns a counter (c0, c1, c2, c3)
    into four 64-bit words by ten rounds under key (k0, k1), bumped by
    Weyl constants between rounds.  numpy bumps the counter before each
    block, so uniform j is word j % 4 of counter (j // 4 + 1, 0, 0, 0)
    under key (k, 0), taken as (x >> 11) * 2^-53.
    """
    first, skip = divmod(start, 4)
    blocks = -(-(skip + count) // 4)
    rows = len(keys)
    # counter words (c0, c2) and (c1, c3), and key words (k0, k1)
    even = np.zeros((2, rows, blocks), dtype=np.uint64)
    even[0] = np.arange(first + 1, first + blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    key = np.zeros((2, rows, 1), dtype=np.uint64)
    key[0, :, 0] = keys
    for r in range(10):
        if r:
            key += _W
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0) for
        # (hi0, lo0) = M0 * c0 and (hi1, lo1) = M1 * c2
        hi, lo = _philox_mul(even)
        hi ^= odd[::-1]
        hi ^= key[::-1]
        even, odd = hi[::-1], lo[::-1]
    words = np.stack((even[0], odd[0], even[1], odd[1]), axis=2)
    words = words.reshape(rows, -1)[:, skip:skip + count]
    return (words >> np.uint64(11)) * 2.0 ** -53


class CycleTypeSampler:
    """Reusable sampler bound to one weight sequence and HTable."""

    def __init__(self, w: WeightSequence, h: HTable):
        if h.weight != w:
            raise ValueError("HTable was built for a different weight sequence")
        self.w = w
        # the table's size, not the table: HTable caches its shared sampler,
        # and a reference back would make the pair a cycle that outlives its
        # last user until the garbage collector runs
        self.n_max = n = h.n_max
        self.log_theta = theta_log_array(w, n)
        self.log_h = h.log_array()
        # scan inputs: -log m - log h_m per m (NaN until first use), and the
        # log h windows: row n - m, column k holds log h_{m-k}, read from the
        # reversed log h padded with -inf, so that k > m has probability 0
        self._scan_base = np.full(n + 1, np.nan)
        h_rev = np.concatenate((self.log_h[::-1], np.full(n, -np.inf)))
        self._windows = sliding_window_view(h_rev, n + 1)
        # instrumentation: total scanned k across all draws, and round-off
        # scan exhaustions (CDF ended below u)
        self.scanned = 0
        self.incidents = 0

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
        base = self._scan_base[m]
        fresh = np.isnan(base)
        if np.count_nonzero(fresh):
            mf = m[fresh]
            base[fresh] = (-np.array([math.log(x) for x in mf.tolist()])
                           - self.log_h[mf])
            self._scan_base[mf] = base[fresh]
        base = base[:, None]
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

    def sample(self, n: int, rng: np.random.Generator) -> CycleType:
        """One draw: a lockstep chunk of one sample.

        It reads ahead up to min(n, 128) uniforms from rng and discards the
        unused ones.  A fresh stream gives the draw sample_batch makes from
        it; a reused rng gives draws from the same distribution, but not
        those of one rng.random() per cycle.
        """
        _check_n(n, self.w, self.log_h)
        return self._sample_lockstep(
            n, 1, lambda rows, start, width: rng.random((1, width)))[0]

    def _sample_lockstep(self, n: int, count: int,
                         fill: Callable[[np.ndarray, int, int], np.ndarray]
                         ) -> List[CycleType]:
        """`count` draws, all advanced together: at step s every unfinished
        sample takes its s-th uniform.  fill(rows, start, width) returns
        uniforms start .. start + width - 1 of the samples `rows`; it is
        called at steps 0, 128, 256, ... for the samples still running."""
        ahead = min(n, _LOOKAHEAD)
        live = np.arange(count)
        u = fill(live, 0, ahead)
        m = np.full(count, n)
        drawn = []  # per step: sample * (n + 1) + first-cycle length
        step = 0
        while live.size:
            col = step % ahead
            if step and not col:
                u[live] = fill(live, step, ahead)
            k = self._first_cycles(m, u[live, col])
            drawn.append(live * (n + 1) + k)
            m = m - k
            alive = m > 0
            live, m = live[alive], m[alive]
            step += 1
        # the chunk's working arrays are freed before its output is built:
        # together they set the batch's peak memory
        del u
        # (sample, length) -> C_m, in sample then length order
        keys, counts = np.unique(np.concatenate(drawn), return_counts=True)
        del drawn
        ends = np.searchsorted(keys, np.arange(1, count + 1) * (n + 1))
        length = (keys % (n + 1)).tolist()
        del keys
        counts = counts.tolist()
        out, a = [], 0
        for b in ends.tolist():
            out.append(CycleType(tuple(zip(length[a:b], counts[a:b])), n))
            a = b
        return out


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
    for lo in range(0, cfg.num_samples, _CHUNK):
        keys = substream_keys(cfg.seed,
                              np.arange(lo, min(lo + _CHUNK, cfg.num_samples)))
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
