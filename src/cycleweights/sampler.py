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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .oracle import CapacityError, CycleType, HTable
from .weights import WeightSequence, theta_log_array

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

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


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream_key(seed: int, index: int) -> int:
    """64-bit key for sample `index`: mix of seed and golden-ratio multiple."""
    return _splitmix64((seed ^ ((index * _GOLDEN) & _MASK64)) & _MASK64)


def substream_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=substream_key(seed, index)))


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
        return self._sample_lockstep(n, [rng])[0]

    def _sample_lockstep(self, n: int,
                         rngs: List[np.random.Generator]) -> List[CycleType]:
        """One draw per generator, all advanced together: at step s every
        unfinished sample takes its s-th uniform, read ahead in blocks."""
        ahead = min(n, _LOOKAHEAD)
        u = np.empty((len(rngs), ahead))
        for i, rng in enumerate(rngs):
            rng.random(out=u[i])
        live = np.arange(len(rngs))
        m = np.full(len(rngs), n)
        drawn = []  # per step: sample * (n + 1) + first-cycle length
        step = 0
        while live.size:
            col = step % ahead
            if step and not col:
                for i in live.tolist():
                    rngs[i].random(out=u[i])
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
        ends = np.searchsorted(keys, np.arange(1, len(rngs) + 1) * (n + 1))
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
    shorter batch with the same seed is a prefix of a longer one.
    """
    cfg.validate(h)
    sampler = _shared_sampler(w, h)
    for lo in range(0, cfg.num_samples, _CHUNK):
        hi = min(lo + _CHUNK, cfg.num_samples)
        yield from sampler._sample_lockstep(
            cfg.n, [substream_rng(cfg.seed, i) for i in range(lo, hi)])


def dump_samples(samples: Iterable[CycleType], f: TextIO) -> int:
    """Write one JSON object per line: {"i": idx, "cycles": [[m, C_m], ...]}."""
    count = 0
    for i, ct in enumerate(samples):
        f.write(json.dumps({"i": i, "cycles": [[m, c] for m, c in ct.counts]}))
        f.write("\n")
        count += 1
    return count
