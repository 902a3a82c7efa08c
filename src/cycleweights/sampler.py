"""Exact sampling of cycle types at large n.

The first cycle of a size-m permutation has length k with probability
theta_k * h_{m-k} / (m * h_m); removing it leaves an independent size-(m-k)
problem, so repeatedly drawing first-cycle lengths yields an exact sample
of the cycle type.  Lengths are drawn by an inverse-CDF scan in increasing
k with early stopping; scan lengths telescope with the removed cycle
lengths, so the expected total work per sample is O(n).

One vectorised kernel draws the first cycles of many rows at once: rows
with m above the cache limit are scanned together in doubling blocks, and
smaller rows search their cached cumulative rows.  A batch is drawn
in chunks of samples advanced in lockstep, one first cycle per sample per
step.  Sample i reads its uniforms, in order, from its own counter-based
random stream keyed by (seed, i), so its value depends only on the seed
and its index, not on the batch size, the chunking or any other sample.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .oracle import CapacityError, CycleType, HTable
from .weights import WeightSequence, theta_log_array

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# below this size, per-m cumulative rows are cached densely
_DEFAULT_CACHE_LIMIT = 1024
_SCAN_BLOCK = 64
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
        if self.n < 1 or self.n > h.n_max:
            raise CapacityError(
                f"n={self.n} outside table range 1..{h.n_max}")
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")


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

    def __init__(self, w: WeightSequence, h: HTable,
                 cache_limit: int = _DEFAULT_CACHE_LIMIT):
        if h.weight != w:
            raise ValueError("HTable was built for a different weight sequence")
        self.w = w
        # the table's size, not the table: HTable caches its shared sampler,
        # and a reference back would make the pair a cycle that outlives its
        # last user until the garbage collector runs
        self.n_max = n = h.n_max
        self.log_theta = theta_log_array(w, n)
        self.log_h = h.log_array()
        self.cache_limit = cache_limit
        # cumulative rows m = 1..min(cache_limit, n) packed back to back, row
        # m at offset m(m-1)/2; each is built on first use
        rows = max(min(cache_limit, n), 0)
        self._cum = np.empty(rows * (rows + 1) // 2)
        self._built = np.zeros(rows + 1, dtype=bool)
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
        """First-cycle lengths for remaining sizes m >= 1 and uniforms u."""
        scan = m > max(self.cache_limit, 1)
        if np.count_nonzero(scan) == len(m):
            return self._scan_blocks(m, u)
        k = np.ones_like(m)
        cached = ~scan & (m > 1)
        if cached.any():
            k[cached] = self._search_rows(m[cached], u[cached])
        if scan.any():
            k[scan] = self._scan_blocks(m[scan], u[scan])
        return k

    def _search_rows(self, m: np.ndarray, u: np.ndarray) -> np.ndarray:
        built = self._built[m]
        if not built.all():
            for r in np.unique(m[~built]).tolist():
                logp = (self.log_theta[1:r + 1] + self.log_h[r - 1::-1]
                        - math.log(r) - self.log_h[r])
                start = r * (r - 1) // 2
                np.cumsum(np.exp(logp), out=self._cum[start:start + r])
                self._built[r] = True
        # idx = number of row entries below u, the left insertion point:
        # count the entries below u at a stride, then inside the stride the
        # count ends in; a probe past the row's end reads its last entry
        before = m * (m - 1) // 2 - 1
        last = before + m
        stride = 1 + math.isqrt(int(m.max()) - 1)
        steps = np.arange(1, stride + 1)
        idx = np.zeros_like(m)
        for spacing in (stride, 1):
            probe = np.minimum(before[:, None] + idx[:, None] + spacing * steps,
                               last[:, None])
            idx += spacing * (self._cum[probe] < u[:, None]).sum(axis=1)
        idx = np.minimum(idx, m)
        self.scanned += int(idx.sum()) + len(m)
        # idx = m: round-off exhausted the row
        self.incidents += np.count_nonzero(idx == m)
        return np.minimum(idx + 1, m)

    def _scan_blocks(self, m: np.ndarray, u: np.ndarray) -> np.ndarray:
        # Rows are scanned side by side in doubling blocks, each with the
        # arithmetic of a scan of its own: (log theta + log h) + base, a
        # running sum plus the mass of earlier blocks, Kahan-summed.  A block
        # reaching past k = m reads -inf there, adding exact zeros.
        base = self._scan_base[m]
        fresh = np.isnan(base)
        if np.count_nonzero(fresh):
            mf = m[fresh]
            base[fresh] = (-np.array([math.log(x) for x in mf.tolist()])
                           - self.log_h[mf])
            self._scan_base[mf] = base[fresh]
        base = base[:, None]
        k = m.copy()  # a row whose CDF ends below u (round-off) takes k = m
        rows = np.arange(len(m))
        start = self.n_max - m  # window row
        resolved = 0
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
                resolved += hits
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
        self.incidents += len(k) - resolved
        return k

    def sample(self, n: int, rng: np.random.Generator) -> CycleType:
        """One draw, taking one rng.random() per cycle."""
        if n < 1 or n > self.n_max:
            raise CapacityError(f"n={n} outside table range 1..{self.n_max}")
        counts: Dict[int, int] = {}
        m = n
        while m > 0:
            k = int(self._first_cycles(np.array([m]),
                                       np.array([rng.random()]))[0])
            counts[k] = counts.get(k, 0) + 1
            m -= k
        return CycleType.from_dict(counts, n)

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
                      rng: np.random.Generator,
                      sampler: Optional[CycleTypeSampler] = None) -> CycleType:
    """One exact cycle-type draw; pass a CycleTypeSampler to reuse tables."""
    if sampler is None:
        sampler = _shared_sampler(w, h)
    return sampler.sample(n, rng)


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
