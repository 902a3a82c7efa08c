"""Exact sampling of cycle types at large n.

The first cycle of a size-m permutation has length k with probability
theta_k * h_{m-k} / (m * h_m); removing it leaves an independent size-(m-k)
problem, so repeatedly drawing first-cycle lengths yields an exact sample
of the cycle type.  Lengths are drawn by an inverse-CDF scan in increasing
k with early stopping; scan lengths telescope with the removed cycle
lengths, so the expected total work per sample is O(n).

Batches are drawn serially.  Sample i comes from its own counter-based
random stream keyed by (seed, i), so its value depends only on the seed
and its index, not on the batch size or on any other sample.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, TextIO

import numpy as np

from .oracle import CapacityError, CycleType, HTable
from .weights import WeightSequence, theta_log_array

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# below this size, per-m cumulative rows are cached densely
_DEFAULT_CACHE_LIMIT = 1024
_SCAN_BLOCK = 64


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
        self.h = h
        self.log_theta = theta_log_array(w, h.n_max)
        self.log_h = h.log_array()
        self.cache_limit = cache_limit
        self._cum_rows: Dict[int, np.ndarray] = {}
        # instrumentation: total scanned k across all draws, and round-off
        # scan exhaustions (CDF ended below u)
        self.scanned = 0
        self.incidents = 0

    def _cum_row(self, m: int) -> np.ndarray:
        row = self._cum_rows.get(m)
        if row is None:
            logp = (self.log_theta[1:m + 1] + self.log_h[m - 1::-1][:m]
                    - math.log(m) - self.log_h[m])
            row = np.cumsum(np.exp(logp))
            self._cum_rows[m] = row
        return row

    def _draw_first_cycle(self, m: int, u: float) -> int:
        if m == 1:
            return 1
        if m <= self.cache_limit:
            row = self._cum_row(m)
            idx = int(np.searchsorted(row, u, side="left"))
            self.scanned += idx + 1
            if idx >= m:  # round-off exhausted the scan
                self.incidents += 1
                return m
            return idx + 1
        base = -math.log(m) - self.log_h[m]
        acc = 0.0
        comp = 0.0
        lo = 1
        block = _SCAN_BLOCK
        while lo <= m:
            hi = min(lo + block - 1, m)
            logp = (self.log_theta[lo:hi + 1]
                    + self.log_h[m - lo:m - hi - 1 if m - hi - 1 >= 0 else None:-1]
                    + base)
            probs = np.exp(logp)
            cum = np.cumsum(probs) + acc
            self.scanned += hi - lo + 1
            if cum[-1] >= u:
                idx = int(np.searchsorted(cum, u, side="left"))
                return lo + idx
            # Kahan across blocks
            y = float(np.sum(probs)) - comp
            s = acc + y
            comp = (s - acc) - y
            acc = s
            lo = hi + 1
            block *= 2
        self.incidents += 1
        return m

    def sample(self, n: int, rng: np.random.Generator) -> CycleType:
        if n < 1 or n > self.h.n_max:
            raise CapacityError(f"n={n} outside table range 1..{self.h.n_max}")
        counts: Dict[int, int] = {}
        m = n
        while m > 0:
            k = self._draw_first_cycle(m, rng.random())
            counts[k] = counts.get(k, 0) + 1
            m -= k
        return CycleType.from_dict(counts, n)


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
    for i in range(cfg.num_samples):
        yield sampler.sample(cfg.n, substream_rng(cfg.seed, i))


def dump_samples(samples: Iterable[CycleType], f: TextIO) -> int:
    """Write one JSON object per line: {"i": idx, "cycles": [[m, C_m], ...]}."""
    count = 0
    for i, ct in enumerate(samples):
        f.write(json.dumps({"i": i, "cycles": [[m, c] for m, c in ct.counts]}))
        f.write("\n")
        count += 1
    return count
