import collections
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import cycleweights as cw
from cycleweights import sampler as smp
from cycleweights.oracle import CapacityError

from conftest import joined, tail_count

# false-alarm rate of each statistical bound below
DELTA = 1e-6


def dkw_bound(num):
    """e with P(sup |F_N - F| > e) <= DELTA (Dvoretzky-Kiefer-Wolfowitz)."""
    return math.sqrt(math.log(2 / DELTA) / (2 * num))


def ks_to_exact(values, cdf):
    """sup_x |F_N(x) - F(x)| of integer draws against cdf[x] on 0..len-1."""
    emp = np.cumsum(np.bincount(values, minlength=len(cdf))) / len(values)
    return float(np.max(np.abs(emp - cdf)))


@pytest.fixture(scope="module")
def small_table():
    return cw.build_h_table(cw.polynomial(1.0), 64)


def empirical_tv(w, tab, n, num_samples, seed):
    cfg = cw.SamplerConfig(n=n, num_samples=num_samples, seed=seed)
    counts = collections.Counter()
    for ct in cw.sample_batch(w, tab, cfg):
        counts[ct.counts] += 1
    exact = {ct.counts: p for ct, p in cw.enumerate_cycle_types(w, n)}
    return 0.5 * sum(abs(counts.get(k, 0) / num_samples - p)
                     for k, p in exact.items())


def test_forced_single_cycle(small_table):
    rng = smp.substream_rng(0, 0)
    ct = cw.sample_cycle_type(cw.polynomial(1.0), small_table, 1, rng)
    assert ct.counts == ((1, 1),)


def test_first_cycle_probability_n2(small_table):
    # P(single 2-cycle) = theta_2 h_0 / (2 h_2) = 2/3
    w = cw.polynomial(1.0)
    batch = cw.sample_batch(w, small_table, cw.SamplerConfig(2, 20000, 11))
    hits = sum(int(ct.m[-1]) == 2 for ct in batch)
    assert hits / 20000 == pytest.approx(2 / 3, abs=0.015)


def test_structural_invariant(small_table):
    w = cw.polynomial(1.0)
    for i in range(200):
        ct = cw.sample_cycle_type(w, small_table, 37, smp.substream_rng(5, i))
        assert sum(m * c for m, c in ct.counts) == 37


@pytest.mark.parametrize("alpha,n", [(0.5, 4), (1.0, 6), (2.0, 5)])
def test_exactness_small_n(alpha, n):
    w = cw.polynomial(alpha)
    tab = cw.build_h_table(w, n)
    tv = empirical_tv(w, tab, n, 60000, seed=1234)
    # MC noise at this scale is well under 0.02
    assert tv < 0.02


@pytest.mark.parametrize("values,n", [([1, 0, 0, 1], 8), ([0, 1], 8)])
def test_exactness_irregular_weights(values, n):
    # zero weights put -inf into log theta (and, for [0, 1], into log h_1)
    w = cw.table(values)
    tab = cw.build_h_table(w, n)
    assert empirical_tv(w, tab, n, 60000, seed=1234) < 0.02
    # one lockstep pass over 5000 rows draws what the batch's chunks draw
    scan = smp.CycleTypeSampler(tab)
    num = 5000
    rngs = [smp.substream_rng(1234, i) for i in range(num)]
    drawn = scan._sample_lockstep(
        n, num, lambda rows, start, width, out=None: np.stack(
            [rngs[i].random(width) for i in rows.tolist()], out=out),
        cw.tail_count_mean(tab, n, 1))
    batch = cw.sample_batch(w, tab, cw.SamplerConfig(n=n, num_samples=num,
                                                     seed=1234))
    assert [ct.counts for ct in drawn] == [ct.counts for ct in batch]
    assert scan.incidents == 0


def reference_first_cycle(s, m, u):
    """The one-row draw the kernel replaced: (k, scanned, CDF values seen)."""
    if m == 1:
        return 1, 0, []
    base = -math.log(m) - s.log_h[m]
    acc = comp = 0.0
    lo, block, scanned, seen = 1, smp._SCAN_BLOCK, 0, []
    while lo <= m:
        hi = min(lo + block - 1, m)
        probs = np.exp(s.log_theta[lo:hi + 1]
                       + s.log_h[m - lo:m - hi - 1 if m > hi else None:-1]
                       + base)
        cum = np.cumsum(probs) + acc
        scanned += hi - lo + 1
        seen += list(cum)
        if cum[-1] >= u:
            return lo + int(np.searchsorted(cum, u, side="left")), scanned, seen
        y = float(np.sum(probs)) - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        lo, block = hi + 1, block * 2
    return m, scanned, seen


def check_against_reference(s, groups):
    """Draw each (ms, us) group in one kernel call, and compare k, scanned
    and incidents with the one-row reference.  An incident is a row m > 1
    whose CDF ends below u."""
    expected = [[reference_first_cycle(s, m, u) for m, u in zip(ms, us)]
                for ms, us in groups]
    k = [s._first_cycles(np.array(ms), np.array(us)) for ms, us in groups]
    assert np.concatenate(k).tolist() == [e[0] for g in expected for e in g]
    assert s.scanned == sum(e[1] for g in expected for e in g)
    assert s.incidents == sum(m > 1 and e[2][-1] < u
                              for (ms, us), g in zip(groups, expected)
                              for m, u, e in zip(ms, us, g))


@pytest.mark.parametrize("n", [6, 16])
@pytest.mark.parametrize("w", [cw.polynomial(1.0), cw.ewens(0.5),
                               cw.table([1, 0, 0, 1]), cw.table([0, 1])],
                         ids=["poly1", "ewens0.5", "table1001", "table01"])
def test_tabulated_draw_matches_row_gather(w, n):
    # the column-by-column count of the tabulated draw against the row
    # gather and boolean sum it replaced, bit for bit, with the scanned and
    # incidents counts: uniforms on every CDF entry of every row m <= 16,
    # on both of its neighbours, and at 0 and 1 - 2^-53, in groups of
    # every largest row.  table([0, 1]) has h_1 = 0, a NaN row never read
    s = smp.CycleTypeSampler(cw.build_h_table(w, n))
    cdf = s._small_cdf.T  # row m, column j: row m's CDF at k = j + 1
    assert cdf.shape == (n + 1, n)
    sizes = np.flatnonzero(s.h.mant[1:]) + 1  # rows with h_m > 0
    vals = cdf[sizes[sizes > 1]].ravel()
    u = np.concatenate((vals, np.nextafter(vals, 0.0), np.nextafter(vals, 2.0),
                        [0.0, 1.0 - 2.0**-53]))
    u = np.unique(u[u < 1.0])  # uniforms lie in [0, 1)
    for top in sizes:
        m = np.repeat(sizes[sizes <= top], u.size)
        uu = np.tile(u, m.size // u.size)
        scanned, before = s.scanned, s.incidents
        k = s._first_cycles(m, uu)
        big = m > 1
        below = (cdf[m[big], :top] < uu[big][:, None]).sum(axis=1)
        want = m.copy()
        want[big] = np.minimum(below + 1, m[big])
        assert k.dtype == want.dtype and np.array_equal(k, want), top
        assert s.scanned - scanned == int(m[big].sum())
        assert s.incidents - before == np.count_nonzero(below == top)
        # every length of positive probability is drawn
        p = np.diff(cdf[top, :top], prepend=0.0) if top > 1 else [1.0]
        drawn = set(k[m == top].tolist())
        assert drawn >= set((np.flatnonzero(p) + 1).tolist())


def test_kernel_matches_one_row_reference(htable_2000, poly1):
    # uniforms on and just above every reference CDF value: the kernel must
    # reproduce the reference's arithmetic to the last bit to match
    s = smp.CycleTypeSampler(htable_2000)
    rng = np.random.default_rng(5)
    ms, us = [], []
    for m in (1, 2, 3, 40, 1024, 1025, 1500, 2000):
        for c in reference_first_cycle(s, m, 2.0)[2]:
            ms += [m, m]
            us += [c, np.nextafter(c, 1.0)]
        ms += [m] * 20
        us += list(rng.random(20))
    check_against_reference(s, [(ms[i:i + 256], us[i:i + 256])
                                for i in range(0, len(ms), 256)])
    # a group of rows m <= 16 reads the tabulated CDFs: each m in a group
    # of its own, then all in one, where just above a row's total takes
    # k = m as an incident.  table([0, 1]) has h_m = 0 at every odd m; its
    # table must be built without a warning
    w = cw.table([0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, sizes in [
                (smp.CycleTypeSampler(htable_2000), range(2, 17)),
                (smp.CycleTypeSampler(cw.build_h_table(w, 40)),
                 range(2, 17, 2))]:
            groups = []
            for m in sizes:
                cdf = reference_first_cycle(s, m, 2.0)[2]
                us = (cdf + [np.nextafter(c, np.inf) for c in cdf]
                      + list(rng.random(20)))
                groups.append(([m] * len(us), us))
            groups.append(tuple(sum(g, []) for g in zip(*groups)))
            check_against_reference(s, groups)
            assert s.incidents >= 2 * len(sizes)


@pytest.mark.parametrize("n", [2, 6, 12, 16, 40])
def test_output_depends_only_on_seed_and_index(small_table, n):
    # sample i equals a fresh sampler's draw from substream (seed, i), and a
    # shorter batch is a prefix of a longer one.  Below n = 40 the
    # read-ahead can end before a sample does
    w = cw.polynomial(1.0)
    fresh = smp.CycleTypeSampler(small_table)
    full = [ct.counts for ct in cw.sample_batch(
        w, small_table, cw.SamplerConfig(n=n, num_samples=64, seed=99))]
    assert full == [fresh.sample(n, smp.substream_rng(99, i)).counts
                    for i in range(64)]
    short = [ct.counts for ct in cw.sample_batch(
        w, small_table, cw.SamplerConfig(n=n, num_samples=16, seed=99))]
    assert short == full[:16]


def test_seed_changes_output(small_table):
    w = cw.polynomial(1.0)
    def run(seed):
        cfg = cw.SamplerConfig(n=40, num_samples=32, seed=seed)
        return [ct.counts for ct in cw.sample_batch(w, small_table, cfg)]
    assert run(1) != run(2)


def test_config_validation():
    # a sample count below 1 is refused when the config is made; an n
    # outside the table, or with h_n = 0, when sample_batch is called,
    # before it builds a sampler (n = 0 would divide by zero in
    # _chunk_size).  table([0, 1, 0]) allows 2-cycles only, so h_9 = 0
    with pytest.raises(ValueError):
        cw.SamplerConfig(n=40, num_samples=0, seed=0)
    poly = cw.build_h_table(cw.polynomial(1.0), 64)
    zero = cw.build_h_table(cw.table([0, 1, 0]), 9)
    for tab, n, error in [(poly, 100, CapacityError),
                          (poly, 65, CapacityError),
                          (poly, 0, CapacityError), (zero, 9, ValueError)]:
        with pytest.raises(error):
            cw.sample_batch(tab.weight, tab,
                            cw.SamplerConfig(n=n, num_samples=1, seed=0))
        assert not hasattr(tab, "_sampler")


def test_sampler_refuses_another_weights_table():
    # both before and after the table's shared sampler is cached
    tab = cw.build_h_table(cw.polynomial(1.0), 40)
    w = cw.polynomial(2.0)
    cfg = cw.SamplerConfig(n=40, num_samples=4, seed=0)
    for cached in (False, True):
        assert hasattr(tab, "_sampler") == cached
        with pytest.raises(ValueError, match="different weight"):
            cw.sample_batch(w, tab, cfg)
        with pytest.raises(ValueError, match="different weight"):
            cw.sample_cycle_type(w, tab, 40, smp.substream_rng(0, 0))
        list(cw.sample_batch(tab.weight, tab, cfg))


def test_zero_row_is_rejected():
    # table([0, 1, 0]) allows 2-cycles only, so h_9 = 0: no permutation of
    # size 9 has positive weight, and both entry points refuse to sample
    w = cw.table([0, 1, 0])
    tab = cw.build_h_table(w, 9)
    with pytest.raises(ValueError, match=r"h_9 = 0 for .*'table'"):
        list(cw.sample_batch(w, tab, cw.SamplerConfig(n=9, num_samples=5,
                                                      seed=0)))
    with pytest.raises(ValueError, match=r"h_9 = 0 for .*'table'"):
        cw.sample_cycle_type(w, tab, 9, smp.substream_rng(0, 0))
    assert cw.sample_cycle_type(w, tab, 8,
                                smp.substream_rng(0, 0)).counts == ((2, 4),)


def test_capacity_error(small_table):
    rng = smp.substream_rng(0, 0)
    with pytest.raises(CapacityError):
        cw.sample_cycle_type(cw.polynomial(1.0), small_table, 65, rng)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_expected_scan_work(alpha):
    # average total scanned k per sample stays below 2n
    w = cw.polynomial(alpha)
    num = 200
    n = 2000
    s = smp.CycleTypeSampler(cw.build_h_table(w, n))
    for i in range(num):
        s.sample(n, smp.substream_rng(17, i))
    assert s.scanned / num <= 2 * n
    assert s.incidents == 0


ENVELOPE_WEIGHTS = [cw.polynomial(0.5), cw.polynomial(1.0), cw.polynomial(3.0),
                    cw.ewens(2.0)]
ENVELOPE_IDS = ["poly0.5", "poly1", "poly3", "ewens2"]


@pytest.mark.parametrize("w", ENVELOPE_WEIGHTS, ids=ENVELOPE_IDS)
def test_envelope_bounds_h_ratios(w):
    # h_{m-k} / h_m <= Q_m^k for every k < m <= 2000, Q_m the largest
    # h_{j-1} / h_j over 2 <= j <= m; every row m > 16 has an envelope
    n = 2000
    s = smp.CycleTypeSampler(cw.build_h_table(w, n))
    log_h = s.log_h
    log_q = np.full(n + 1, -np.inf)
    log_q[2:] = log_h[1:-1] - log_h[2:]
    log_big_q = np.maximum.accumulate(log_q)
    for m in range(2, n + 1):
        k = np.arange(1, m)
        assert np.all(log_h[m - k] - log_h[m] <= k * log_big_q[m]), m
    assert np.all(log_big_q[2:] < 0)
    assert s._envelope.tolist() == [m > smp._SCAN_BLOCK for m in range(n + 1)]


@pytest.mark.parametrize("w", [cw.polynomial(10.0), cw.ewens(0.5), cw.ewens(1.0),
                               cw.table([1, 0, 0, 1])],
                         ids=["poly10", "ewens0.5", "ewens1", "table1001"])
def test_rows_without_envelope_are_scanned(w):
    # Q_m >= 1 (Ewens with vartheta <= 1), a table, or first cycles so
    # short at alpha = 10 that the envelope would lose a large factor: the
    # scan draws every row
    s = smp.CycleTypeSampler(cw.build_h_table(w, 2000))
    assert not s._envelope.any()
    for i in range(20):
        ct = s.sample(2000, smp.substream_rng(3, i))
        assert sum(m * c for m, c in ct.counts) == 2000
    assert s.proposals == 0 and s.scanned > 0


def kernel_first_cycles(s, m, num, seed):
    """`num` first cycles of size-m rows through the lockstep step kernel,
    rejected rows retrying on the next step as in a batch."""
    rng = np.random.default_rng(seed)
    k = np.zeros(num, dtype=np.int64)
    pending = np.zeros(num, dtype=bool)
    todo = np.arange(num)
    while todo.size:
        got = s._step(np.full(todo.size, m), pending[todo],
                      rng.random((todo.size, 1 + s._width)))
        k[todo] = got
        pending[todo] = got == 0
        todo = todo[got == 0]
    return k


def exact_first_cycle_cdf(s, m):
    """P(first cycle <= k) = sum_{j <= k} theta_j h_{m-j} / (m h_m), k = 0..m."""
    j = np.arange(1, m + 1)
    pmf = np.exp(s.log_theta[1:m + 1] + s.log_h[m - j] - math.log(m)
                 - s.log_h[m])
    return np.concatenate(([0.0], np.cumsum(pmf)))


@pytest.mark.parametrize("m", [17, 100, 2000])
@pytest.mark.parametrize("w", ENVELOPE_WEIGHTS, ids=ENVELOPE_IDS)
def test_first_cycle_law_by_rejection(w, m):
    s = smp.CycleTypeSampler(cw.build_h_table(w, 2000))
    num = 200000
    k = kernel_first_cycles(s, m, num, seed=m)
    assert ks_to_exact(k, exact_first_cycle_cdf(s, m)) <= dkw_bound(num)


def test_first_cycle_law_by_rejection_desk(poly1, htable_desk):
    s = smp.CycleTypeSampler(htable_desk)
    n, num = htable_desk.n_max, 200000
    k = kernel_first_cycles(s, n, num, seed=4)
    assert ks_to_exact(k, exact_first_cycle_cdf(s, n)) <= dkw_bound(num)


def test_longest_cycle_across_scan_boundary():
    # at n = 24 the first draws are by rejection and the last by the scan
    w = cw.polynomial(1.0)
    n, num = 24, 200000
    tab = cw.build_h_table(w, n)
    longest = [ct.counts[-1][0] for ct in cw.sample_batch(
        w, tab, cw.SamplerConfig(n=n, num_samples=num, seed=8))]
    pmf = cw.exact_statistic_pmf(w, n, "L1")
    cdf = np.cumsum([pmf.get(x, 0.0) for x in range(n + 1)])
    assert ks_to_exact(np.array(longest), cdf) <= dkw_bound(num)


def test_rejection_work():
    # alpha = 1, n = 2000: only the rows m <= 16 are scanned, and nearly
    # every proposal is accepted
    w = cw.polynomial(1.0)
    n, num = 2000, 200
    s = smp.CycleTypeSampler(cw.build_h_table(w, n))
    step, accepted = s._step, [0]

    def counting(m, pending, u):
        k = step(m, pending, u)
        accepted[0] += int(np.count_nonzero((m > smp._SCAN_BLOCK) & (k > 0)
                                            & (k < m)))
        return k

    s._step = counting
    for i in range(num):
        s.sample(n, smp.substream_rng(17, i))
    assert s.scanned / num <= n / 10
    assert accepted[0] / s.proposals >= 0.9


def reference_proposal(s, m, u):
    """The broadcast proposal that _propose replaced: the proposed k (1
    where k >= m), whether k < m, and the acceptance probability."""
    c = s._rate[m]
    g = np.floor(np.log1p(u[:, :-1] * s._cut[m, None]) / -c[:, None])
    k = 1.0 + g.sum(axis=1)
    ok = k < m
    k = np.where(ok, k, 1.0).astype(np.int64)
    log_a = (s._accept_k[k] + c * k - s._accept_m[m] + s.log_h[m - k])
    return k, ok, np.exp(log_a)


def reference_propose(s, m, u):
    k, ok, p = reference_proposal(s, m, u)
    return np.where(ok & (u[:, -1] < p), k, 0)


def reference_step(s, m, pending, u):
    """The general step the one-pass step replaced: the first cycles, and
    the number of proposals made."""
    env = s._envelope[m]
    if not env.any():
        return s._scan(m, u[:, 0]), 0
    k = np.zeros(len(m), dtype=np.int64)
    scan = np.flatnonzero(~env)
    if scan.size:
        k[scan] = s._scan(m[scan], u[scan, 0])
    last = env & ~pending & (u[:, 0] < s._last[m])
    k[last] = m[last]
    rows = np.flatnonzero(env & ~last)
    k[rows] = reference_propose(s, m[rows], u[rows, 1:])
    return k, rows.size


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_one_pass_step_matches_reference(alpha):
    # the proposal (r = 1, 2, 4 geometric variables) and the one-pass
    # step against the broadcast proposal and the general step, on
    # random steps that mix scanned rows, k = m rows and pending retries.
    # Some acceptance uniforms sit on or just below the reference's
    # probability, so that a last-bit change in it moves a draw
    w = cw.polynomial(alpha)
    n = 2000
    tab = cw.build_h_table(w, n)
    new, ref = smp.CycleTypeSampler(tab), smp.CycleTypeSampler(tab)
    d = 1 + new._width
    assert d == math.floor(alpha) + 3
    rng = np.random.default_rng(int(10 * alpha))
    sizes = np.flatnonzero(new._envelope)
    moved = 0
    for rows in (1, 7, 300, 1400):
        for mixed in (False, True):
            m = rng.integers(1, n + 1, rows) if mixed else rng.choice(sizes, rows)
            env = new._envelope[m]
            pending = env & (rng.random(rows) < 0.3)
            u = rng.random((rows, d))
            last = rng.random(rows) < 0.1
            u[last, 0] *= new._last[m[last]]
            _, ok, p = reference_proposal(ref, m, u[:, 1:])
            edge = env & ok & (p < 1) & (rng.random(rows) < 0.3)
            u[edge, -1] = p[edge]
            below = edge & (rng.random(rows) < 0.5)
            u[below, -1] = np.nextafter(p[below], 0.0)
            moved += int(np.count_nonzero(edge & ~pending))
            assert np.array_equal(new._propose(m[env], u[env, 1:]),
                                  reference_propose(ref, m[env], u[env, 1:]))
            before = new.proposals
            k = new._step(m, pending, u)
            want, proposals = reference_step(ref, m, pending, u)
            assert k.dtype == want.dtype and np.array_equal(k, want)
            assert new.proposals - before == proposals
            assert new.scanned == ref.scanned
            if mixed and rows > 7:
                assert 0 < np.count_nonzero(env) < rows
                assert np.any(env & ~pending & (k == m))
                assert np.any(pending & (k > 0)) and np.any(k == 0)
    assert moved > 100


def test_desk_batch_matches_exact_finite_n_laws(desk_batch, htable_desk):
    # the desk batch against the exact finite-n laws: the mean number of
    # cycles of length >= x by a z-bound, the longest cycle's CDF by DKW
    n, num = desk_batch[0].n, len(desk_batch)
    z = statistics.NormalDist().inv_cdf(1 - DELTA / 2)
    for x in (1, 10, 100, 300, 1000):
        counts = [tail_count(ct, x) for ct in desk_batch]
        exact = cw.tail_count_mean(htable_desk, n, x)
        se = statistics.stdev(counts) / math.sqrt(num)
        assert abs(statistics.fmean(counts) - exact) <= z * se, x
    longest = np.array([ct.counts[-1][0] for ct in desk_batch])
    for x in (600, 650, 700, 800, 900, 1000):
        exact = cw.longest_cycle_cdf(htable_desk, n, x)
        assert abs(np.mean(longest <= x) - exact) <= dkw_bound(num), x


# families whose draws take every sampler path at n = 2000: rows drawn by
# rejection (alpha = 0.5 and 3 with the r = 1 and r = 4 envelopes, and
# Ewens(2)) next to scanned rows m <= 16, and weights scanned at every row
# (alpha = 5, whose envelope is empty, and a table with gaps)
EXACT_FAMILIES = [cw.polynomial(0.5), cw.polynomial(3.0), cw.polynomial(5.0),
                  cw.ewens(2.0), cw.table([1, 0, 0, 1])]
# samples per family.  Ewens(2) takes ten times more (at ~14 cycles each):
# of all these envelopes only its own accepts many proposals with
# probability near 1, where an acceptance test biased upwards is capped and
# shows, moving E[#cycles] by ~1%
EXACT_SAMPLES = [4000, 4000, 2000, 40000, 4000]


@pytest.mark.parametrize("w,num", zip(EXACT_FAMILIES, EXACT_SAMPLES),
                         ids=["poly0.5", "poly3", "poly5", "ewens2",
                              "table1001"])
def test_batch_matches_exact_finite_n_laws(w, num):
    # a batch at n = 2000, whose first draws are at m > 1000, against the
    # exact laws of the table: E[C_k] = a_k h_{n-k} / h_n (a_k = theta_k / k)
    # for k <= 16 and three k around the longest cycle's median, by a
    # z-bound with C_k's exact variance (E[C_k (C_k - 1)] = a_k^2 h_{n-2k}
    # / h_n); E[#cycles >= x] on a grid, by a z-bound with the sample
    # variance; and P(L1 <= x), by DKW.  DELTA is split over the checks
    n = 2000
    tab = cw.build_h_table(w, n)
    cols = joined(cw.sample_batch(
        w, tab, cw.SamplerConfig(n=n, num_samples=num, seed=13)))
    log_h = tab.log_array()
    log_a = cw.weights.theta_log_array(w, n)
    log_a[1:] -= np.log(np.arange(1, n + 1))
    lo, hi = 1, n  # the median of L1, by bisection on its exact CDF
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = ((lo, mid) if cw.longest_cycle_cdf(tab, n, mid) >= 0.5
                  else (mid + 1, hi))
    ks = sorted(set(range(1, 17)) | {lo * 4 // 5, lo, lo * 5 // 4})
    xs = [1, lo // 4, lo // 2, lo]
    z = statistics.NormalDist().inv_cdf(
        1 - DELTA / (2 * (len(ks) + len(xs) + 1)))
    row = np.repeat(np.arange(num), np.diff(np.append(cols.starts,
                                                      len(cols.m))))
    for k in ks:
        c_k = np.bincount(row, weights=np.where(cols.m == k, cols.c, 0),
                          minlength=num)
        mean = math.exp(log_a[k] + log_h[n - k] - log_h[n])
        pairs = (math.exp(2 * log_a[k] + log_h[n - 2 * k] - log_h[n])
                 if 2 * k <= n else 0.0)
        sd = math.sqrt(mean + pairs - mean * mean)
        assert abs(c_k.mean() - mean) <= z * sd / math.sqrt(num), ("C_k", k)
    for x in xs:
        counts = cw.stats.tail_counts(cols, x)
        se = counts.std(ddof=1) / math.sqrt(num)
        exact = cw.tail_count_mean(tab, n, x)
        assert abs(counts.mean() - exact) <= z * se, ("tail", x)
    longest = cols.m[np.append(cols.starts[1:], len(cols.m)) - 1]
    eps = math.sqrt(math.log(2 * (len(ks) + len(xs) + 1) / DELTA)
                    / (2 * num))
    for x in (lo * 3 // 5, lo * 4 // 5, lo, lo * 5 // 4, lo * 8 // 5):
        exact = cw.longest_cycle_cdf(tab, n, x)
        assert abs(np.mean(longest <= x) - exact) <= eps, ("L1", x)


# SHA-256 of the dump_samples JSONL of (weights, n, samples, seed)
GOLDEN = [
    (cw.polynomial(1.0), 2000, 300, 7,
     "df49d906cd2e1cd2571a1f69b9359d178996b2d2d10be081f77e96eb882dd2af"),
    (cw.polynomial(0.5), 5000, 200, 3,
     "f2007760a04e6f737a10186635b78240a464b9ffd5f8a8cb2e3aecbe37174b7a"),
    (cw.table([1, 0, 0, 1]), 3000, 50, 1,
     "52c09dc601377d99af69e7d862b9d5d5ecba6b393db5997a1d47e0d7ee8b9590"),
]


@pytest.mark.parametrize("w,n,num,seed,digest", GOLDEN,
                         ids=["poly1", "poly0.5", "table1001"])
def test_golden_output(w, n, num, seed, digest):
    # fixed-seed output, bit for bit: the polynomial hashes pin the
    # rejection draws (rows m > 16), the table's the scan, which draws every
    # row of weights with no envelope
    tab = cw.build_h_table(w, n)
    out = io.StringIO()
    smp.dump_samples(cw.sample_batch(
        w, tab, cw.SamplerConfig(n=n, num_samples=num, seed=seed)), out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_row_starts_match_binary_search(monkeypatch):
    # each chunk's row starts against one binary search per sample, and
    # its lengths against the keys' remainders, on two-chunk batches with
    # few runs per sample, whose starts are counted (about 1.9 at n = 6,
    # and at most 2 for table([1, 0, 0, 1])), and with many, whose starts
    # are searched (alpha = 1 at n = 2000)
    calls = []
    split = smp._split_keys

    def recorded(runs, count, n):
        keys = runs.copy()
        calls.append((keys, count, split(runs, count, n), runs))
        return calls[-1][2]

    monkeypatch.setattr(smp, "_split_keys", recorded)
    for w, n, few in [(cw.polynomial(1.0), 6, True),
                      (cw.polynomial(1.0), 17, True),
                      (cw.table([1, 0, 0, 1]), 2000, True),
                      (cw.polynomial(1.0), 2000, False)]:
        cfg = cw.SamplerConfig(n=n, num_samples=smp._chunk_size(n) + 300,
                               seed=2)
        batch = list(cw.sample_batch(w, cw.build_h_table(w, n), cfg))
        assert all(sum(m * c for m, c in ct.counts) == n for ct in batch)
        assert [count for _, count, _, _ in calls] == [smp._chunk_size(n), 300]
        for keys, count, got, lengths in calls:
            assert (keys.size < smp._FEW_RUNS * count) == few, n
            want = np.searchsorted(keys, np.arange(count + 1) * (n + 1))
            assert got.dtype == want.dtype and np.array_equal(got, want), n
            assert np.array_equal(lengths, keys % (n + 1)), n
        calls.clear()


def test_batch_counters_match_single_draws(poly1):
    tab = cw.build_h_table(poly1, 2000)
    single = smp.CycleTypeSampler(tab)
    for i in range(100):
        single.sample(2000, smp.substream_rng(7, i))
    shared = smp._shared_sampler(poly1, tab)
    list(cw.sample_batch(poly1, tab, cw.SamplerConfig(n=2000, num_samples=100,
                                                      seed=7)))
    assert shared.scanned == single.scanned > 0
    assert shared.proposals == single.proposals > 0
    assert shared.incidents == single.incidents == 0
    # plain ints, so that the counters can be written as JSON
    assert (type(shared.scanned) is type(shared.incidents)
            is type(shared.proposals) is int)


def test_batch_size_does_not_change_samples():
    # 41-70 cycles per sample: more than one read-ahead of uniforms.  The
    # batches hold up to _CHUNK + 40 samples, so n is kept small
    w = cw.polynomial(3.0)
    tab = cw.build_h_table(w, 500)
    chunk = smp._CHUNK

    def batch(num):
        cfg = cw.SamplerConfig(n=500, num_samples=num, seed=21)
        return [ct.counts for ct in cw.sample_batch(w, tab, cfg)]

    full = batch(chunk + 40)
    for num in (1, chunk - 1, chunk, chunk + 1):
        assert batch(num) == full[:num]
    fresh = smp.CycleTypeSampler(tab)
    for i in (0, chunk - 1, chunk, chunk + 1, chunk + 39):
        assert fresh.sample(500, smp.substream_rng(21, i)).counts == full[i]


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("budget", [
    # fixed chunks of _CHUNK, scan groups of _SCAN_ROWS (max m >= 2), and
    # Philox tiles of 512 // n keys
    {"_BUFFER": 512},
    {"_CHUNK": 3, "_SCAN_ROWS": 2, "_BUFFER": 60},
], ids=["floors", "tiny"])
def test_chunk_size_does_not_change_small_n_samples(small_table, n, budget,
                                                    monkeypatch):
    w = cw.polynomial(1.0)
    chunk = smp._chunk_size(n)
    assert chunk > smp._CHUNK
    cfg = cw.SamplerConfig(n=n, num_samples=chunk + 40, seed=5)
    full = [ct.counts for ct in cw.sample_batch(w, small_table, cfg)]
    fresh = smp.CycleTypeSampler(small_table)
    for i in (chunk - 1, chunk, chunk + 1):
        assert fresh.sample(n, smp.substream_rng(5, i)).counts == full[i]
    for name, value in budget.items():
        monkeypatch.setattr(smp, name, value)
    assert [ct.counts for ct in cw.sample_batch(w, small_table, cfg)] == full


def test_small_n_batch_is_one_chunk(monkeypatch):
    # per-chunk and per-group work at n = 6, counted rather than timed: a
    # batch of 10^4 is one chunk whose refills compute little more than
    # one Philox block (4 uniforms) per sample, as 99.2% of samples end
    # within 4 steps, and each of its at most 6 steps scans every row in
    # one group
    w = cw.polynomial(1.0)
    tab = cw.build_h_table(w, 6)
    calls = collections.Counter()
    philox, scan = smp.philox_uniforms, smp.CycleTypeSampler._first_cycles

    def counted_philox(keys, start, count, out=None):
        calls["uniforms"] += len(keys) * 4 * -(-(start % 4 + count) // 4)
        return philox(keys, start, count, out)

    def counted_scan(*args):
        calls["scan"] += 1
        return scan(*args)

    monkeypatch.setattr(smp, "philox_uniforms", counted_philox)
    monkeypatch.setattr(smp.CycleTypeSampler, "_first_cycles", counted_scan)
    cfg = cw.SamplerConfig(n=6, num_samples=10**4, seed=3)
    assert len(list(cw.sample_batch(w, tab, cfg))) == 10**4
    assert calls["uniforms"] <= 1.05 * 4 * 10**4
    assert 1 <= calls["scan"] <= 6


def test_wide_lockstep_chunks(monkeypatch):
    # per-chunk work at n = 2000, alpha = 1, counted rather than timed: a
    # 5000-sample batch is one chunk, refilled every _LOOKAHEAD // 4 of its
    # steps (a step reads 4 uniforms), and each refill computes its
    # uniforms in Philox tiles of at most _BUFFER cells (keys x uniforms)
    w = cw.polynomial(1.0)
    tab = cw.build_h_table(w, 2000)
    # per chunk its steps and refills; per refill its width, then the keys
    # of each of its tiles
    steps, fills, tiles = [], [], []
    philox, tile, step = (smp.philox_uniforms, smp._philox_tile,
                          smp.CycleTypeSampler._step)

    def counted_philox(keys, start, count, out=None):
        if start == 0:  # a chunk's first fill
            steps.append(0)
            fills.append(0)
        fills[-1] += 1
        tiles.append([count])
        return philox(keys, start, count, out)

    def counted_tile(keys, *args):
        tiles[-1].append(len(keys))
        return tile(keys, *args)

    def counted_step(self, *args):
        steps[-1] += 1
        return step(self, *args)

    def batch(num=5000):
        return [ct.counts for ct in cw.sample_batch(
            w, tab, cw.SamplerConfig(n=2000, num_samples=num, seed=11))]

    with monkeypatch.context() as mp:
        mp.setattr(smp, "philox_uniforms", counted_philox)
        mp.setattr(smp, "_philox_tile", counted_tile)
        mp.setattr(smp.CycleTypeSampler, "_step", counted_step)
        full = batch()
    assert len(full) == 5000
    assert len(steps) == -(-5000 // smp._CHUNK) == 1
    assert fills == [-(-s // (smp._LOOKAHEAD // 4)) for s in steps]
    assert len(tiles) == sum(fills)
    # the first refill reads 32 uniforms for 5000 keys: three tiles
    assert len(tiles[0]) - 1 == -(-5000 // (smp._BUFFER // 32)) == 3
    for count, *keys in tiles:
        assert sum(keys) > 0
        assert max(keys) * count <= smp._BUFFER
    # the chunk geometry does not change a sample: chunks of 2048 (three
    # for this batch), narrower chunks (512 samples reading 128 uniforms
    # ahead) give the same batch, and a tiny budget its first 60 samples
    with monkeypatch.context() as mp:
        mp.setattr(smp, "_CHUNK", 2048)
        assert batch() == full
    with monkeypatch.context() as mp:
        mp.setattr(smp, "_CHUNK", 512)
        mp.setattr(smp, "_LOOKAHEAD", 128)
        assert batch() == full
    # nor does a key buffer that starts at 64 keys and doubles when full
    with monkeypatch.context() as mp:
        mp.setattr(smp, "tail_count_mean", lambda h, n, x: 0.0)
        assert batch() == full
    with monkeypatch.context() as mp:
        for name, value in {"_CHUNK": 3, "_SCAN_ROWS": 2,
                            "_BUFFER": 60}.items():
            mp.setattr(smp, name, value)
        assert batch(60) == full[:60]


def test_lockstep_reads_uniforms_in_place(poly1, htable_desk, desk_batch,
                                          monkeypatch):
    # a desk chunk's read-ahead is the first fill's memory: every refill
    # writes into it, and the step after each fill, before any sample has
    # finished since, reads its uniforms there, with no gather
    n, count = htable_desk.n_max, len(desk_batch)
    keys = smp.substream_keys(7, np.arange(count))
    fills, in_place = [], []
    step = smp.CycleTypeSampler._step

    def fill(rows, start, width, out=None):
        fills.append(smp.philox_uniforms(keys[rows], start, width, out))
        in_place.append([])
        return fills[-1]

    def watched_step(self, m, pending, u):
        in_place[-1].append(np.shares_memory(u, fills[0]))
        return step(self, m, pending, u)

    monkeypatch.setattr(smp.CycleTypeSampler, "_step", watched_step)
    sampler = smp.CycleTypeSampler(htable_desk)
    drawn = sampler._sample_lockstep(n, count, fill,
                                     cw.tail_count_mean(htable_desk, n, 1))
    assert [ct.counts for ct in drawn] == [ct.counts for ct in desk_batch]
    assert len(fills) > 1
    assert all(np.shares_memory(out, fills[0]) for out in fills[1:])
    assert all(steps[0] for steps in in_place)


def test_expected_cycles_once_per_batch(monkeypatch):
    # the expected number of cycles sizes every chunk's read-ahead and key
    # buffer: a batch of four chunks computes it once, and a single draw
    # once
    w = cw.polynomial(1.0)
    tab = cw.build_h_table(w, 2000)
    cfg = cw.SamplerConfig(n=2000, num_samples=500, seed=4)
    full = [ct.counts for ct in cw.sample_batch(w, tab, cfg)]
    calls = []
    mean = smp.tail_count_mean

    def counted_mean(*args):
        calls.append(args[1:])
        return mean(*args)

    monkeypatch.setattr(smp, "tail_count_mean", counted_mean)
    monkeypatch.setattr(smp, "_CHUNK", 100)
    monkeypatch.setattr(smp, "_BUFFER", 2**12)
    assert smp._chunk_size(2000) == 128
    assert [ct.counts for ct in cw.sample_batch(w, tab, cfg)] == full
    assert calls == [(2000, 1)]
    cw.sample_cycle_type(w, tab, 2000, smp.substream_rng(4, 0))
    assert calls == [(2000, 1)] * 2


def test_key_type_limit():
    # keys reach count * (n + 1) - 1 < count * (n + 1), and the bound array
    # count * (n + 1) itself: both fit int32 at every n up to 2^30, and
    # chunks keep _CHUNK samples from n = 8 up to n = 262 142
    ns = np.unique(np.concatenate([
        np.arange(1, 2**12), np.geomspace(2**12, 2**30, 4000).astype(np.int64),
        [2**18 - 2, 2**18 - 1, 2**18, 2**20 - 2, 2**20 - 1, 2**20, 2**30]]))
    sizes = np.array([smp._chunk_size(int(n)) for n in ns])
    assert sizes.min() >= 1
    assert np.all(sizes * (ns + 1) <= 2**31 - 1)
    mid = (ns >= 8) & (ns <= 262_142)
    assert np.all(sizes[mid] == smp._CHUNK)
    assert smp._chunk_size(262_143) == smp._CHUNK - 1


def test_config_refuses_n_past_the_keys():
    # the largest n, 2^31 - 2, has chunks of one sample; the next has none,
    # and its config is refused when made, with no table to check it
    # against.  The limit is a literal here: read from _MAX_N, it would
    # follow a raised limit whose row bounds count * (n + 1) overflow int32
    assert smp._chunk_size(2**31 - 2) == 1
    assert smp._chunk_size(2**31 - 1) == 0
    cw.SamplerConfig(n=2**31 - 2, num_samples=1, seed=0)
    with pytest.raises(CapacityError, match=f"n={2**31 - 1} exceeds"):
        cw.SamplerConfig(n=2**31 - 1, num_samples=1, seed=0)


def test_refill_past_read_ahead():
    # table([1, 0]) allows fixed points only: 1500 draws per sample, more
    # than one read-ahead block of uniforms
    w = cw.table([1, 0])
    tab = cw.build_h_table(w, 1500)
    shared = smp._shared_sampler(w, tab)
    cfg = cw.SamplerConfig(n=1500, num_samples=3, seed=2)
    drawn = [ct.counts for ct in cw.sample_batch(w, tab, cfg)]
    assert drawn == [((1, 1500),)] * 3
    assert shared.incidents == 0


def reference_key(seed, index):
    """substream_keys in Python ints: splitmix64 of seed ^ index * golden."""
    mask = (1 << 64) - 1
    z = ((seed ^ (index * 0x9E3779B97F4A7C15)) + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


@pytest.mark.parametrize("seed", [0, 99, -1, 2**64 + 5])
def test_substream_keys_match_reference(seed):
    idx = np.arange(10000)
    keys = smp.substream_keys(seed, idx)
    assert keys.dtype == np.uint64
    assert keys.tolist() == [reference_key(seed, i) for i in idx.tolist()]
    assert [int(smp.substream_keys(seed, [i])[0]) for i in (0, 1, 9999)] == \
        [reference_key(seed, i) for i in (0, 1, 9999)]


# keys where the first key bump k + W0 wraps past 2^64, and key 0
EDGE_KEYS = [2**64 - 0x9E3779B97F4A7C15, 2**64 - 0x9E3779B97F4A7C15 + 1,
             2**64 - 1, 0, 1]


@pytest.mark.parametrize("start", [0, 3, 128, 256, 4 * 2**12 + 3])
@pytest.mark.parametrize("width", [6, 37, 128])
def test_philox_uniforms_match_numpy(start, width):
    # the computed streams are numpy's Philox, bit for bit, also on a
    # subset of rows as a refill reads them, from inside a block, past 2^12
    # blocks, and at the edge keys
    seed = 7
    keys = smp.substream_keys(seed, np.arange(300))
    rows = np.array([0, 1, 2, 57, 128, 255, 299])
    got = smp.philox_uniforms(keys[rows], start, width)
    assert got.shape == (len(rows), width)
    for r, i in enumerate(rows.tolist()):
        want = smp.substream_rng(seed, i).random(start + width)[start:]
        assert np.array_equal(got[r], want)
    got = smp.philox_uniforms(np.array(EDGE_KEYS, np.uint64), start, width)
    for r, k in enumerate(EDGE_KEYS):
        want = np.random.Generator(np.random.Philox(key=k)).random(
            start + width)[start:]
        assert np.array_equal(got[r], want)


@pytest.mark.parametrize("start,width", [(0, 32), (3, 32), (128, 37),
                                         (130, 6)])
def test_philox_uniforms_into_out(start, width):
    # tiles written into a given array, key-major or uniform-major, equal
    # the allocating call, for key counts on and across tile boundaries
    # and for one key, from a start and at a width that are not multiples
    # of 4; the allocating call's output is uniform-major; and with several
    # tiles the call allocates no array of its output's size
    tile = smp._BUFFER // width
    keys = smp.substream_keys(5, np.arange(2 * tile + 5))
    for num in (1, tile, tile + 1, 2 * tile + 5):
        want = smp.philox_uniforms(keys[:num], start, width)
        assert want.strides[0] == want.itemsize
        for out in (np.full((num, width), -1.0),
                    np.full((width, num), -1.0).T):
            assert smp.philox_uniforms(keys[:num], start, width, out) is out
            assert np.array_equal(out, want)
    peaks = []
    tracemalloc.start()
    try:
        for given in (None, out):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            smp.philox_uniforms(keys, start, width, given)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= peaks[0] - 0.9 * out.nbytes


def test_philox_uniforms_refuses_bad_start_and_count():
    # a negative start would read counter block 0, which numpy's stream
    # never produces, and a count of 0 has no tile size; an empty key set
    # is no error
    keys = smp.substream_keys(3, np.arange(4))
    with pytest.raises(ValueError, match="start must be >= 0, got -1"):
        smp.philox_uniforms(keys, -1, 4)
    for count in (0, -2):
        with pytest.raises(ValueError,
                           match=f"count must be >= 1, got {count}"):
            smp.philox_uniforms(keys, 0, count)
    empty = np.array([], np.uint64)
    assert smp.philox_uniforms(empty, 5, 7).shape == (0, 7)
    assert smp.philox_uniforms(empty, 0, 7, np.empty((0, 7))).shape == (0, 7)


def test_philox_tiles_are_even(monkeypatch):
    # a refill of K keys runs as ceil(K / cap) tiles of equal size, to one
    # key, with cap = _BUFFER // width: no tile is a small remainder
    tiles, tile = [], smp._philox_tile

    def counted_tile(words, *args):
        tiles.append(len(words))
        return tile(words, *args)

    monkeypatch.setattr(smp, "_philox_tile", counted_tile)
    cap = smp._BUFFER // 32
    for num, want in ((5000, [1667, 1667, 1666]), (2147, [1074, 1073]),
                      (cap, [cap]), (cap + 1, [cap // 2 + 1, cap // 2])):
        keys = smp.substream_keys(9, np.arange(num))
        for out in (None, np.empty((32, num)).T):
            tiles.clear()
            got = smp.philox_uniforms(keys, 3, 32, out)
            assert tiles == want
            assert np.array_equal(
                got[-1], smp.substream_rng(9, num - 1).random(35)[3:])


@pytest.mark.parametrize("width", [4, 37])
def test_chunk_key_words_give_numpy_streams_on_compacted_rows(
        small_table, monkeypatch, width):
    # a batch computes its chunk's round-2 key words once: the first fill
    # reads them whole, and a refill gathers the running samples', which
    # the chunk has compacted to its first columns.  Each row is its own
    # key's numpy stream, also at the edge keys, where k + W0 wraps
    keys = smp.substream_keys(7, np.arange(300))
    keys[[5, 6, 7, 8, 299]] = np.array(EDGE_KEYS, np.uint64)
    fills = []
    monkeypatch.setattr(smp, "substream_keys", lambda seed, idx: keys[idx])
    monkeypatch.setattr(smp.CycleTypeSampler, "_sample_lockstep",
                        lambda self, n, count, fill, cycles:
                        fills.append(fill) or iter(()))
    cfg = cw.SamplerConfig(n=40, num_samples=300, seed=7)
    assert list(cw.sample_batch(cw.polynomial(1.0), small_table, cfg)) == []
    (fill,) = fills
    streams = np.array([np.random.Generator(np.random.Philox(
        key=int(k))).random(64 + width) for k in keys])
    subsets = [np.arange(300, dtype=np.int32),
               np.array([5, 6, 7, 8, 57, 200, 299], np.int32),
               np.array([299], np.int32), np.arange(1, 300, 2, dtype=np.int32)]
    for start in (0, 3, 32, 64):
        for rows in subsets:
            for out in (None, np.full((width, 300), -1.0)[:, :rows.size].T):
                got = fill(rows, start, width, out)
                assert np.array_equal(
                    got, streams[rows, start:start + width])


@pytest.mark.parametrize("seed", [-1, 2**64 + 5])
def test_seed_outside_uint64(small_table, seed):
    # a seed is taken mod 2^64 by both paths
    w = cw.polynomial(1.0)
    fresh = smp.CycleTypeSampler(small_table)
    batch = [ct.counts for ct in cw.sample_batch(
        w, small_table, cw.SamplerConfig(n=40, num_samples=20, seed=seed))]
    assert batch == [fresh.sample(40, smp.substream_rng(seed, i)).counts
                     for i in range(20)]


def test_batch_builds_no_generator(small_table, monkeypatch):
    # a batch computes its streams; it never steps a numpy Generator
    def refuse(*args, **kwargs):
        raise AssertionError("sample_batch built a numpy bit generator")
    monkeypatch.setattr(np.random, "Generator", refuse)
    monkeypatch.setattr(np.random, "Philox", refuse)
    cfg = cw.SamplerConfig(n=40, num_samples=300, seed=3)
    assert len(list(cw.sample_batch(cw.polynomial(1.0), small_table,
                                    cfg))) == 300


def test_handles_are_read_only_tuples(small_table):
    # each sample is a CycleType tuple (cols, start, end) on its chunk's one
    # Columns; assigning to it raises, and two handles compare and hash by
    # identity, so equal rows of two batches are not equal and do not
    # compare their arrays
    w = cw.polynomial(1.0)
    one, two = (list(cw.sample_batch(w, small_table,
                                     cw.SamplerConfig(6, 50, 3)))
                for _ in range(2))
    for cyc in one:
        assert type(cyc) is cw.CycleType and isinstance(cyc, tuple)
        assert tuple(cyc) == (cyc.cols, cyc.start, cyc.end)
        assert cyc.cols is one[0].cols
        assert isinstance(cyc.cols, cw.oracle.Columns)
    assert [cyc.end for cyc in one[:-1]] == [cyc.start for cyc in one[1:]]
    with pytest.raises(AttributeError):
        one[0].start = 5
    with pytest.raises(TypeError):
        one[0][0] = two[0].cols
    assert one[0].counts == two[0].counts
    assert one[0] != two[0] and not one[0] == two[0]
    assert one[0] == one[0] and two[1:] != one[1:]
    assert hash(one[0]) != hash(two[0])
    assert len({*one, *two, one[0]}) == 100


def test_tables_and_chunks_compare_by_identity(small_table):
    # two tables, and two batches' chunks, that hold equal arrays are not
    # equal, and ==, membership and hashing never compare their arrays
    w = cw.polynomial(1.0)
    again = cw.build_h_table(w, small_table.n_max)
    one, two = (next(cw.sample_batch(w, tab, cw.SamplerConfig(6, 50, 3))).cols
                for tab in (small_table, again))
    for a, b in ((small_table, again), (one, two)):
        assert a != b and not a == b and a == a
        assert a in [b, a] and b not in [a]
        assert hash(a) != hash(b) and len({a, b, a}) == 2
    assert all(np.array_equal(x, y) for x, y in zip(one[:3], two[:3]))
    assert np.array_equal(small_table.mant, again.mant)


def test_sampler_holds_few_bytes_per_row():
    # what a sampler holds besides its table: log theta, log h once (as
    # the reversed, padded array its windows read), the scan base and the
    # envelope's arrays.  4.57 table bytes at n = 1e5 when this bound was
    # set, 5.07 with log h held twice
    tab = cw.build_h_table(cw.polynomial(1.0), 10**5)
    tracemalloc.start()
    try:
        kept = smp.CycleTypeSampler(tab)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept.h.mant is tab.mant
    assert held <= 4.8 * (tab.mant.nbytes + tab.expo.nbytes)


def test_substream_keys_distinct():
    keys = set(smp.substream_keys(42, range(10000)).tolist())
    assert len(keys) == 10000


def test_dump_samples(tmp_path, small_table):
    import json
    w = cw.polynomial(1.0)
    cfg = cw.SamplerConfig(n=10, num_samples=5, seed=0)
    path = str(tmp_path / "s.jsonl")
    with open(path, "w") as f:
        count = smp.dump_samples(cw.sample_batch(w, small_table, cfg), f)
    assert count == 5
    lines = [json.loads(line) for line in open(path)]
    assert [d["i"] for d in lines] == list(range(5))
    for d in lines:
        assert sum(m * c for m, c in d["cycles"]) == 10


# each configuration's dump_samples digest is compared across numpy's
# CPU dispatch levels: (weights, n, samples, seed)
DISPATCH_CONFIGS = [
    (cw.polynomial(1.0), 6, 2000, 3),
    (cw.polynomial(1.0), 2000, 300, 3),
    (cw.polynomial(3.0), 2000, 200, 3),
    (cw.table([1, 0, 0, 1]), 2000, 40, 3),
]


# each table's rows are compared across the same levels, to a relative
# bound: (weights, n)
DISPATCH_TABLES = [(cw.polynomial(alpha), 20000) for alpha in (0.5, 1.0, 3.0)]


def dispatch_rows():
    """The (mantissas, exponents) of each of DISPATCH_TABLES, each array as
    the hex string of its bytes."""
    return [[tab.mant.tobytes().hex(), tab.expo.tobytes().hex()]
            for tab in (cw.build_h_table(w, n) for w, n in DISPATCH_TABLES)]


def dispatch_digests():
    """SHA-256 of the dump_samples output of each of DISPATCH_CONFIGS, and
    the SIMD extensions numpy dispatches to in this process."""
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
    digests = []
    for w, n, num, seed in DISPATCH_CONFIGS:
        out = io.StringIO()
        smp.dump_samples(cw.sample_batch(w, cw.build_h_table(w, n),
                                         cw.SamplerConfig(n, num, seed)), out)
        digests.append(hashlib.sha256(out.getvalue().encode()).hexdigest())
    return digests, [f for f in __cpu_dispatch__ if __cpu_features__[f]]


def dispatch_reports():
    """The four reports' to_dict() on one small fixed batch: alpha = 1,
    n = 2000, 300 samples, at the desk's grids."""
    w, n = cw.polynomial(1.0), 2000
    batch = list(cw.sample_batch(w, cw.build_h_table(w, n),
                                 cw.SamplerConfig(n, 300, 3)))
    sd = cw.solve_saddle(w, n)
    return [rep.to_dict() for rep in (
        cw.verify_poisson_increments(batch, sd, [0.5, 1.0, 2.0]),
        cw.verify_gumbel(batch, sd, 3),
        cw.cumulative_profile(batch, 1.0, [0.5, 1.0, 2.0], w=w, sd=sd),
        cw.bn_event_frequency(batch, sd, w=w))]


def test_samples_same_across_cpu_dispatch():
    # the same dumps at every dispatch level numpy reports, h-table rows
    # within 1e-12 relative, zero rows exact, and report numbers within
    # 1e-12 relative, pass flags exact: each child process
    # turns off one more dispatched extension, from the newest down to the
    # build's baseline, by numpy's own NPY_DISABLE_CPU_FEATURES switch,
    # which acts on that process only
    pytest.importorskip("numpy._core._multiarray_umath",
                        reason="numpy < 2 names its dispatch elsewhere")
    digests, found = dispatch_digests()
    if not found:
        pytest.skip("numpy dispatches to no extension past its baseline")
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.dirname(os.path.dirname(cw.__file__)),
                            here])
    probe = ("import json, test_sampler\n"
             "print(json.dumps([*test_sampler.dispatch_digests(),\n"
             "                  test_sampler.dispatch_rows(),\n"
             "                  test_sampler.dispatch_reports()]))\n")
    # a child keeps the extensions this process runs without turned off
    off = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
    children = [subprocess.Popen(
        [sys.executable, "-c", probe], stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": path,
             "NPY_DISABLE_CPU_FEATURES": " ".join(off + found[i:])})
        for i in range(len(found))]
    tables = [cw.build_h_table(w, n) for w, n in DISPATCH_TABLES]
    reports = dispatch_reports()
    outs = [child.communicate(timeout=120)[0] for child in children]
    for i, (child, out) in enumerate(zip(children, outs)):
        assert child.returncode == 0
        got, enabled, rows, got_reports = json.loads(out)
        assert enabled == found[:i], "the switch did not take"
        assert got == digests, f"digests differ without {found[i:]}"
        for tab, (mant, expo) in zip(tables, rows):
            mant = np.frombuffer(bytes.fromhex(mant), tab.mant.dtype)
            expo = np.frombuffer(bytes.fromhex(expo), tab.expo.dtype)
            zero = tab.mant == 0
            assert np.array_equal(mant == 0, zero)
            rel = np.ldexp(mant[~zero], expo[~zero] - tab.expo[~zero])
            rel /= tab.mant[~zero]
            rel -= 1.0
            assert np.abs(rel).max() <= 1e-12, \
                f"{tab.weight} rows differ without {found[i:]}"
        for rep, got_rep in zip(reports, got_reports, strict=True):
            for c, g in zip(rep["checks"], got_rep["checks"], strict=True):
                assert (g["name"], g["pass"]) == (c["name"], c["pass"])
                for key in ("observed", "target", "tol"):
                    assert math.isclose(g[key], c[key], rel_tol=1e-12), \
                        (c["name"], key, found[i:])
