import collections
import hashlib
import math
import re
import struct
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import cycleweights as cw
from cycleweights import oracle, weights

from conftest import tail_count


def rel_err(a_log, b_log):
    return abs(math.expm1(a_log - b_log))


def h_float(tab, n):
    """Row n of the table as the nearest double."""
    return oracle._ratio(tab.mant[n], tab.expo[n], 1.0, 0)


def test_partitions_count():
    assert sum(1 for _ in oracle.partitions(10)) == 42
    assert list(oracle.partitions(0)) == [()]
    assert list(oracle.partitions(3)) == [(3,), (2, 1), (1, 1, 1)]


def partitions_reference(n):
    """The partitions of n by recursion on the largest part: descending
    tuples, in reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    parts = []

    def rec(remaining, max_part):
        if remaining == 0:
            yield tuple(parts)
            return
        for p in range(min(remaining, max_part), 0, -1):
            parts.append(p)
            yield from rec(remaining - p, p)
            parts.pop()

    yield from rec(n, n)


def test_partitions_match_recursive_reference():
    for n in range(31):
        assert list(oracle.partitions(n)) == list(partitions_reference(n)), n


def test_enumerate_n2():
    w = cw.polynomial(1.0)
    probs = {ct.counts: p for ct, p in cw.enumerate_cycle_types(w, 2)}
    assert probs[((1, 2),)] == pytest.approx(1 / 3)
    assert probs[((2, 1),)] == pytest.approx(2 / 3)


def test_enumerate_n3():
    w = cw.polynomial(1.0)
    probs = {ct.counts: p for ct, p in cw.enumerate_cycle_types(w, 3)}
    assert probs[((1, 3),)] == pytest.approx(1 / 13)
    assert probs[((1, 1), (2, 1))] == pytest.approx(6 / 13)
    assert probs[((3, 1),)] == pytest.approx(6 / 13)


def test_enumerate_ewens_uniform():
    pmf = cw.exact_statistic_pmf(cw.ewens(1.0), 3, "L1")
    assert pmf[3] == pytest.approx(1 / 3)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_enumerate_mass_sums_to_one(n):
    for w in (cw.polynomial(0.5), cw.polynomial(2.0), cw.ewens(2.0)):
        total = sum(p for _, p in cw.enumerate_cycle_types(w, n))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_enumeration_cap():
    with pytest.raises(oracle.CapacityError):
        cw.enumerate_cycle_types(cw.polynomial(1.0), 61)


def test_h_exact_values():
    assert math.exp(cw.h_exact(cw.ewens(1.0), 7).log()) == pytest.approx(1.0)
    assert math.exp(cw.h_exact(cw.polynomial(1.0), 2).log()) == pytest.approx(1.5)
    # rising factorial 2*3*4/3!
    assert math.exp(cw.h_exact(cw.ewens(2.0), 3).log()) == pytest.approx(4.0)


@pytest.mark.parametrize("w", [
    cw.polynomial(0.5), cw.polynomial(1.0), cw.polynomial(2.5), cw.ewens(0.3),
    cw.ewens(2.0), cw.table([1, 0, 0, 1]), cw.table([0, 1]),
    cw.table([0, 1, 1]), cw.table([0, 0, 1]), cw.table([1, 2, 3])],
    ids=["poly0.5", "poly1", "poly2.5", "ewens0.3", "ewens2", "table1001",
         "table01", "table011", "table001", "table123"])
def test_one_pass_matches_per_size_enumeration(w):
    # the reference sums each size's own partitions; the one pass reads
    # every size from the partitions of 30 (theta_1 = 0 in three tables)
    logs = oracle.log_h_exact(w, 30)
    assert oracle.log_h_exact(w, 0) == [0.0] and len(logs) == 31
    for m in range(31):
        ref = oracle._log_sum([lw for _, _, lw in oracle._type_logs(w, m)])
        if ref == -math.inf:
            assert logs[m] == -math.inf, m
        else:
            assert abs(math.expm1(logs[m] - ref)) <= 1e-14, m


def test_h_table_small_values():
    tab = cw.build_h_table(cw.polynomial(1.0), 3)
    vals = [h_float(tab, i) for i in range(4)]
    assert vals == pytest.approx([1.0, 1.0, 1.5, 13 / 6])


def test_h_table_ewens_closed_forms():
    tab1 = cw.build_h_table(cw.ewens(1.0), 20)
    tab2 = cw.build_h_table(cw.ewens(2.0), 20)
    for n in range(21):
        assert h_float(tab1, n) == pytest.approx(1.0, rel=1e-12)
        assert h_float(tab2, n) == pytest.approx(n + 1, rel=1e-12)


@pytest.mark.parametrize("w", [cw.polynomial(1.0), cw.polynomial(2.0),
                               cw.ewens(2.0)])
def test_recurrence_matches_enumeration(w):
    tab = cw.build_h_table(w, 20)
    for n in range(1, 21):
        assert rel_err(tab.log_array()[n], cw.h_exact(w, n).log()) < 1e-10


def test_recurrence_residual_invariant(htable_2000):
    for res in htable_2000.recurrence_residuals([1, 17, 500, 2000]):
        assert res < 1e-10


def residual_reference(tab, n):
    """Reference for HTable.recurrence_residuals: one row's residual, with
    theta split on the call, the table's rows read through reversed views
    and the zero terms always masked out of the top exponent."""
    theta = weights.theta_array(tab.weight, tab.n_max)
    cm, ce = np.frexp(theta[:n + 1])
    m = cm * tab.mant[n::-1]
    ex = ce + tab.expo[n::-1]
    nz = m != 0.0
    total, top = 0.0, 0
    if np.any(nz):
        top = int(np.max(ex[nz]))
        total = float(np.sum(m * np.take(oracle._POW2_DOWN, top - ex,
                                         mode="clip")))
    if tab.mant[n] == 0.0:
        return 0.0 if total == 0.0 else math.inf
    return abs(oracle._ratio(total, top, n * tab.mant[n], tab.expo[n]) - 1.0)


@pytest.mark.parametrize("w", [
    cw.polynomial(0.5), cw.polynomial(1.0), cw.polynomial(3.0), cw.ewens(2.0),
    cw.table([1, 0, 0, 1]), cw.table([0, 0, 1, 0, 3])],
    ids=["poly0.5", "poly1", "poly3", "ewens2", "table1001", "table00103"])
def test_recurrence_residuals_match_one_row_reference(w):
    # the rows HTable.load checks, every small row (table00103 has the zero
    # rows h_1, h_2 and h_4) and the last; then the same table with h_17
    # scaled and h_1 set to 8, so that the check must fail
    n_max = 3000
    tab = cw.build_h_table(w, n_max)
    zero_h4 = tab.mant[4] == 0.0
    rows = np.concatenate([oracle.residual_rows(n_max), np.arange(1, 41),
                           [n_max]])
    for case in ("built", "tampered"):
        got = tab.recurrence_residuals(rows)
        want = np.array([residual_reference(tab, int(n)) for n in rows])
        assert got.tobytes() == want.tobytes()
        assert (np.max(got) <= 1e-12) == (case == "built")
        tab.mant[17] *= 1.5
        tab.mant[1], tab.expo[1] = 1.0, 3
    if zero_h4:  # table00103: h_4 = 0, but its term theta_3 h_1 is not
        assert np.all(got[rows == 4] == math.inf)


KERNEL_WEIGHTS = {
    "poly0.5": cw.polynomial(0.5), "poly1": cw.polynomial(1.0),
    "poly2": cw.polynomial(2.0), "poly3": cw.polynomial(3.0),
    "ewens0.3": cw.ewens(0.3), "ewens2": cw.ewens(2.0),
    "table01": cw.table([0.0, 1.0]), "table110": cw.table([1.0, 1.0, 0.0]),
    "table24": cw.table([2.0, 4.0]),
    "table00103": cw.table([0.0, 0.0, 1.0, 0.0, 3.0]),  # h_4 = 0 amid nonzero rows
    # zero runs in theta: rows feed later rows across the gap
    "table1001": cw.table([1.0, 0.0, 0.0, 1.0]),
    "table1z9": cw.table([1.0] + [0.0] * 9 + [1.0]),
    "table1z300": cw.table([1.0] + [0.0] * 300 + [1.0]),  # h jumps by ~2**2000
}


def int_h_table(w, n_max, bits=256):
    """h_0..h_n_max from the plain O(n^2) recurrence in Python integers:
    row m is mant[m] * 2**expo[m], mant of `bits` bits or 0.  Each row
    carries its own exponent, since h spans far more than any one
    fixed-point scale (a table with h_n = 1/n! up to n = 301 jumps by
    ~2^2000).  A row's sum keeps bits + 64 bits below its largest term,
    truncating smaller terms, and the division by n truncates to `bits`
    bits, so a row adds a relative error of about 2^-(bits-1) to the
    largest among the rows it reads (every term is nonnegative): below
    1e-73 at n = 1500 for 256 bits."""
    theta = [float(t).as_integer_ratio() for t in weights.theta_array(w, n_max)]
    tm = [p for p, q in theta]
    te = [1 - q.bit_length() for p, q in theta]  # q is a power of two
    mant, expo = [1], [0]
    for n in range(1, n_max + 1):
        terms = [(tm[k] * mant[n - k], te[k] + expo[n - k])
                 for k in range(1, n + 1) if tm[k] and mant[n - k]]
        if not terms:
            mant.append(0)
            expo.append(0)
            continue
        base = max(e + m.bit_length() for m, e in terms) - bits - 64
        total = sum(m << (e - base) if e >= base else m >> (base - e)
                    for m, e in terms)
        q = (total << bits) // n
        cut = q.bit_length() - bits
        mant.append(q >> cut)
        expo.append(base - bits + cut)
    return mant, expo


@pytest.mark.parametrize("name", KERNEL_WEIGHTS)
def test_kernel_matches_mpmath_recurrence(name):
    # the reference is int_h_table, at 256 bits per row; it matches a
    # 40-digit mpmath recurrence to ~1e-40 on these weights
    w, n_max = KERNEL_WEIGHTS[name], 1500
    tab = cw.build_h_table(w, n_max)
    ref_mant, ref_expo = int_h_table(w, n_max)
    zero = [x == 0 for x in ref_mant]
    assert np.array_equal(tab.mant == 0, zero)
    worst = 0.0
    for m in range(n_max + 1):
        if not zero[m]:
            ratio = math.ldexp(float(tab.mant[m]) / float(ref_mant[m]),
                               int(tab.expo[m]) - ref_expo[m])
            worst = max(worst, abs(ratio - 1))
    assert worst <= 1e-12


def test_kernel_full_sum_residual_alpha3():
    tab = cw.build_h_table(cw.polynomial(3.0), 20000)
    rows = np.random.default_rng(5).choice(np.arange(1, 20001), 200, replace=False)
    assert max(tab.recurrence_residuals(rows)) <= 1e-12


@pytest.mark.parametrize("alpha,bound", [(0.5, 5.0), (0.5, 4.25), (1.0, 3.0)])
def test_build_working_memory_follows_the_table(alpha, bound):
    # the build's traced peak over the table's bytes at n = 1e5 was 4.43
    # (alpha 0.5) and 2.72 (alpha 1) when the bounds 5.0 and 3.0 were set,
    # and 4.10 at alpha 0.5 once each block let go of its history after its
    # transform (the bound 4.25); one window-cut array as long as the
    # table, kept through each block, reads 3.71 at alpha 1
    # (tools/mutants.py build-keeps-window-arrays)
    w = cw.polynomial(alpha)
    cw.build_h_table(w, 100)  # first calls outside the trace
    tracemalloc.start()
    try:
        tab = cw.build_h_table(w, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * (tab.mant.nbytes + tab.expo.nbytes)


def row_by_row_solve(cross, u, s):
    """Reference for oracle._leaf_solve: the block recurrence
    (s+i) y_i = cross_i + sum_{k=1}^{i} u_k y_{i-k}, one row at a time."""
    y = np.empty(len(cross))
    for i in range(len(cross)):
        y[i] = (cross[i] + np.dot(u[i:0:-1], y[:i])) / (s + i)
    return y


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("B", [1, 2, 15, 16, 17, 33, 4096])
def test_leaf_solve_matches_row_recurrence(B, sparse):
    # random nonnegative inputs with zeros; the sparse case feeds and
    # couples only rows that are multiples of 7, so zero runs cross leaves
    rng = np.random.default_rng(B)
    for s in (1, 2, 17, 1000, 10**5):
        cross = rng.random(B) * (rng.random(B) < 0.7)
        u = 3.0 * rng.random(B + 3) * (rng.random(B + 3) < 0.7)
        if sparse:
            cross[np.arange(B) % 7 != 0] = 0.0
            u[np.arange(B + 3) % 7 != 0] = 0.0
        want = row_by_row_solve(cross, u, s)
        got = oracle._leaf_solve(cross, u, s)
        assert np.all(np.isfinite(want))
        assert np.array_equal(got == 0, want == 0)
        nz = want != 0
        assert np.all(np.abs(got[nz] / want[nz] - 1) <= 1e-13)


@pytest.mark.parametrize("gap", [16, 17])
def test_gap_table_closed_form(gap):
    # theta_gap = 1 only: h = exp(t^gap / gap), so h_{gap*j} = gap^-j / j!
    # and every other row is exactly 0; at gap 17 the zero runs straddle
    # leaf and block boundaries
    n_max = 20000
    tab = cw.build_h_table(cw.table([0.0] * (gap - 1) + [1.0, 0.0]), n_max)
    assert np.array_equal(tab.mant == 0, np.arange(n_max + 1) % gap != 0)
    worst = 0.0
    with mpmath.workdps(30):
        for j in range(n_max // gap + 1):
            want = mpmath.mpf(gap) ** -j / mpmath.factorial(j)
            got = mpmath.ldexp(mpmath.mpf(float(tab.mant[gap * j])),
                               int(tab.expo[gap * j]))
            worst = max(worst, float(abs(got / want - 1)))
    assert worst <= 1e-12


def test_block_solve_has_no_per_row_calls(monkeypatch):
    # numpy calls of one n = 2*10^4 build, counted rather than timed: each
    # block takes W - 1 products to invert its leaves of W = min(_LEAF, B)
    # rows, and one correlation per leaf after its first
    calls = collections.Counter()
    blocks = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    leaf_solve = oracle._leaf_solve

    def solve(cross, u, s):
        blocks.append(len(cross))
        return leaf_solve(cross, u, s)

    monkeypatch.setattr(oracle, "_leaf_solve", solve)
    monkeypatch.setattr(np, "dot", counted("dot", np.dot))
    monkeypatch.setattr(np, "correlate", counted("correlate", np.correlate))
    cw.build_h_table(cw.polynomial(1.0), 20000)
    assert sum(blocks) == 20000
    widths = [min(oracle._LEAF, B) for B in blocks]
    assert calls["dot"] == sum(W - 1 for W in widths)
    assert calls["correlate"] == sum(-(-B // W) - 1 for B, W in zip(blocks, widths))
    assert calls["dot"] + calls["correlate"] <= 20000 // 8


def ldexp_scaled_dot(coef, mant, expo):
    """_scaled_dot by np.ldexp, with terms 1100 binary orders below the
    largest set to zero."""
    cm, ce = np.frexp(coef)
    m = cm * mant
    ex = ce + expo
    nz = m != 0.0
    if not np.any(nz):
        return 0.0, 0
    top = int(np.max(ex[nz]))
    return float(np.sum(np.ldexp(m, np.maximum(ex - top, -1100)))), top


def scaled_dot(coef, mant, expo):
    return oracle._scaled_dot(*oracle._split(coef), mant, expo)


def test_scaled_dot_matches_ldexp():
    rng = np.random.default_rng(11)
    for size in (1, 2, 7, 100, 3000):
        for spread in (0, 60, 1000, 1100, 1200, 5000):
            coef = rng.random(size) * 2.0 ** rng.integers(-40, 40, size)
            coef[rng.random(size) < 0.2] = 0.0
            mant = 1.0 + rng.random(size)
            mant[rng.random(size) < 0.2] = 0.0
            expo = rng.integers(-spread, spread + 1, size)
            assert scaled_dot(coef, mant, expo) == \
                ldexp_scaled_dot(coef, mant, expo)
    # zero terms above the top term, and a top term over a subnormal tail
    coef = np.array([1.0, 0.0, 3.0, 1.5, 0.0])
    mant = np.array([1.5, 1.25, 0.0, 1.0, 1.75])
    for expo in ([0, 5000, 9000, -1030, 10], [0, -1022, 0, -1070, 2000]):
        expo = np.array(expo)
        assert scaled_dot(coef, mant, expo) == \
            ldexp_scaled_dot(coef, mant, expo)
    assert scaled_dot(coef[1:3], mant[1:3], np.array([7, 9])) == (0.0, 0)
    # recurrence sums of a table reaching 2^5052: every row to 5000 (spreads
    # past 1100 binary orders from row 2645 on), then every 50th
    tab = cw.build_h_table(cw.polynomial(3.0), 20000)
    theta = weights.theta_array(tab.weight, tab.n_max)
    for n in [*range(5001), *range(5001, tab.n_max + 1, 50)]:
        args = theta[:n + 1], tab.mant[n::-1], tab.expo[n::-1]
        assert scaled_dot(*args) == ldexp_scaled_dot(*args)


def test_log_array_zero_rows():
    tab = cw.build_h_table(cw.table([0.0, 1.0]), 10)
    logs = tab.log_array()
    assert logs[1] == -math.inf and tab.mant[1] == 0.0
    assert logs[2] == pytest.approx(math.log(0.5), abs=1e-15)


def test_series_identity_vs_table():
    # [t^n] exp(g) via the tilt-free MGF numerator equals the table entry
    w = cw.polynomial(1.5)
    tab = cw.build_h_table(w, 200)
    assert cw.mgf_series(w, 200, 1, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert tab.log_array()[200] > 0  # sanity: entries grow


def test_statistic_pmfs():
    w = cw.polynomial(1.0)
    l1 = cw.exact_statistic_pmf(w, 3, "L1")
    assert l1 == pytest.approx({1: 1 / 13, 2: 6 / 13, 3: 6 / 13})
    tail = cw.exact_statistic_pmf(w, 3, "tail_count", x=2)
    assert tail == pytest.approx({0: 1 / 13, 1: 12 / 13})
    assert cw.exact_statistic_pmf(w, 1, "L1") == {1: pytest.approx(1.0)}
    total = cw.exact_statistic_pmf(w, 4, "total_cycles")
    assert sum(total.values()) == pytest.approx(1.0, abs=1e-12)


def test_mgf_trivial_cases():
    w = cw.polynomial(1.0)
    assert cw.mgf_series(w, 5, 2, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert cw.mgf_series(w, 5, 9, 1.3) == pytest.approx(1.0, abs=1e-12)


def test_mgf_example():
    w = cw.polynomial(1.0)
    got = cw.mgf_series(w, 3, 2, math.log(2))
    assert got == pytest.approx(25 / 13, abs=1e-12)


@pytest.mark.parametrize("n", [3, 6, 10, 12])
@pytest.mark.parametrize("s", [-1.0, 0.5, 1.0])
def test_mgf_matches_enumeration(n, s):
    w = cw.polynomial(2.0)
    for x in (1, 2, 3, n / 2):
        series = cw.mgf_series(w, n, x, s)
        enum = sum(math.exp(s * tail_count(ct, x)) * p
                   for ct, p in cw.enumerate_cycle_types(w, n))
        assert series == pytest.approx(enum, abs=1e-10 * max(1.0, enum))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_mgf_series_slope_matches_tail_count_mean(alpha):
    # the central difference of the MGF at s = 0 is the mean up to
    # O(s^2); n = 2000 is past the old series cap of 220
    w = cw.polynomial(alpha)
    n, s = 2000, 1e-3
    tab = cw.build_h_table(w, n)
    sd = cw.solve_saddle(w, n)
    for y in (0.5, 2.0):
        x = cw.threshold_x(sd, y)
        slope = (cw.mgf_series(w, n, x, s)
                 - cw.mgf_series(w, n, x, -s)) / (2 * s)
        assert slope == pytest.approx(oracle.tail_count_mean(tab, n, x),
                                      rel=1e-4)


def test_corollary_bound():
    lhs, rhs, holds = cw.corollary_bound_check(cw.polynomial(1.0), 50, 0.5, 2.0)
    assert holds and lhs <= rhs
    lhs, rhs, holds = cw.corollary_bound_check(cw.polynomial(2.0), 50, 0.25, 4.0)
    assert holds


def test_corollary_empty_window():
    # u,v chosen so the index window collapses: thresholds equal
    lhs, rhs, holds = cw.corollary_bound_check(cw.polynomial(1.0), 30, 0.7,
                                               0.7000000001)
    assert lhs == 0.0 and holds


def test_corollary_rejects_zero_growth_weights():
    # Ewens weights have no ell_n, so the window x_{n,v} <= k < x_{n,u} is
    # undefined
    with pytest.raises(ValueError, match="ewens"):
        cw.corollary_bound_check(cw.ewens(1.0), 31, 0.5, 2.0)


def test_corollary_zero_row():
    # theta_k = 0 for k < 10, so h_5 = 0 and every series term vanishes
    w = cw.table([0.0] * 9 + [1.0, 2.0])
    assert cw.build_h_table(w, 5).mant[5] == 0.0
    assert cw.corollary_bound_check(w, 5, 0.5, 2.0) == (0.0, 0.0, True)


def test_htable_cache_roundtrip(tmp_path):
    w = cw.polynomial(1.0)
    tab = cw.build_h_table(w, 300)
    path = str(tmp_path / "t.cwht")
    tab.save(path)
    loaded = cw.HTable.load(path, w)
    assert loaded.n_max == 300
    assert np.array_equal(loaded.mant, tab.mant)
    assert np.array_equal(loaded.expo, tab.expo)


def test_htable_cache_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.cwht"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        cw.HTable.load(str(path), cw.polynomial(1.0))


def test_htable_cache_rejects_wrong_family(tmp_path):
    tab = cw.build_h_table(cw.polynomial(1.0), 50)
    path = str(tmp_path / "t.cwht")
    tab.save(path)
    with pytest.raises(ValueError):
        cw.HTable.load(path, cw.ewens(1.0))


def test_htable_cache_detects_corruption(tmp_path):
    # every even row times 1.25 before saving, each mantissa kept in
    # [1, 2): only the sampled residuals can see it
    tab = cw.build_h_table(cw.polynomial(1.0), 200)
    path = str(tmp_path / "t.cwht")
    m, e = np.frexp(tab.mant[2::2] * 1.25)
    tab.mant[2::2], tab.expo[2::2] = 2.0 * m, tab.expo[2::2] + e - 1
    tab.save(path)
    with pytest.raises(ValueError, match="residual"):
        cw.HTable.load(path, cw.polynomial(1.0))


def test_htable_cache_rejects_other_table(tmp_path):
    tab = cw.build_h_table(cw.table([1.0, 2.0, 3.0]), 100)
    path = str(tmp_path / "t.cwht")
    tab.save(path)
    with pytest.raises(ValueError, match="other weights"):
        cw.HTable.load(path, cw.table([1.0, 5.0, 3.0]))
    assert cw.HTable.load(path, cw.table([1.0, 2.0, 3.0])).n_max == 100


@pytest.mark.parametrize("row", [0, 51, -1, 1.5])
def test_recurrence_residuals_refuse_rows_outside_the_table(row):
    # unchecked, row 0 divides by zero, 51 indexes past the table, -1
    # fails to broadcast and 1.5 is read as row 1
    tab = cw.build_h_table(cw.polynomial(1.0), 50)
    with pytest.raises(oracle.CapacityError,
                       match=re.escape(f"n={row} outside table range 1..50")):
        tab.recurrence_residuals([1, row])


@pytest.mark.parametrize("sha2", ["builtin", "hashlib"])
@pytest.mark.parametrize("w, data", [
    (cw.polynomial(1.0), b"polynomial" + struct.pack("<d", 1.0)),
    (cw.ewens(0.3), b"ewens" + struct.pack("<d", 0.3)),
    (cw.table([1, 0, 0, 1]), b"table" + struct.pack("<4d", 1, 0, 0, 1))],
    ids=["poly1", "ewens0.3", "table1001"])
def test_weight_digest_is_sha256_of_family_and_parameters(w, data, sha2,
                                                          monkeypatch):
    # the cache's file names and headers carry it: CPython's own SHA-256
    # and hashlib's fallback, taken where neither _sha2 nor _sha256
    # imports, give hashlib.sha256's bytes
    if sha2 == "hashlib":
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
    assert oracle._weight_digest(w) == hashlib.sha256(data).digest()


@pytest.mark.parametrize("n_max", [0, 1, 2, 99, 199, 200, 2000, 12345,
                                   10**6])
def test_residual_rows_spread_one_per_stratum(n_max):
    # max(1, n_max // 100) rows (all of them below), one in each stratum
    # of 1..n_max, the same at every call
    rows = oracle.residual_rows(n_max).tolist()
    k = min(max(1, n_max // 100), n_max)
    assert len(rows) == k
    edges = [1 + i * n_max // max(k, 1) for i in range(k + 1)]
    assert all(lo <= r < hi for r, lo, hi in zip(rows, edges, edges[1:]))
    assert oracle.residual_rows(n_max).tolist() == rows
    if n_max == 2000:
        assert rows[:3] == [70, 143, 213]


def test_htable_cache_rejects_truncated(tmp_path):
    path = tmp_path / "t.cwht"
    cw.build_h_table(cw.polynomial(1.0), 253).save(str(path))
    path.write_bytes(path.read_bytes()[:-53 * 16])
    with pytest.raises(ValueError, match=r"254 rows.* 201") as err:
        cw.HTable.load(str(path), cw.polynomial(1.0))
    assert str(path) in str(err.value)


def test_cycle_type_invariant():
    with pytest.raises(ValueError):
        oracle.CycleType.from_dict({2: 1, 3: 1}, 6)
    ct = oracle.CycleType.from_dict({2: 1, 3: 2}, 8)
    assert ct.counts == ((2, 1), (3, 2))
    assert ct.num_cycles() == 3
    assert tail_count(ct, 3) == 2


def test_cycle_type_from_dict_round_trips():
    for counts, n in (({1: 1}, 1), ({1: 4, 5: 1, 7: 2}, 23), ({6: 1}, 6),
                      ({2: 0, 3: 2}, 6)):
        ct = oracle.CycleType.from_dict(counts, n)
        cols, start, end = ct
        assert (start, end) == (0, len(cols.m)) and cols.n == ct.n == n
        assert ct.counts == tuple(sorted((m, c) for m, c in counts.items()
                                         if c))
        assert oracle.CycleType.from_dict(dict(ct.counts), n).counts == \
            ct.counts


# table([0, 1, 0]) allows 2-cycles only: h_5 = 0, so size 5 has no law
ZERO_ROW = r"h_5 = 0 for .*'table'"


def test_enumerate_zero_row_is_rejected():
    with pytest.raises(ValueError, match=ZERO_ROW):
        cw.enumerate_cycle_types(cw.table([0, 1, 0]), 5)


def test_statistic_pmf_zero_row_is_rejected():
    with pytest.raises(ValueError, match=ZERO_ROW):
        cw.exact_statistic_pmf(cw.table([0, 1, 0]), 5, "L1")


def test_mgf_series_zero_row_is_rejected():
    with pytest.raises(ValueError, match=ZERO_ROW):
        cw.mgf_series(cw.table([0, 1, 0]), 5, 2, 0.3)


@pytest.mark.parametrize("w", [cw.polynomial(0.5), cw.polynomial(3.0),
                               cw.ewens(2.0), cw.table([1, 0, 0, 1])])
def test_finite_n_laws_match_enumeration(w):
    # E[#cycles >= x] and P(L1 <= x) from the table against enumeration
    n = 24
    tab = cw.build_h_table(w, n)
    types = cw.enumerate_cycle_types(w, n)
    for x in (0, 1, 2.5, 7, 24, 25):
        mean = sum(p * tail_count(ct, x) for ct, p in types)
        assert oracle.tail_count_mean(tab, n, x) == pytest.approx(mean, rel=1e-12,
                                                                  abs=1e-15)
        cdf = sum(p for ct, p in types if ct.counts[-1][0] <= x)
        assert oracle.longest_cycle_cdf(tab, n, x) == pytest.approx(cdf, rel=1e-12,
                                                                    abs=1e-15)


def test_tail_count_mean_matches_exact_sum_of_rows():
    # against the exact rational sum of the same table rows: a sum of
    # nonnegative terms keeps a relative error of order n * eps
    w = cw.polynomial(3.0)
    n = 3000
    tab = cw.build_h_table(w, n)
    sd = cw.solve_saddle(w, n)
    theta = weights.theta_array(w, n)

    def row(j):
        return Fraction(float(tab.mant[j])) * Fraction(2) ** int(tab.expo[j])

    for y in (0.5, 1.0, 2.0):
        x = cw.threshold_x(sd, y)
        exact = sum(Fraction(float(theta[k])) / k * row(n - k)
                    for k in range(math.ceil(x), n + 1)) / row(n)
        got = Fraction(oracle.tail_count_mean(tab, n, x))
        assert abs(got / exact - 1) <= 1e-14


def test_finite_n_laws_desk(htable_desk):
    # the desk table: 141.1729 cycles expected; no cycle exceeds n
    assert oracle.tail_count_mean(htable_desk, 20000, 1) == pytest.approx(
        141.1729, abs=1e-4)
    assert oracle.longest_cycle_cdf(htable_desk, 20000, 20000) == 1.0
    w = cw.table([0, 1, 0])
    with pytest.raises(ValueError, match=ZERO_ROW):
        oracle.tail_count_mean(cw.build_h_table(w, 5), 5, 1)
    with pytest.raises(ValueError, match=ZERO_ROW):
        oracle.longest_cycle_cdf(cw.build_h_table(w, 5), 5, 1)


@pytest.mark.parametrize("w", [cw.polynomial(0.5), cw.polynomial(3.0),
                               cw.table([0, 1, 0, 2])])
def test_longest_cycle_cdf_upper_half_needs_no_table(w, monkeypatch):
    # x >= n/2 leaves room for one cycle longer than x: P(L1 <= x) is
    # 1 - E[#cycles > x], from the table as it is
    n = 20
    pmf = cw.exact_statistic_pmf(w, n, "L1")
    tab = cw.build_h_table(w, 3 * n)
    monkeypatch.setattr(oracle, "exp_coefficients", None)  # any build fails
    for x in range(n // 2, n):
        cdf = sum(p for m, p in pmf.items() if m <= x)
        assert oracle.longest_cycle_cdf(tab, n, x) == pytest.approx(
            cdf, rel=1e-14, abs=1e-15)


def test_longest_cycle_cdf_at_most_one():
    # the ratio of a restricted table to a larger table's h_500 read
    # 1.0000000000000009 here
    tab = cw.build_h_table(cw.polynomial(3.0), 1000)
    assert oracle.longest_cycle_cdf(tab, 500, 499) == 1.0
    # below n/2 a restricted table is divided by h_n from a build to the
    # same n; a larger table's h_n gave 1.0000000000000009, ...0002 and
    # ...0506 in turn
    assert oracle.longest_cycle_cdf(tab, 500, 166) == 1.0
    assert oracle.longest_cycle_cdf(tab, 999, 333) == 1.0
    tab = cw.build_h_table(cw.table([1, 1, 0]), 3000)  # no cycle above 2
    assert oracle.longest_cycle_cdf(tab, 2999, 2) == 1.0


def test_longest_cycle_cdf_ends_need_no_table(monkeypatch):
    tab = cw.build_h_table(cw.polynomial(1.0), 50)
    assert oracle.longest_cycle_cdf(tab, 30, 30) == 1.0  # the built value
    monkeypatch.setattr(oracle, "exp_coefficients", None)  # any build fails
    for x in (30, 30.5, 1e9, math.inf):
        assert oracle.longest_cycle_cdf(tab, 30, x) == 1.0
    for x in (0.999, 0, -3, -math.inf):
        assert oracle.longest_cycle_cdf(tab, 30, x) == 0.0
    with pytest.raises(ValueError):
        oracle.longest_cycle_cdf(tab, 30, math.nan)


# SHA-256 of mant.tobytes() + expo.tobytes() of build_h_table(w, n), and the
# fewest rows the exact fallback must sum (the table's 12 at the time of
# writing: its zero weights leave rows the FFT cannot resolve)
H_GOLDEN = [
    (cw.polynomial(0.5), 20000, 0,
     "54b9e72e04ddbab2fd8d2aa5944adf94be1ea10a81f5fc3f0fd4832f68f1645e"),
    (cw.polynomial(1.0), 20000, 0,
     "6a92e2d455e3bea04db094e4f53c3a71258268e2537470ced85ceb73c35650d7"),
    (cw.polynomial(3.0), 20000, 0,
     "4fc342e1c15c403075d27a58ab3bb9227032d96ac594d6c060f819fe5b07ac04"),
    (cw.ewens(0.3), 5000, 0,
     "6508ff7158c3986e1189fe293d3ddabf36a2f1244804945229777ea81531f724"),
    (cw.table([1, 0, 0, 1]), 3000, 1,
     "6ac878bbe797ee6e4a45e4731a96a611d56d01277b13b00468462fd6f656335f"),
]


@pytest.mark.parametrize("w,n,fallback,digest", H_GOLDEN,
                         ids=["poly0.5", "poly1", "poly3", "ewens0.3",
                              "table1001"])
def test_h_table_golden(w, n, fallback, digest, monkeypatch):
    # the kernel's bytes, pinned: a build calls _scaled_dot once per row
    # of the exact fallback and nowhere else
    dot, rows = oracle._scaled_dot, []

    def counted(*args):
        rows.append(args)
        return dot(*args)
    monkeypatch.setattr(oracle, "_scaled_dot", counted)
    tab = cw.build_h_table(w, n)
    assert len(rows) >= fallback
    assert hashlib.sha256(tab.mant.tobytes()
                          + tab.expo.tobytes()).hexdigest() == digest



POLY1 = weights.polynomial(1.0)


def _load_cache(path, head):
    """HTable.load of a file holding the magic, then head."""
    path.write_bytes(oracle._MAGIC + head)
    return oracle.HTable.load(str(path), POLY1)


@pytest.mark.parametrize("call, error, named", [
    (lambda tmp: _load_cache(tmp / "short.cwht", b"\0" * 9),
     ValueError, "short.cwht: truncated"),
    (lambda tmp: _load_cache(tmp / "v7.cwht", oracle._HEADER.pack(
        7, oracle._weight_digest(POLY1), 0)),
     ValueError, "unsupported cache version 7"),
    (lambda tmp: oracle.build_h_table(POLY1, -1), ValueError, "got -1"),
    (lambda tmp: oracle.mgf_series(POLY1, 10, -0.5, 0.1),
     ValueError, "got -0.5"),
    (lambda tmp: oracle.corollary_bound_check(POLY1, 50, 0.5, 0.5),
     ValueError, "u=0.5, v=0.5"),
    (lambda tmp: oracle.corollary_bound_check(POLY1, oracle.SERIES_CAP + 1,
                                              0.5, 1.0),
     oracle.CapacityError, f"n={oracle.SERIES_CAP + 1}"),
    (lambda tmp: oracle.exact_statistic_pmf(POLY1, 5, "L2"),
     ValueError, "'L2'"),
    (lambda tmp: oracle.exact_statistic_pmf(POLY1, 5, "tail_count"),
     ValueError, "tail_count needs the threshold x"),
    (lambda tmp: oracle.exact_statistic_pmf(POLY1, 0, "L1"),
     ValueError, "n must be >= 1, got 0"),
    (lambda tmp: oracle.enumerate_cycle_types(POLY1, 0),
     ValueError, "n must be >= 1, got 0"),
], ids=["load-short-header", "load-version", "table-n", "mgf-x",
        "corollary-u-v", "corollary-cap", "pmf-statistic", "pmf-no-x",
        "pmf-n-zero", "enumerate-n-zero"])
def test_bad_input_is_refused_by_name(call, error, named, tmp_path):
    with pytest.raises(error, match=named):
        call(tmp_path)
