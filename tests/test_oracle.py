import math

import mpmath
import numpy as np
import pytest

import cycleweights as cw
from cycleweights import oracle, weights


def rel_err(a_log, b_log):
    return abs(math.expm1(a_log - b_log))


def test_partitions_count():
    assert sum(1 for _ in oracle.partitions(10)) == 42
    assert list(oracle.partitions(0)) == [()]
    assert list(oracle.partitions(3)) == [(3,), (2, 1), (1, 1, 1)]


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
    assert cw.h_exact(cw.ewens(1.0), 7).to_float() == pytest.approx(1.0)
    assert cw.h_exact(cw.polynomial(1.0), 2).to_float() == pytest.approx(1.5)
    # rising factorial 2*3*4/3!
    assert cw.h_exact(cw.ewens(2.0), 3).to_float() == pytest.approx(4.0)


def test_h_table_small_values():
    tab = cw.build_h_table(cw.polynomial(1.0), 3)
    vals = [tab.value(i).to_float() for i in range(4)]
    assert vals == pytest.approx([1.0, 1.0, 1.5, 13 / 6])


def test_h_table_ewens_closed_forms():
    tab1 = cw.build_h_table(cw.ewens(1.0), 20)
    tab2 = cw.build_h_table(cw.ewens(2.0), 20)
    for n in range(21):
        assert tab1.value(n).to_float() == pytest.approx(1.0, rel=1e-12)
        assert tab2.value(n).to_float() == pytest.approx(n + 1, rel=1e-12)


@pytest.mark.parametrize("w", [cw.polynomial(1.0), cw.polynomial(2.0),
                               cw.ewens(2.0)])
def test_recurrence_matches_enumeration(w):
    tab = cw.build_h_table(w, 20)
    for n in range(1, 21):
        assert rel_err(tab.value(n).log(), cw.h_exact(w, n).log()) < 1e-10


def test_recurrence_residual_invariant(htable_2000):
    for n in (1, 17, 500, 2000):
        assert htable_2000.recurrence_residual(n) < 1e-10


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


def mp_h_table(w, n_max):
    """h_0..h_n_max from the plain O(n^2) recurrence at 40 digits."""
    with mpmath.workdps(40):
        theta = [mpmath.mpf(float(t)) for t in weights.theta_array(w, n_max)]
        h = [mpmath.mpf(1)]
        for n in range(1, n_max + 1):
            h.append(mpmath.fdot(theta[1:n + 1], h[::-1]) / n)
    return h


@pytest.mark.parametrize("name", KERNEL_WEIGHTS)
def test_kernel_matches_mpmath_recurrence(name):
    w, n_max = KERNEL_WEIGHTS[name], 1500
    tab = cw.build_h_table(w, n_max)
    ref = mp_h_table(w, n_max)
    zero = [x == 0 for x in ref]
    assert np.array_equal(tab.mant == 0, zero)
    worst = 0.0
    with mpmath.workdps(40):
        for m in range(n_max + 1):
            if not zero[m]:
                got = mpmath.ldexp(mpmath.mpf(float(tab.mant[m])), int(tab.expo[m]))
                worst = max(worst, float(abs(got / ref[m] - 1)))
    assert worst <= 1e-12


def test_kernel_full_sum_residual_alpha3():
    tab = cw.build_h_table(cw.polynomial(3.0), 20000)
    theta = weights.theta_array(tab.weight, tab.n_max)
    rows = np.random.default_rng(5).choice(np.arange(1, 20001), 200, replace=False)
    assert max(tab.recurrence_residual(int(n), theta) for n in rows) <= 1e-12


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
    assert tab.value(200).log() > 0  # sanity: entries grow


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
        enum = sum(math.exp(s * ct.tail_count(x)) * p
                   for ct, p in cw.enumerate_cycle_types(w, n))
        assert series == pytest.approx(enum, abs=1e-10 * max(1.0, enum))


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
    tab = cw.build_h_table(cw.polynomial(1.0), 200)
    path = str(tmp_path / "t.cwht")
    tab.mant[2::2] *= 1.25  # corrupt entries before saving
    tab.save(path)
    with pytest.raises(ValueError, match="residual"):
        cw.HTable.load(path, cw.polynomial(1.0), rng_seed=123)


def test_htable_cache_rejects_other_table(tmp_path):
    tab = cw.build_h_table(cw.table([1.0, 2.0, 3.0]), 100)
    path = str(tmp_path / "t.cwht")
    tab.save(path)
    for seed in range(20):
        with pytest.raises(ValueError, match="other weights"):
            cw.HTable.load(path, cw.table([1.0, 5.0, 3.0]), rng_seed=seed)
    assert cw.HTable.load(path, cw.table([1.0, 2.0, 3.0])).n_max == 100


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
    assert ct.lengths_desc() == [3, 3, 2]
    assert ct.num_cycles() == 3
    assert ct.tail_count(3) == 2
