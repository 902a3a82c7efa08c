import math
import re

import numpy as np
import pytest

from cycleweights import weights


def test_theta_polynomial():
    w = weights.polynomial(1.0)
    assert weights.theta_array(w, 7)[7] == 7.0
    assert weights.theta_log_range(w, 7, 7)[0] == pytest.approx(math.log(7))


def test_theta_ewens_constant():
    w = weights.ewens(2.0)
    assert weights.theta_array(w, 100)[100] == 2.0
    assert weights.theta_array(w, 1)[1] == 2.0
    assert weights.theta_log_range(w, 100, 100)[0] == math.log(2.0)


def test_theta_fractional_alpha():
    w = weights.polynomial(2.5)
    value = weights.theta_array(w, 4)[4]
    log_value = weights.theta_log_range(w, 4, 4)[0]
    assert value == pytest.approx(32.0, rel=1e-14)
    assert log_value == pytest.approx(2.5 * math.log(4), rel=1e-14)
    assert math.exp(log_value) == pytest.approx(value, rel=1e-14)


def test_theta_large_k_log_space():
    w = weights.polynomial(5.0)
    log_value = weights.theta_log_range(w, 10**7, 10**7)[0]
    assert log_value == pytest.approx(5.0 * math.log(10**7))
    assert math.exp(log_value) == pytest.approx(1e35)
    # past float range the log stays finite and usable
    w = weights.polynomial(50.0)
    assert weights.theta_log_range(w, 10**7, 10**7)[0] == pytest.approx(
        50.0 * math.log(10**7))


def test_table_family_extension():
    # last-ratio extrapolation: 2,4 has ratio fit alpha = 1
    w = weights.table([2.0, 4.0])
    theta = weights.theta_array(w, 4)
    assert theta[1] == 2.0
    assert theta[2] == 4.0
    assert theta[4] == pytest.approx(8.0, rel=1e-12)
    assert math.exp(weights.theta_log_range(w, 4, 4)[0]) == pytest.approx(
        8.0, rel=1e-12)


def test_g_partial_ewens_closed_form():
    value, K, tail = weights.g_theta_partial(weights.ewens(1.0), 0.5, 1e-12)
    assert value == pytest.approx(-math.log(0.5), abs=1e-11)
    assert tail <= 1e-12


def test_g_partial_polynomial_closed_form():
    # alpha=1: sum t^k = t/(1-t)
    for t in [0.1 * i for i in range(1, 10)]:
        value, _, _ = weights.g_theta_partial(weights.polynomial(1.0), t, 1e-12)
        assert value == pytest.approx(t / (1 - t), abs=1e-10)


def test_g_partial_zero():
    value, K, tail = weights.g_theta_partial(weights.polynomial(2.0), 0.0, 1e-12)
    assert (value, K, tail) == (0.0, 0, 0.0)


def test_g_partial_domain():
    with pytest.raises(ValueError):
        weights.g_theta_partial(weights.polynomial(1.0), 1.0, 1e-12)
    with pytest.raises(ValueError):
        weights.g_theta_partial(weights.polynomial(1.0), 0.5, -1.0)
    # the certified tail is ~2^-53 of g(0.5) = 1, above this eps
    with pytest.raises(ValueError, match="exceeds eps"):
        weights.g_theta_partial(weights.polynomial(1.0), 0.5, 1e-300)


def test_g_partial_monotone_in_t():
    w = weights.polynomial(0.5)
    prev = -1.0
    for t in [0.0, 0.2, 0.4, 0.6, 0.8, 0.9]:
        value, _, _ = weights.g_theta_partial(w, t, 1e-12)
        assert value >= prev
        prev = value


def test_tail_certification():
    # refining eps by 100x moves the value by less than the reported bound
    w = weights.polynomial(2.0)
    v1, _, tail1 = weights.g_theta_partial(w, 0.8, 1e-8)
    v2, _, _ = weights.g_theta_partial(w, 0.8, 1e-10)
    assert abs(v2 - v1) <= tail1


@pytest.mark.parametrize("values", [[0, 1], [1, 0, 0, 1], [1, 0, 1, 0, 3],
                                    [1] + [0] * 9 + [1]])
@pytest.mark.parametrize("t", [0.3, 0.5])
def test_g_partial_table_with_zeros(values, t):
    # the geometric tail bound only holds past the table's last entry
    w = weights.table(values)
    value, K, tail = weights.g_theta_partial(w, t, 1e-13)
    theta = weights.theta_array(w, 400)
    direct = math.fsum(float(theta[k]) / k * t ** k for k in range(1, 401))
    assert abs(value - direct) <= tail + 1e-15
    assert K >= len(values)


FAMILIES = {"poly0.05": weights.polynomial(0.05),
            "poly0.5": weights.polynomial(0.5),
            "poly1": weights.polynomial(1.0),
            "poly3": weights.polynomial(3.0),
            "ewens2": weights.ewens(2.0),
            "table24": weights.table([2.0, 4.0]),
            "table1001": weights.table([1, 0, 0, 1])}


# ln theta_k in closed form: alpha ln k, ln vartheta, ln 2k for table([2, 4])
# (fitted alpha 1), and 0 past k = 4 for table([1, 0, 0, 1]) (fitted alpha 0)
CLOSED_FORMS = {
    **{w: (lambda k, a=w.alpha: a * math.log(k))
       for w in FAMILIES.values() if w.family == weights.POLYNOMIAL},
    FAMILIES["ewens2"]: lambda k: math.log(2.0),
    FAMILIES["table24"]: lambda k: math.log(2.0 * k),
    FAMILIES["table1001"]: lambda k: 0.0 if k in (1, 4) or k > 4 else -math.inf,
}


@pytest.mark.parametrize("w", FAMILIES.values(), ids=FAMILIES.keys())
def test_theta_log_range_matches_array(w):
    hi = 300
    full = weights.theta_log_array(w, hi)
    assert full[0] == -math.inf
    for lo in (1, 2, 3, 4, 5, 100):
        assert np.array_equal(weights.theta_log_range(w, lo, hi), full[lo:])
    if w.family != weights.POLYNOMIAL:
        with np.errstate(divide="ignore"):
            assert np.array_equal(full[1:],
                                  np.log(weights.theta_array(w, hi)[1:]))
    for k in (1, 2, 4, 5, 300):
        assert full[k] == pytest.approx(CLOSED_FORMS[w](k), rel=1e-14)


def _fsum_reference(w, v, lo, hi, e):
    k = np.arange(lo, hi + 1, dtype=np.float64)
    theta = weights.theta_array(w, hi)[lo:]
    return math.fsum(theta * k ** e * np.exp(-k * v))


@pytest.mark.parametrize("w", FAMILIES.values(), ids=FAMILIES.keys())
def test_exp_sums_against_fsum(w):
    exps = (-1, 0, 1)
    # the doubling blocks and then whole chunks, and a sum of a few blocks
    for v, lo, k_range in ((2e-4, 5, (2 * weights._CHUNK, 10**6)),
                           (0.1, 3, (256, 1024))):
        got, K, _ = weights.exp_sums(w, v, lo, exps)
        assert k_range[0] < K < k_range[1]
        for e, g in zip(exps, got):
            assert g == pytest.approx(_fsum_reference(w, v, lo, K, e),
                                      rel=1e-12)


@pytest.mark.parametrize("delta", [-0.5, 0.0, 2.5])
def test_exp_sums_without_weights(delta):
    one = weights.ewens(1.0)  # theta_k = 1
    (got,), K, _ = weights.exp_sums(one, 1e-4, 1, (delta,))
    assert K > 3 * weights._CHUNK
    assert got == pytest.approx(_fsum_reference(one, 1e-4, 1, K, delta),
                                rel=1e-12)


TAIL_CASES = {**{f"poly{a}": (weights.polynomial(a), (-1, 0, 1))
                 for a in (0.05, 0.5, 1.0, 3.0, 20.0, 40.0)},
              "ewens2": (weights.ewens(2.0), (-1, 0, 1)),
              "table1001": (weights.table([1, 0, 0, 1]), (-1, 0, 1)),
              **{f"none{d}": (weights.ewens(1.0), (d,))
                 for d in (-0.5, 0.0, 2.5)}}


@pytest.mark.parametrize("v", [0.05, 10.5])
@pytest.mark.parametrize("case", TAIL_CASES.values(), ids=TAIL_CASES.keys())
def test_exp_sums_tail_bounds(case, v):
    # each certified tail covers the terms k = K+1 .. 20K and is at most
    # 2^-52 of its sum, from k = 1 and from past the largest term; 1e-12
    # is the terms' own round-off (~k v ulps)
    w, exps = case
    a = w.growth_alpha
    for lo in (1, int(2.0 * (a + 1.0) / v) + 1):
        sums, K, tails = weights.exp_sums(w, v, lo, exps)
        assert K >= lo
        for e, s, tail in zip(exps, sums, tails):
            gap = _fsum_reference(w, v, K + 1, 20 * K, e)
            assert gap <= tail * (1.0 + 1e-12), (lo, e)
            assert tail <= 2.0 ** -52 * abs(s), (lo, e)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_polynomial_rejects_non_finite_alpha(bad):
    with pytest.raises(ValueError, match="alpha"):
        weights.polynomial(bad)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_ewens_rejects_non_finite_vartheta(bad):
    with pytest.raises(ValueError, match="vartheta"):
        weights.ewens(bad)


def test_fit_alpha_is_not_an_argument():
    # a table's fitted exponent is computed from its values; no caller
    # can set it, so two sequences with the same parameters are equal
    with pytest.raises(TypeError, match="_fit_alpha"):
        weights.WeightSequence("polynomial", alpha=1.0, _fit_alpha=5.0)
    assert weights.table([1, 2, 4])._fit_alpha == pytest.approx(
        math.log(2) / math.log(1.5))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_table_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="values"):
        weights.table([1.0, bad, 2.0])


@pytest.mark.parametrize("call, named", [
    (lambda: weights.WeightSequence("foo"), "'foo'"),
    (lambda: weights.exp_sums(weights.ewens(1.0), 0.0, 1, (0,)), "got 0.0"),
    (lambda: weights.exp_sums(weights.polynomial(1.0), -0.5, 1, (-1, 0)),
     "got -0.5"),
], ids=["unknown-family", "exp-sums-v-zero", "exp-sums-v-negative"])
def test_bad_input_is_refused_by_name(call, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        call()
