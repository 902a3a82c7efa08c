import math
import os
import re
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

import cycleweights as cw
from cycleweights import asymptotics
from cycleweights.cli import run_command
from cycleweights.weights import exp_sums, g_theta_partial, theta_log_range


# closed form for alpha=1, n=100: sum k x^k = x/(1-x)^2 = 100 is a
# quadratic in x = e^-v
V100_CLOSED = -math.log((201 - math.sqrt(401)) / 200)


def test_saddle_alpha1_closed_form():
    sd = cw.solve_saddle(cw.polynomial(1.0), 100)
    assert sd.v_n == pytest.approx(V100_CLOSED, abs=1e-8)
    assert abs(sd.v_n - 0.1) / 0.1 < 0.005  # asymptotic initial value
    assert sd.n_star == pytest.approx(1.0 / sd.v_n)
    assert sd.r_n == pytest.approx(math.exp(-sd.v_n))


def test_saddle_ewens_n1():
    sd = cw.solve_saddle(cw.ewens(1.0), 1)
    assert sd.v_n == pytest.approx(math.log(2), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("n", [100, 1000, 10000, 100000])
def test_saddle_residual_invariant(alpha, n):
    sd = cw.solve_saddle(cw.polynomial(alpha), n)
    assert sd.residual <= 1e-9
    assert 0.0 < sd.r_n < 1.0
    band = sd.b_n / (math.gamma(alpha + 2) * sd.n_star ** (alpha + 2))
    if n >= 100:
        assert 0.5 <= band <= 2.0


def test_saddle_small_alpha_bounded_memory():
    # K = 60/v_n is 3.2e7 terms here; the sums must not hold them at once
    tracemalloc.start()
    try:
        sd = cw.solve_saddle(cw.polynomial(0.05), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sd.truncation_K > 3 * 10**7
    assert peak < 64 * 2**20
    with mpmath.workdps(30):
        root = mpmath.findroot(
            lambda v: mpmath.polylog(-0.05, mpmath.exp(-v)) - 10**6, sd.v_n)
    assert sd.v_n == pytest.approx(float(root), rel=1e-10)


def test_bn_band_tight_at_large_n():
    sd = cw.solve_saddle(cw.polynomial(1.0), 100000)
    ratio = sd.b_n / (math.gamma(3.0) * sd.n_star ** 3)
    assert abs(ratio - 1.0) < 0.1


def test_ell_n_values():
    assert cw.ell_n(10.0, 1.0) == pytest.approx(math.log(10))
    core = 2 * math.log(50)
    assert cw.ell_n(50.0, 2.0) == pytest.approx(core + math.log(core))
    assert cw.ell_n(math.exp(2.0), 0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        cw.ell_n(1.0, 1.0)  # alpha*log(n*) = 0


def test_polylog_delta1():
    approx, direct, err = cw.polylog_asymp(1.0, 0.1)
    assert direct == pytest.approx(math.exp(-0.1) / (1 - math.exp(-0.1)) ** 2,
                                   rel=1e-12)
    assert approx == pytest.approx(100 - 1 / 12)
    # error is the v^2/240 term of 1/(4 sinh^2(v/2))
    assert err == pytest.approx(0.01 / 240, rel=0.02)
    assert err <= 0.1


def test_polylog_delta0():
    approx, direct, err = cw.polylog_asymp(0.0, 0.5)
    assert direct == pytest.approx(1 / (math.exp(0.5) - 1), rel=1e-12)
    assert approx == pytest.approx(1.5)
    assert err <= 0.5


def test_polylog_error_scales_linearly():
    ratios = []
    for v in (0.2, 0.1, 0.05):
        _, _, err = cw.polylog_asymp(1.0, v)
        ratios.append(err / v)
    assert ratios[0] >= ratios[1] >= ratios[2]


def test_polylog_rejects_negative_integers():
    with pytest.raises(ValueError):
        cw.polylog_asymp(-1.0, 0.1)
    with pytest.raises(ValueError):
        cw.polylog_asymp(-3.0, 0.1)


def test_zeta_values():
    assert asymptotics.zeta(-1.0) == pytest.approx(-1 / 12)
    assert asymptotics.zeta(0.0) == pytest.approx(-0.5)
    assert asymptotics.zeta(2.0) == pytest.approx(math.pi ** 2 / 6)
    with pytest.raises(ValueError, match="pole at 1"):
        asymptotics.zeta(1.0)


def test_newton_stops_where_its_step_vanishes(monkeypatch):
    # sums just below n with a steep derivative: the step f / sk is
    # -5e-16 v, inside the bracket and below 1e-15 v, so the solve stops
    # at the first v, with the sum's residual, where it would otherwise
    # step down by that much until its _MAX_NEWTON_ITERS steps ran out
    calls = []

    def flat(w, v, exps, zetas=None):
        calls.append(v)
        return 1000.0 * (1.0 - 1e-6), 2e12 / calls[0]

    monkeypatch.setattr(asymptotics, "_weight_sums", flat)
    sd = cw.solve_saddle(cw.polynomial(1.0), 1000)
    assert len(calls) == 1 and sd.v_n == calls[0]
    assert sd.residual == pytest.approx(1e-6)


def test_newton_without_convergence_is_a_saddle_error(monkeypatch, capsys):
    # sums that stay above n, with a step of 0.036 times the first v:
    # 200 steps stay inside the bracket (v/10, 10 v) and never vanish, so
    # after _MAX_NEWTON_ITERS steps the solve raises, and `saddle` exits 3
    calls = []

    def never(w, v, exps, zetas=None):
        calls.append(v)
        return 1001.0, 1.0 / (0.036 * calls[0])

    monkeypatch.setattr(asymptotics, "_weight_sums", never)
    with pytest.raises(asymptotics.SaddleError, match="did not converge"):
        cw.solve_saddle(cw.polynomial(1.0), 1000)
    assert len(calls) == asymptotics._MAX_NEWTON_ITERS
    assert run_command(["saddle", "--alpha", "1", "--n", "1000"]) == 3
    out, err = capsys.readouterr()
    assert err.startswith("numeric error: saddle equation did not converge")
    assert out == ""


# v over the range the `tables` saddles reach (alpha = 0.05 at n = 1e6
# down to 1.8e-6) up to the series radius
SERIES_VS = (1.8e-6, 1e-4, 3e-3, 0.05, 0.3, 1.0, 2.5, asymptotics.SERIES_RADIUS)
SERIES_ALPHAS = (0.05, 0.5, 1.0, 3.0)


def _mpmath_polylog(delta, mu):
    """sum_{k>=1} k^delta e^{k mu} to 30 digits, at the float mu exactly."""
    with mpmath.workdps(30):
        return mpmath.polylog(-delta, mpmath.exp(mpmath.mpmathify(mu)))


@pytest.mark.parametrize("alpha", SERIES_ALPHAS)
def test_polylog_series_matches_exp_sums(alpha):
    deltas = (alpha - 1.0, alpha, alpha + 1.0)
    for v in SERIES_VS:
        direct = exp_sums(cw.ewens(1.0), v, 1, deltas)[0]
        for delta, ref in zip(deltas, direct):
            value, bound = asymptotics.polylog_series(delta, -v)
            assert value == pytest.approx(ref, rel=1e-12), (delta, v)
            err = abs(value - _mpmath_polylog(delta, -v))
            assert err <= bound <= 1e-11 * abs(value), (delta, v)


# (alpha, n) of the saddle circles the series replaces the cosine scan on
CIRCLES = [(0.2, 10**5), (0.5, 10**5), (1.0, 10**5)]


def _circle(alpha, n, points):
    sd = cw.solve_saddle(cw.polynomial(alpha), n)
    phi0 = sd.v_n ** ((alpha + 2.0) / 2.0 - 0.1)
    return sd, np.linspace(phi0, math.pi, points)


@pytest.mark.parametrize("alpha,n", CIRCLES)
def test_polylog_series_on_saddle_circle(alpha, n):
    sd, phis = _circle(alpha, n, 50)
    value, bound = asymptotics.polylog_series(alpha - 1.0,
                                              -sd.v_n + 1j * phis)
    scan = asymptotics._cos_sums(cw.polynomial(alpha), sd.v_n, phis, 1,
                                 sd.truncation_K)
    assert np.max(np.abs(value.real - scan)) <= 1e-12 * abs(scan[0])
    # the bound against 30-digit polylogs at a few of those points
    for i in (0, 1, 17, 49):
        mu = complex(-sd.v_n, phis[i])
        err = abs(complex(value[i]) - _mpmath_polylog(alpha - 1.0, mu))
        assert err <= bound[i] <= 1e-11 * abs(value[i]), (alpha, phis[i])


def test_polylog_series_rejects_outside_radius():
    for mu in (-asymptotics.SERIES_RADIUS - 0.1, 0.0, 0.1 + 1j, -3.0 + 3.0j):
        with pytest.raises(ValueError, match="series"):
            asymptotics.polylog_series(0.5, mu)
    with pytest.raises(ValueError, match="negative integer"):
        asymptotics.polylog_series(-2.0, -0.5)
    for delta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"delta={delta} is not finite"):
            asymptotics.polylog_series(delta, -0.5)


def _raise(*args):
    raise AssertionError("exp_sums called on the series path")


def test_saddle_and_scan_skip_exp_sums(monkeypatch):
    monkeypatch.setattr(asymptotics, "exp_sums", _raise)
    sd = cw.solve_saddle(cw.polynomial(0.05), 10**6)
    assert sd.residual <= 1e-12
    rep = cw.admissibility_diagnostics(
        cw.solve_saddle(cw.polynomial(0.5), 10**5), 0.0, 1.0)
    assert rep.monotonicity_violations == 0


# (alpha, n): (v_n, a_n, b_n) as solved with a fresh zeta series per sum,
# and the zeta calls that solve made
SADDLE_BEFORE_SHARING = {
    (0.5, 100): (("0x1.5e56c81a717b6p-5", "0x1.8ffffffffffffp+6",
                  "0x1.b755fd782f5b5p+11"), 52),
    (4.0, 100): (("0x1.80ded52e14f97p-1", "0x1.8fffffffffffdp+6",
                  "0x1.4c91ab4bf3becp+9"), 102),
    (2.0, 300): (("0x1.81729ba7c7e3ap-3", "0x1.2c00000000000p+8",
                  "0x1.2ae014be5e0a4p+12"), 54),
    # alpha + 1 is inexact: b_n shares no zeta value with a_n
    (0.05, 100): (("0x1.8c017177333aap-7", "0x1.9000000000000p+6",
                   "0x1.10bee95d568e9p+13"), None),
}


@pytest.mark.parametrize("alpha,n", SADDLE_BEFORE_SHARING)
def test_saddle_computes_each_zeta_once(alpha, n, monkeypatch):
    args = []
    plain = asymptotics.zeta

    def counted(s):
        args.append(s)
        return plain(s)

    monkeypatch.setattr(asymptotics, "zeta", counted)
    # from an empty memo, so that the solve computes every value it reads
    asymptotics._zeta_at.cache_clear()
    w = cw.polynomial(alpha)
    sd = cw.solve_saddle(w, n)
    want, calls_before = SADDLE_BEFORE_SHARING[alpha, n]
    assert [x.hex() for x in (sd.v_n, sd.a_n, sd.b_n)] == list(want)
    assert len(set(args)) == len(args)
    if calls_before is not None:
        assert len(args) <= calls_before / 4
    # a second solve computes no zeta value, and fresh series give the same
    # sums
    again = len(args)
    assert cw.solve_saddle(w, n) == sd
    assert len(args) == again
    asymptotics._zeta_at.cache_clear()
    assert sd.a_n == float(asymptotics.polylog_series(alpha, -sd.v_n)[0])
    assert sd.b_n == float(asymptotics.polylog_series(alpha + 1.0,
                                                      -sd.v_n)[0])


# log of saddle_h_estimate(polynomial(alpha), 2e4) with a fresh zeta series
# per sum
H_ESTIMATE_BEFORE_SHARING = {0.5: "0x1.0107bf6087dc0p+6",
                             3.0: "0x1.b5be753bcd9f5p+11"}


@pytest.mark.parametrize("alpha", H_ESTIMATE_BEFORE_SHARING)
def test_h_estimate_computes_each_zeta_once(alpha, monkeypatch):
    args = []
    plain = asymptotics.zeta

    def counted(s):
        args.append(s)
        return plain(s)

    monkeypatch.setattr(asymptotics, "zeta", counted)
    asymptotics._zeta_at.cache_clear()
    w = cw.polynomial(alpha)
    cw.solve_saddle(w, 20000)
    solve = len(args)
    est, _ = cw.saddle_h_estimate(w, 20000)
    assert est.log().hex() == H_ESTIMATE_BEFORE_SHARING[alpha]
    # the estimate's solve computes nothing, and g(r)'s series adds
    # zeta(1 - alpha) to the solve's values, and no other
    assert args[solve:] == [1 - alpha]


def test_zeta_values_are_computed_once_across_n(monkeypatch):
    # the series' zeta values depend on alpha alone: solves at four n and
    # an estimate at a fifth compute no exact argument twice
    args = []
    plain = asymptotics.zeta

    def counted(s):
        args.append(s)
        return plain(s)

    monkeypatch.setattr(asymptotics, "zeta", counted)
    asymptotics._zeta_at.cache_clear()
    w = cw.polynomial(0.5)
    for n in (10**3, 10**4, 10**5, 10**6):
        cw.solve_saddle(w, n)
    cw.saddle_h_estimate(w, 20000)
    assert args and len(set(args)) == len(args)


def test_zeta_near_zero(capsys):
    # zeta(s) rounds to -1/2 for |s| < 2^-60, and mpmath gives exactly that
    # wherever it works there; it raises "zeta(1) pole" for negative s
    # closer to 0 than ~1e-220, so alpha below that could not be solved
    for s in (0.0, 2.0 ** -61, -2.0 ** -61, -2.0 ** -56, "-1e-100",
              -2.0 ** -700):
        s = mpmath.mpf(s)
        assert asymptotics.zeta(s) == float(mpmath.zeta(s)) == -0.5
    assert asymptotics.zeta(mpmath.mpf("-1e-300")) == -0.5
    v = {}
    for argv in (["--alpha", "1e-300"], ["--vartheta", "1"]):
        assert run_command(["saddle", *argv, "--n", "100"]) == 0
        out = capsys.readouterr().out
        v[argv[0]] = float(re.search(r"^v_n\s+= (\S+)$", out, re.M)[1])
    assert v["--vartheta"] == 0.0099503308531680833
    assert v["--alpha"] == pytest.approx(v["--vartheta"], abs=1e-12)


def test_mpmath_is_imported_on_first_zeta():
    # the CLI imports without mpmath; the first series solve brings it in
    # and gives the pinned sums
    src = os.path.dirname(os.path.dirname(cw.__file__))
    probe = ("import sys\n"
             "import cycleweights.cli\n"
             "print('mpmath' in sys.modules)\n"
             "import cycleweights as cw\n"
             "sd = cw.solve_saddle(cw.polynomial(0.5), 100)\n"
             "print('mpmath' in sys.modules)\n"
             "print(*(x.hex() for x in (sd.v_n, sd.a_n, sd.b_n)))\n")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    before, after, sums = out.stdout.splitlines()
    assert (before, after) == ("False", "True")
    assert sums.split() == list(SADDLE_BEFORE_SHARING[0.5, 100][0])


@pytest.mark.parametrize("vartheta", [0.3, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("n", [10, 10**3, 10**5])
def test_ewens_closed_forms(vartheta, n):
    w = cw.ewens(vartheta)
    est, sd = cw.saddle_h_estimate(w, n)
    a_n, b_n = exp_sums(w, sd.v_n, 1, (0, 1))[0]
    assert sd.a_n == pytest.approx(a_n, rel=1e-12)
    assert sd.b_n == pytest.approx(b_n, rel=1e-12)
    g_r = est.log() - (n * sd.v_n - 0.5 * math.log(2.0 * math.pi * sd.b_n))
    assert g_r == pytest.approx(g_theta_partial(w, sd.r_n, 1e-13)[0],
                                rel=1e-12)


def _sum_to_20K(w, v, lo, e):
    """sum_{lo <= k <= 20 K} theta_k k^e e^{-kv}, K the length exp_sums
    takes, by fsum."""
    K = exp_sums(w, v, lo, (e,))[1]
    k = np.arange(lo, 20 * K + 1, dtype=np.float64)
    return math.fsum(np.exp(theta_log_range(w, lo, 20 * K) + e * np.log(k)
                            - k * v))


def test_large_alpha_sums_reach_their_tails():
    # these sums went past ceil(60/v) = 6 terms: a_n missed 1.08e-9 of
    # itself at alpha = 40, and the tail count 1.5e-12 at alpha = 20
    w = cw.polynomial(40.0)
    sd = cw.solve_saddle(w, 10**6)
    assert sd.truncation_K == 8
    assert sd.a_n == pytest.approx(_sum_to_20K(w, sd.v_n, 1, 0), rel=1e-15)
    w = cw.polynomial(20.0)
    sd = cw.solve_saddle(w, 10**6)
    assert cw.expected_tail_count(sd, 1) == pytest.approx(
        _sum_to_20K(w, sd.v_n, 1, -1), rel=1e-15)


def test_partial_sum_delta0():
    integral, corr, direct, ok = cw.partial_sum_asymp(0.0, 0.05, 200)
    assert ok
    assert direct == pytest.approx(math.exp(-10) / (1 - math.exp(-0.05)),
                                   rel=1e-10)
    assert integral == pytest.approx(math.exp(-10) / 0.05, rel=1e-12)
    assert corr == pytest.approx(math.exp(-10) / 2, rel=1e-12)
    assert abs(direct - integral - corr) <= 0.05 * corr


def test_partial_sum_delta0_single_term():
    # falling factorials vanish for j >= 1 at delta = 0
    a1 = cw.partial_sum_asymp(0.0, 0.05, 200, n_terms=0)[0]
    a2 = cw.partial_sum_asymp(0.0, 0.05, 200, n_terms=5)[0]
    assert a1 == a2


def test_partial_sum_delta2():
    integral, corr, direct, ok = cw.partial_sum_asymp(2.0, 0.05, 200, 3)
    assert ok
    assert integral + corr == pytest.approx(direct, rel=5e-4)


def test_partial_sum_regime_flag():
    *_, ok = cw.partial_sum_asymp(1.0, 0.01, 100)
    assert not ok  # x*v = 1 < 5


def test_falling_factorial():
    assert asymptotics.falling_factorial(3.0, 0) == 1.0
    assert asymptotics.falling_factorial(3.0, 2) == 6.0
    assert asymptotics.falling_factorial(0.0, 1) == 0.0


def test_h_estimate_against_table(htable_2000, poly1):
    ratios = []
    for n in (500, 1000, 2000):
        est, _ = cw.saddle_h_estimate(poly1, n)
        ratios.append(math.exp(est.log() - htable_2000.log_array()[n]))
    assert 0.9 <= ratios[0] <= 1.1
    assert abs(ratios[0] - 1) >= abs(ratios[1] - 1) >= abs(ratios[2] - 1)


def test_h_estimate_table_weights():
    # table weights take exp_sums for g(r_n); the estimate's gap to the
    # exact h_n (1.9% at n = 100, 0.42% at n = 2000) shrinks with n
    w = cw.table([1, 2, 3])
    tab = cw.build_h_table(w, 2000)
    gaps = [abs(math.expm1(cw.saddle_h_estimate(w, n)[0].log()
                           - tab.log_array()[n]))
            for n in (100, 300, 1000, 2000)]
    assert gaps[0] <= 0.025 and gaps[-1] <= 0.005
    assert gaps == sorted(gaps, reverse=True)


def test_h_estimate_ewens():
    est, _ = cw.saddle_h_estimate(cw.ewens(1.0), 1000)
    assert math.exp(est.log()) == pytest.approx(1.0, abs=0.15)


def test_expected_tail_count_full_sum():
    w = cw.polynomial(1.0)
    sd = cw.solve_saddle(w, 10000)
    total = cw.expected_tail_count(sd, 1)
    # Gamma(1)/v + zeta(0) at delta = alpha - 1 = 0
    assert total == pytest.approx(1 / sd.v_n - 0.5, rel=0.01)


def test_expected_tail_count_at_grid_points():
    w = cw.polynomial(1.0)
    sd = cw.solve_saddle(w, 20000)
    near_one = cw.expected_tail_count(sd, cw.threshold_x(sd, 1.0))
    assert 0.8 <= near_one <= 1.2
    cap_tail = cw.expected_tail_count(sd, cw.threshold_x(sd, 0.0))
    assert cap_tail < 0.05


def test_threshold_x():
    sd = cw.solve_saddle(cw.polynomial(1.0), 20000)
    assert cw.threshold_x(sd, 0.0) == pytest.approx(2 * sd.n_star * sd.ell_n)
    assert cw.threshold_x(sd, 1.0) == pytest.approx(sd.n_star * sd.ell_n)
    # min clamp: very small y behaves like y = 0
    assert cw.threshold_x(sd, 1e-12) == pytest.approx(cw.threshold_x(sd, 0.0))
    for bad in (-1.0, math.nan, -math.inf):
        with pytest.raises(ValueError, match=f"got {bad}"):
            cw.threshold_x(sd, bad)
    # past y = e^ell_n the threshold would be negative
    sd = cw.solve_saddle(cw.polynomial(0.05), 10**6)
    assert math.exp(sd.ell_n) == pytest.approx(2.87, abs=0.01)
    assert cw.threshold_x(sd, 2.0) > 0
    for bad in (4.0, math.inf):
        with pytest.raises(ValueError,
                           match=f"y={bad} exceeds e\\^ell_n = 2.87"):
            cw.threshold_x(sd, bad)


def test_diagnostics_s0_matches_saddle():
    w = cw.polynomial(1.0)
    sd = cw.solve_saddle(w, 10000)
    rep = cw.admissibility_diagnostics(sd, s=0.0, y=1.0)
    # tilt-free case: a_n is the saddle sum, so the residual is tiny
    assert rep.residual < 1e-6
    assert rep.bn_ratio == pytest.approx(
        sd.b_n / (math.gamma(3.0) * sd.n_star ** 3), rel=1e-6)
    assert rep.monotonicity_violations == 0


def test_diagnostics_tilted():
    sd = cw.solve_saddle(cw.polynomial(1.0), 10000)
    rep = cw.admissibility_diagnostics(sd, s=0.5, y=1.0)
    assert rep.monotonicity_violations == 0
    assert rep.residual < 1.0  # o(1) relative to sqrt(b_n)


def dense_diagnostics(w, n, s, y):
    """(residual, width, violations, bn_ratio, b_n) of
    admissibility_diagnostics from whole K-term arrays: the reference for
    its chunked sums."""
    sd = cw.solve_saddle(w, n)
    x_n = cw.threshold_x(sd, y)
    k = np.arange(1, sd.truncation_K + 1, dtype=np.float64)
    ck_r = np.exp(theta_log_range(w, 1, sd.truncation_K) - np.log(k)
                  - k * sd.v_n)
    ck_r *= np.where(k >= math.ceil(x_n), math.exp(s), 1.0)
    a_n, b_n = float(np.sum(k * ck_r)), float(np.sum(k * k * ck_r))
    alpha = w.growth_alpha
    delta = sd.v_n ** ((alpha + 2.0) / 2.0 - 0.1)
    phis = np.linspace(delta, math.pi, asymptotics.PHI_POINTS)
    ref = float(np.sum(ck_r * np.cos(k * delta)))
    vals = np.concatenate([np.cos(np.outer(phis[i:i + 64], k)) @ ck_r
                           for i in range(0, len(phis), 64)])
    return (abs(a_n - n) / math.sqrt(b_n),
            delta * delta * b_n - math.log(b_n),
            int(np.sum(vals > ref + 1e-12 * max(1.0, abs(ref)))),
            b_n / (math.gamma(alpha + 2.0) * sd.n_star ** (alpha + 2.0)), b_n)


@pytest.mark.parametrize("w,n,s,y", [
    (cw.polynomial(1.0), 1000, 0.0, 1.0), (cw.polynomial(1.0), 300, 6.0, 1.0),
    (cw.polynomial(2.0), 100, 6.0, 1.0), (cw.polynomial(4.0), 100, -1.0, 1.0),
    (cw.polynomial(0.5), 100, 6.0, 0.05), (cw.polynomial(0.5), 1000, 6.0, 1.0),
    # table weights scan the cosine sums even at s = 0
    (cw.table([1, 2, 3]), 2000, 0.0, 1.0), (cw.table([2, 4]), 1000, 0.0, 0.5)],
    ids=lambda v: (str(v.alpha) if v.family == "polynomial" else
                   "table" + "".join(f"{x:g}" for x in v.values))
    if isinstance(v, cw.WeightSequence) else None)
def test_diagnostics_match_dense_sums(w, n, s, y):
    # the sixth case has K = 6 500 terms, so its scan runs over 7 chunks
    residual, width, violations, bn_ratio, b_n = dense_diagnostics(w, n, s, y)
    rep = cw.admissibility_diagnostics(cw.solve_saddle(w, n), s, y)
    assert rep.residual == pytest.approx(residual,
                                         abs=1e-12 * n / math.sqrt(b_n))
    assert rep.width == pytest.approx(width, rel=1e-12)
    assert rep.bn_ratio == pytest.approx(bn_ratio, rel=1e-12)
    assert rep.monotonicity_violations == violations


def test_diagnostics_bounded_memory():
    # K = 140 106 terms; the scan must not hold PHI_POINTS x K cosines
    tracemalloc.start()
    try:
        rep = cw.admissibility_diagnostics(
            cw.solve_saddle(cw.polynomial(0.5), 10**5), s=0.0, y=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    assert rep.monotonicity_violations == 0


def test_diagnostics_json_fields():
    import dataclasses
    sd = cw.solve_saddle(cw.polynomial(1.0), 1000)
    rep = cw.admissibility_diagnostics(sd, s=0.0, y=0.5)
    assert list(dataclasses.asdict(rep)) == [
        "residual", "width", "monotonicity_violations", "bn_ratio"]


@pytest.mark.parametrize("call, named", [
    (lambda w: asymptotics.solve_saddle(w, 0), "got 0"),
    (lambda w: asymptotics.saddle_h_estimate(w, 9), "got 9"),
    (lambda w: asymptotics.polylog_asymp(0.5, 1.0), "got 1.0"),
    (lambda w: asymptotics.polylog_asymp(0.5, 0.0), "got 0.0"),
    (lambda w: asymptotics.partial_sum_asymp(0.5, -0.1, 10.0), "v=-0.1"),
    (lambda w: asymptotics.expected_tail_count(
        asymptotics.solve_saddle(w, 100), -2.0), "got -2.0"),
    (lambda w: asymptotics.admissibility_diagnostics(
        asymptotics.solve_saddle(w, 100), 0.0, 0.0), "got 0.0"),
], ids=["saddle-n", "estimate-n", "polylog-v-one", "polylog-v-zero",
        "partial-sum-v", "tail-count-x", "diagnostics-y"])
def test_bad_input_is_refused_by_name(call, named):
    with pytest.raises(ValueError, match=named):
        call(cw.polynomial(1.0))
