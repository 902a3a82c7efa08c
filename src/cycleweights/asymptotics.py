"""Saddle-point analysis for the weighted cycle measure.

Solves sum_k theta_k e^{-k v} = n for the saddle parameter v_n, evaluates
the derived scales n* = 1/v_n and ell_n, the polylog-style expansions used
to approximate these sums, and the saddle-point estimate of the coefficient
[t^n] exp(g(t)), together with numeric admissibility diagnostics (saddle
residual, width of convergence, monotonicity scan on the saddle circle).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from .oracle import ScaledReal
from .weights import (EWENS, POLYNOMIAL, WeightSequence, ewens, exp_sums,
                      theta_log_range)

_MAX_NEWTON_ITERS = 200

# zeta values that _zeta_at keeps; one solve reads a few dozen arguments
_ZETA_MEMO = 256

# the zeta series of polylog_series is used for |mu| <= SERIES_RADIUS < 2 pi;
# its terms shrink like (|mu|/2pi)^j, so 4 keeps them below 0.64^j
SERIES_RADIUS = 4.0
_SERIES_RTOL = 1e-16
# stops the series where its sum is ~0, whose relative tail never shrinks
_SERIES_MAX_TERMS = 200

# grid points on [delta, pi] of the saddle-circle monotonicity scan
PHI_POINTS = 1000
# terms k per chunk of that scan: its cosine block holds 8 MiB at any K
_SCAN_TERMS = 1024


class SaddleError(RuntimeError):
    """Saddle equation solver failed to converge."""


@dataclass
class SaddleData:
    """Solved saddle quantities for one size n."""

    n: int
    v_n: float
    n_star: float
    ell_n: float
    r_n: float
    a_n: float
    b_n: float
    # max(8, ceil(60/v_n)): a reported scale of the sums' length; no sum
    # stops there, exp_sums picks its own K
    truncation_K: int
    residual: float
    weight: WeightSequence

    @property
    def alpha(self) -> float:
        return self.weight.growth_alpha


def ell_n(n_star: float, alpha: float) -> float:
    """Centering scale alpha*log(n*) + (alpha-1)*log(alpha*log(n*))."""
    core = alpha * math.log(n_star)
    if core <= 0:
        raise ValueError(f"alpha*log(n*) must be positive, got {core}")
    return core + (alpha - 1.0) * math.log(core)


def _weight_sums(w: WeightSequence, v: float,
                 exps: Tuple[int, ...]) -> Tuple[float, ...]:
    """sum_{k>=1} k^e theta_k e^{-kv} for each e in exps: closed forms for
    Ewens (-log(1-z), z/(1-z) and z/(1-z)^2 times vartheta at e = -1, 0
    and 1, z = e^{-v}), the zeta series for polynomial weights with
    v <= SERIES_RADIUS, else exp_sums."""
    if w.family == EWENS:
        z, one_minus_z = math.exp(-v), -math.expm1(-v)
        a = w.vartheta * z / one_minus_z
        closed = {-1: -w.vartheta * math.log1p(-z), 0: a, 1: a / one_minus_z}
        return tuple(closed[e] for e in exps)
    if w.family == POLYNOMIAL and v <= SERIES_RADIUS:
        return tuple(float(polylog_series(w.alpha + e, -v)[0])
                     for e in exps)
    return tuple(exp_sums(w, v, 1, exps)[0])


def solve_saddle(w: WeightSequence, n: int) -> SaddleData:
    """Solve sum theta_k e^{-kv} = n by safeguarded Newton iteration.

    The map v -> sum theta_k e^{-kv} is strictly decreasing, so a bisection
    bracket around the asymptotic initial guess keeps Newton safe.

    The series' zeta values depend on alpha alone, and each is computed
    once per process per exact argument (see _series_terms): every Newton
    step, a_n's and b_n's series and every later solve at the same alpha
    share them.  b_n's zeta(-(alpha+1)-j) is a_n's zeta(-alpha-(j+1))
    wherever alpha + 1 is exact in floating point.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    alpha = w.growth_alpha
    if w.family == EWENS:
        # theta_k = const: closed form v = log(1 + vartheta/n), which the
        # first evaluation accepts
        v = math.log1p(w.vartheta / n)
    else:
        v = (n / math.gamma(alpha + 1.0)) ** (-1.0 / (1.0 + alpha))
    lo, hi = v / 10.0, 10.0 * v
    for _ in range(_MAX_NEWTON_ITERS):
        # the sums of the last v evaluated are the returned a_n, b_n
        s, sk = _weight_sums(w, v, (0, 1))
        f = s - n
        if abs(f) <= 1e-12 * n:
            break
        if f > 0:
            lo = max(lo, v)
        else:
            hi = min(hi, v)
        v_new = v + f / sk  # f' = -sk
        if not (lo < v_new < hi):
            v_new = 0.5 * (lo + hi)
        if abs(v_new - v) <= 1e-15 * v:
            break
        v = v_new
    else:
        raise SaddleError(
            f"saddle equation did not converge for n={n}: "
            f"v={v}, bracket=({lo}, {hi})")
    n_star = 1.0 / v
    try:
        ell = ell_n(n_star, alpha) if alpha > 0 else math.nan
    except ValueError:
        ell = math.nan
    return SaddleData(n=n, v_n=v, n_star=n_star, ell_n=ell,
                      r_n=math.exp(-v), a_n=s, b_n=sk,
                      truncation_K=max(8, math.ceil(60.0 / v)),
                      residual=abs(s - n) / n, weight=w)


def zeta(s: float) -> float:
    """Riemann zeta at a real argument (excluding the pole at 1); an mpmath
    number is taken exactly.  For |s| < 2^-60, zeta(s) = -1/2 - s log(2 pi)/2
    + O(s^2) rounds to -0.5, which is returned without mpmath: mpmath's
    zeta raises for negative s closer to 0 than about 1e-220."""
    if s == 1.0:
        raise ValueError("zeta has a pole at 1")
    if abs(s) < 2.0 ** -60:
        return -0.5
    # imported on first use: only the zeta series needs it, and its ~20 ms
    # import would otherwise land on every command
    import mpmath

    return float(mpmath.zeta(s))


@functools.lru_cache(maxsize=_ZETA_MEMO)
def _zeta_at(s) -> float:
    """zeta(s) at an exact mpmath argument, computed once per process for
    each of the last _ZETA_MEMO arguments: a miss calls the module's
    zeta."""
    return zeta(s)


def _series_terms(delta: float, mu: np.ndarray) -> Iterator[np.ndarray]:
    """Terms of the zeta series of sum_{k>=1} k^delta e^{k mu}: the Gamma
    term, then zeta(-delta-j) mu^j/j! for j = 0, 1, ...  Each zeta argument
    is -delta-j exactly, not rounded to a float, and each zeta value is
    computed once per process per exact argument (_zeta_at keeps the last
    _ZETA_MEMO), so series at the same delta, or at deltas an exact
    integer apart, share them.  zeta(s) is -0.5 for |s| < 2^-60.  delta
    must be finite and not a negative integer, where the Gamma term and
    one zeta term have poles."""
    import mpmath

    if not math.isfinite(delta):
        raise ValueError(f"delta={delta} is not finite")
    if delta == round(delta) and delta <= -1:
        raise ValueError(f"delta={delta} is an excluded negative integer")
    yield math.gamma(1.0 + delta) * (-mu) ** (-1.0 - delta)
    power = np.ones_like(mu)
    for j in itertools.count():
        yield _zeta_at(mpmath.fsub(-delta, j, exact=True)) * power
        power = power * mu / (j + 1)


def polylog_series(delta: float, mu) -> Tuple[np.ndarray, np.ndarray]:
    """sum_{k>=1} k^delta e^{k mu} from its zeta series, with an error bound.

    For Re mu < 0, |mu| <= SERIES_RADIUS and delta not a negative integer
    (DLMF 25.12.12):

        Gamma(1+delta) (-mu)^{-1-delta} + sum_{j>=0} zeta(-delta-j) mu^j/j!

    mu is a real or complex scalar or array, and (value, bound) have its
    shape.  By the functional equation |zeta(-delta-j)| <= 2 zeta(s) Gamma(s)
    / (2 pi)^s with s = 1+delta+j, and zeta(s) <= s/(s-1), so past j the
    terms shrink at least like (|mu|/2pi)^j.  The sum stops at the first j
    whose bounded tail is at most 1e-16 of the sum at every point, or after
    _SERIES_MAX_TERMS terms.  The bound is that tail plus the round-off:
    each term's relative error in ulps (the Gamma term's power grows with
    |(1+delta) log(-mu)|, the j-th term's mu^j/j! with j) times its size,
    plus one ulp of every partial sum.  The terms are added smallest first,
    which keeps the partial sums near the total.  Each zeta value is
    computed once per process per exact argument, and zeta(s) is -0.5 for
    |s| < 2^-60 (see _series_terms).
    """
    mu = np.asarray(mu, dtype=np.result_type(mu, np.float64))
    rho = np.abs(mu)
    if not (np.all(mu.real < 0) and np.all(rho <= SERIES_RADIUS)):
        raise ValueError(f"the series needs Re mu < 0 and |mu| <= "
                         f"{SERIES_RADIUS}")
    log_rho = np.log(rho)
    terms, ulps = [], []
    total, tail = 0.0, np.inf
    for j, t in enumerate(_series_terms(delta, mu), start=-1):
        terms.append(t)
        total = total + t
        # math.gamma's ~10 ulp and the power's 1 + |p log(-mu)|; zeta's and
        # the product's, and two for each factor of mu^j/j!
        ulps.append(12.0 + np.abs((1.0 + delta) * np.log(-mu)) if j < 0
                    else 2.0 + 2.0 * j)
        sigma = 2.0 + delta + j  # s of the first term left out
        if sigma > 1.0:
            q = max(1.0, 1.0 + delta / (j + 2)) * rho / (2.0 * math.pi)
            with np.errstate(divide="ignore", over="ignore"):
                first = np.exp(math.log(2.0 * sigma / (sigma - 1.0))
                               + math.lgamma(sigma)
                               - sigma * math.log(2.0 * math.pi)
                               + (j + 1) * log_rho - math.lgamma(j + 2))
                tail = np.where(q < 1.0, first / (1.0 - q), np.inf)
            if (np.all(tail <= _SERIES_RTOL * np.abs(total))
                    or len(terms) >= _SERIES_MAX_TERMS):
                break
    value = np.zeros_like(terms[0])
    partials = np.zeros(mu.shape)
    for t in reversed(terms):
        value = value + t
        partials += np.abs(value)
    eps = np.finfo(np.float64).eps
    round_off = eps * (sum(u * np.abs(t) for u, t in zip(ulps, terms))
                       + partials)
    return value, tail + round_off


def polylog_asymp(delta: float, v: float) -> Tuple[float, float, float]:
    """Compare sum_k k^delta e^{-kv} with Gamma(delta+1) v^{-delta-1} + zeta(-delta),
    the first two terms of the series in polylog_series.

    Returns (approx, direct, abs_error).  The direct sum is exp_sums', with
    a certified tail below 2^-53 of its value.
    """
    if not 0.0 < v < 1.0:
        raise ValueError(f"v must be in (0, 1), got {v}")
    # the series first: its terms reject an excluded delta
    head = itertools.islice(_series_terms(delta, np.float64(-v)), 2)
    approx = float(sum(head))
    direct = exp_sums(ewens(1.0), v, 1, (delta,))[0][0]
    return approx, direct, abs(direct - approx)


def falling_factorial(delta: float, j: int) -> float:
    out = 1.0
    for i in range(j):
        out *= delta - i
    return out


# Euler-Maclaurin boundary constant for sum_{k>=x} f(k) vs the integral;
# measured as f(x)/2 on the geometric closed forms (see the delta=0 case).
BOUNDARY_C0 = 0.5


def partial_sum_asymp(delta: float, v: float, x: float,
                      n_terms: int = 3) -> Tuple[float, float, float, bool]:
    """Tail sum sum_{k>=x} k^delta e^{-kv} vs its integral expansion.

    Returns (integral_part, correction, direct, in_regime).  The expansion
    is the repeated-integration-by-parts series with falling-factorial
    coefficients; correction is the boundary term BOUNDARY_C0 * f(x).
    in_regime is False when x*v < 5, where the expansion degrades.
    """
    if v <= 0 or x <= 0:
        raise ValueError(f"v and x must be positive, got v={v}, x={x}")
    in_regime = x * v >= 5.0
    xc = float(math.ceil(x))
    f_x = xc ** delta * math.exp(-xc * v)
    series = sum(falling_factorial(delta, j) / (xc * v) ** j
                 for j in range(n_terms + 1))
    integral_part = f_x / v * series
    correction = BOUNDARY_C0 * f_x
    direct = exp_sums(ewens(1.0), v, int(xc), (delta,))[0][0]
    return integral_part, correction, direct, in_regime


def saddle_h_estimate(w: WeightSequence, n: int) -> Tuple[ScaledReal, SaddleData]:
    """Saddle-point estimate of h_n = [t^n] exp(g(t)).

    estimate = (2 pi)^{-1/2} r^{-n} b_n^{-1/2} exp(g(r)) at r = r_n, with
    g(r) = sum (theta_k/k) r^k taken as solve_saddle takes its sums.  Each
    zeta value is computed once per process per exact argument, and
    zeta(s) is -0.5 for |s| < 2^-60 (see _series_terms).  For polynomial
    weights g(r)'s series (delta = alpha - 1) reuses the solve's values:
    zeta(1-alpha-j) for j >= 1 is the solve's zeta(-alpha-(j-1)) wherever
    alpha - 1 is exact in floating point, so after the solve it computes
    only zeta(1-alpha) and any term past the solve's.
    """
    if n < 10:
        raise ValueError(f"saddle estimate needs n >= 10, got {n}")
    sd = solve_saddle(w, n)
    (g_r,) = _weight_sums(w, sd.v_n, (-1,))
    log_est = (-0.5 * math.log(2.0 * math.pi)
               + n * sd.v_n
               - 0.5 * math.log(sd.b_n)
               + g_r)
    return ScaledReal(log_est), sd


def threshold_x(sd: SaddleData, y: float) -> float:
    """Cycle-length threshold x_n(y) = n*(ell_n + min(-log y, ell_n)).

    y = 0 maps to the cap 2 n* ell_n; larger y lowers the threshold, to 0
    at y = e^ell_n.  A larger y, whose threshold would be negative, raises
    ValueError, as do weights without polynomial growth (Ewens, most
    tables), which have no ell_n.
    """
    if not y >= 0:
        raise ValueError(f"y must be >= 0, got {y}")
    if math.isnan(sd.ell_n):
        raise ValueError(f"ell_n is undefined for {sd.weight!r}: x_n(y) "
                         f"needs weights growing like k^alpha with "
                         f"alpha log n* > 0")
    if y == 0.0:
        return 2.0 * sd.n_star * sd.ell_n
    if math.log(y) > sd.ell_n:
        raise ValueError(f"y={y} exceeds e^ell_n = {math.exp(sd.ell_n):.6g} "
                         f"at n={sd.n}: x_n(y) would be negative")
    return sd.n_star * (sd.ell_n + min(-math.log(y), sd.ell_n))


def expected_tail_count(sd: SaddleData, x: float) -> float:
    """sum_{k >= max(x,1)} (theta_k/k) e^{-k v_n} for the weights of sd,
    by exp_sums."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    lo = max(1, int(math.ceil(x)))
    return exp_sums(sd.weight, sd.v_n, lo, (-1,))[0][0]


@dataclass
class AdmissibilityReport:
    residual: float
    width: float
    monotonicity_violations: int
    bn_ratio: float


def _cos_sums(w: WeightSequence, v: float, phis: np.ndarray, lo: int,
              hi: int) -> np.ndarray:
    """sum_{k=lo}^{hi} (theta_k/k) e^{-kv} cos(k phi) at each phi, summed
    over chunks of _SCAN_TERMS terms."""
    out = np.zeros(len(phis))
    for a in range(lo, hi + 1, _SCAN_TERMS):
        b = min(a + _SCAN_TERMS - 1, hi)
        k = np.arange(a, b + 1, dtype=np.float64)
        ck_r = np.exp(theta_log_range(w, a, b) - np.log(k) - k * v)
        block = np.outer(phis, k)
        out += np.cos(block, out=block) @ ck_r
    return out


def admissibility_diagnostics(sd: SaddleData, s: float,
                              y: float) -> AdmissibilityReport:
    """Numeric admissibility diagnostics for the tilted generating function
    at the saddle sd, of weights w = sd.weight at size n = sd.n.

    Works on g_{n,s}(t) = (e^s - 1) * sum_{k >= x_n(y)} (theta_k/k) t^k + g(t):
    reports the normalized saddle residual, the width-of-convergence
    quantity delta^2 b - log b with delta = v^xi, the number of grid points
    where Re g on the saddle circle exceeds its value at phi = delta, and
    the ratio of b to its predicted leading term.

    For polynomial weights Re g on the circle is the zeta series at
    mu = -v_n + i phi, all PHI_POINTS points at once; other weights, and
    circles reaching past SERIES_RADIUS, sum the PHI_POINTS x K cosines up
    to the K that exp_sums certifies for the terms (theta_k/k) e^{-k v_n}.
    With s != 0 the tilt's share, over ceil(x_n) <= k <= K_x (exp_sums'
    K from ceil(x_n)), is such a scan in every case.
    """
    w, n = sd.weight, sd.n
    if n < 100:
        raise ValueError("diagnostics need n >= 100")
    if y <= 0:
        raise ValueError(f"y must be > 0, got {y}")
    alpha = w.growth_alpha
    x_n = threshold_x(sd, y)
    lo = max(1, math.ceil(x_n))
    tilt = math.expm1(s)
    a_n, b_n = sd.a_n, sd.b_n
    if tilt:
        # the tilt's share of the saddle's sums, and its cosine scan's K
        (tail_a, tail_b, _), K_x, _ = exp_sums(w, sd.v_n, lo, (0, 1, -1))
        a_n, b_n = a_n + tilt * tail_a, b_n + tilt * tail_b
    residual = abs(a_n - n) / math.sqrt(b_n)
    # width exponent xi inside the admissible open interval, biased to its
    # upper end (alpha+2)/2
    delta = sd.v_n ** ((alpha + 2.0) / 2.0 - 0.1)
    width = delta * delta * b_n - math.log(b_n)
    bn_ratio = b_n / (math.gamma(alpha + 2.0) * sd.n_star ** (alpha + 2.0))
    # monotonicity: Re g_{n,s}(r e^{i phi}) <= value at phi = delta (the
    # first grid point)
    phis = np.linspace(delta, math.pi, PHI_POINTS)
    mu = -sd.v_n + 1j * phis
    if w.family == POLYNOMIAL and np.abs(mu).max() <= SERIES_RADIUS:
        re_g = polylog_series(alpha - 1.0, mu)[0].real
    else:
        K = exp_sums(w, sd.v_n, 1, (-1,))[1]
        re_g = _cos_sums(w, sd.v_n, phis, 1, K)
    if tilt:
        re_g += tilt * _cos_sums(w, sd.v_n, phis, lo, K_x)
    tol = 1e-12 * max(1.0, abs(re_g[0]))
    violations = int(np.sum(re_g > re_g[0] + tol))
    return AdmissibilityReport(residual=residual, width=width,
                               monotonicity_violations=violations,
                               bn_ratio=bn_ratio)
