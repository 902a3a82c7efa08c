"""Acceptance suite: one test per exit criterion, one pass/fail line each.

Runs at the desk scale (n = 2e4, 5000 samples for the limit-law checks);
the expensive batch and tables are shared session fixtures.
"""

import collections
import math

import pytest

import cycleweights as cw
from cycleweights import stats


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def rel(a_log, b_log):
    return abs(math.expm1(a_log - b_log))


def test_criterion_1_oracle_agreement():
    families = [cw.polynomial(0.5), cw.polynomial(1.0), cw.polynomial(2.0),
                cw.ewens(2.0)]
    worst = 0.0
    for w in families:
        tab = cw.build_h_table(w, 20)
        for n in range(1, 21):
            worst = max(worst, rel(tab.value(n).log(), cw.h_exact(w, n).log()))
    # Ewens(2) closed form: rising factorial / n! -> h_n = n + 1
    tab = cw.build_h_table(cw.ewens(2.0), 20)
    for n in range(21):
        worst = max(worst, abs(tab.value(n).to_float() / (n + 1) - 1))
    assert tab.value(3).to_float() == pytest.approx(4.0)
    report("criterion 1 (oracle agreement)", worst < 1e-10,
           f"worst rel err {worst:.2e}")


def test_criterion_2_sampler_exactness():
    w = cw.polynomial(1.0)
    tab = cw.build_h_table(w, 6)
    num = 10**6
    cfg = cw.SamplerConfig(n=6, num_samples=num, seed=20240601)
    counts = collections.Counter()
    for ct in cw.sample_batch(w, tab, cfg):
        counts[ct.counts] += 1
    exact = {ct.counts: p for ct, p in cw.enumerate_cycle_types(w, 6)}
    tv = 0.5 * sum(abs(counts.get(k, 0) / num - p) for k, p in exact.items())
    report("criterion 2 (sampler exactness)", tv < 0.005, f"TV {tv:.4f}")


def test_criterion_3_saddle_solver():
    sd = cw.solve_saddle(cw.polynomial(1.0), 100)
    closed = -math.log((201 - math.sqrt(401)) / 200)
    err = abs(sd.v_n - closed)
    guess_gap = abs(0.1 - sd.v_n) / sd.v_n
    report("criterion 3 (saddle solver)", err < 1e-8 and guess_gap < 0.005,
           f"|v - closed| {err:.2e}, initial-guess gap {guess_gap:.4f}")


def test_criterion_4_polylog_contract():
    worst = 0.0
    for delta in (0.0, 1.0):
        for v in (0.2, 0.1, 0.05, 0.02):
            _, _, err = cw.polylog_asymp(delta, v)
            worst = max(worst, err / v)
    report("criterion 4 (polylog expansion)", worst <= 1.0,
           f"max err/v {worst:.3f}")


def test_criterion_5_partial_sum_regime():
    integral, corr, direct, ok = cw.partial_sum_asymp(0.0, 0.05, 200)
    gap = abs(direct - integral - corr)
    report("criterion 5 (tail-sum expansion)", ok and gap <= 0.05 * abs(corr),
           f"residual {gap:.2e} vs 0.05*boundary {0.05 * corr:.2e}")


def test_criterion_6_coefficient_extraction(htable_2000, poly1):
    gaps = []
    for n in (500, 1000, 2000):
        est, _ = cw.saddle_h_estimate(poly1, n)
        gaps.append(abs(math.exp(est.log() - htable_2000.value(n).log()) - 1))
    ok = gaps[2] < 0.10 and gaps[0] >= gaps[1] >= gaps[2]
    report("criterion 6 (coefficient extraction)", ok,
           "|ratio-1| = " + ", ".join(f"{g:.4f}" for g in gaps))


def test_criterion_7_poisson_increments(desk_batch, desk_saddle):
    rep = cw.verify_poisson_increments(desk_batch, desk_saddle,
                                       [0.5, 1.0, 2.0])
    detail = "; ".join(f"{c.name}={c.observed:.3f}" for c in rep.checks
                       if c.name.startswith("mean"))
    report("criterion 7 (Poisson increments)", rep.all_pass, detail)


def test_criterion_8_gumbel(desk_batch, desk_saddle):
    rep = cw.verify_gumbel(desk_batch, desk_saddle, K=3)
    detail = "; ".join(f"{c.name}={c.observed:.4f}" for c in rep.checks
                       if c.name.startswith("ks_"))
    report("criterion 8 (Gumbel longest cycles)", rep.all_pass, detail)


def test_criterion_9_bn_control(desk_batch, desk_saddle):
    rep = cw.bn_event_frequency(desk_batch, desk_saddle)
    freq = [c for c in rep.checks if c.name == "bn_frequency"][0].observed
    bound = rep.config["markov_bound"]
    ok = rep.all_pass and freq < 0.05 and freq <= 3 * max(
        bound, 5.0 / (3 * math.sqrt(len(desk_batch))))
    report("criterion 9 (cap-exceedance control)", ok,
           f"freq {freq:.4f}, bound {bound:.4f}")


def test_criterion_10_mgf_identity():
    w = cw.polynomial(1.0)
    worst = 0.0
    for n in (3, 6, 9, 12):
        enum = cw.enumerate_cycle_types(w, n)
        for x in (1, 2, 3):
            for s in (-1.0, 0.5, 1.0):
                series = cw.mgf_series(w, n, x, s)
                direct = sum(math.exp(s * ct.tail_count(x)) * p
                             for ct, p in enum)
                worst = max(worst, abs(series - direct))
    report("criterion 10 (MGF identity)", worst < 1e-10,
           f"worst abs gap {worst:.2e}")


def test_criterion_11_admissibility_diagnostics():
    rep = cw.admissibility_diagnostics(cw.polynomial(1.0), 100000,
                                       s=0.0, y=1.0)
    ok = 0.9 <= rep.bn_ratio <= 1.1 and rep.monotonicity_violations == 0
    report("criterion 11 (admissibility diagnostics)", ok,
           f"bn_ratio {rep.bn_ratio:.4f}, "
           f"violations {rep.monotonicity_violations}")
