import json
import math
import warnings

import numpy as np
import pytest

import cycleweights as cw
from cycleweights import stats
from cycleweights.oracle import CycleType


def ct(counts, n):
    return CycleType.from_dict(counts, n)


def path_value(sample, sd, y):
    """P_y = number of cycles of length >= x_n(y), via the columnar form."""
    cols = stats.columns([sample])
    return int(stats.tail_counts(cols, cw.threshold_x(sd, y))[0])


def test_longest_cycles_basic():
    cols = stats.columns([ct({2: 1, 3: 2}, 8)])
    assert stats.longest(cols, 3).tolist() == [[3, 3, 2]]


def test_longest_cycles_padding():
    cols = stats.columns([ct({1: 5}, 5)])
    assert stats.longest(cols, 7).tolist() == [[1, 1, 1, 1, 1, 0, 0]]


def test_longest_identity_exhaustive():
    # columnar tail counts and longest-K against CycleType.tail_count and
    # the sorted cycle lengths, over every cycle type up to n = 10, with
    # all types of one n as the rows of one batch
    w = cw.polynomial(1.0)
    for n in range(1, 11):
        types = [cyc for cyc, _ in cw.enumerate_cycle_types(w, n)]
        cols = stats.columns(types)
        for x in [0.5] + list(range(1, n + 2)):
            assert stats.tail_counts(cols, x).tolist() == \
                [cyc.tail_count(x) for cyc in types]
        expect = []
        for cyc in types:
            lengths = sorted((m for m, c in cyc.counts for _ in range(c)),
                             reverse=True)
            expect.append(lengths + [0] * (n - len(lengths)))
        assert stats.longest(cols, n).tolist() == expect


def test_tv_distance_hand_computed(desk_saddle):
    # 0, 1, 1 and 2 cycles of length >= x_n(1) against Poisson(1), whose
    # pmf the report cuts at k_max = 20
    L = math.ceil(cw.threshold_x(desk_saddle, 1.0))
    batch = [ct({1: 20000}, 20000), ct({1: 20000 - L, L: 1}, 20000),
             ct({1: 20000 - L, L: 1}, 20000),
             ct({1: 20000 - 2 * L, L: 2}, 20000)]
    rep = cw.verify_poisson_increments(batch, desk_saddle, [1.0])
    pmf = [math.exp(-1) / math.factorial(k) for k in range(21)]
    want = 0.5 * (abs(0.25 - pmf[0]) + abs(0.5 - pmf[1])
                  + abs(0.25 - pmf[2]) + sum(pmf[3:]))
    tv = [c for c in rep.checks if c.name == "tv_inc_0"][0]
    assert tv.observed == pytest.approx(want, rel=1e-14)


def test_ks_distance_hand_computed():
    # two points at 0.25, 0.75 against U[0,1]
    d = stats.ks_distance([0.25, 0.75], lambda x: x)
    assert d == pytest.approx(0.25)


def test_gumbel_cdf_value():
    assert stats.point_cdf(1, 0.0) == pytest.approx(math.exp(-1))
    # fewer than j points, and the far right
    assert stats.point_cdf(3, [-np.inf, np.inf]).tolist() == [0.0, 1.0]


def test_poisson_pmf():
    pmf = stats.poisson_pmf(2.0, 30)
    assert pmf.shape == (31,)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-10)
    assert pmf[0] == pytest.approx(math.exp(-2))
    assert stats.poisson_pmf(0.0, 5).tolist() == [1.0, 0, 0, 0, 0, 0]


def test_process_path_monotone(desk_saddle):
    # pad with fixed points so the counts sum to n
    counts = {1: 20000 - 200 - 700 - 900, 100: 2, 700: 1, 900: 1}
    sample = ct(counts, 20000)
    ys = np.linspace(0.01, 5.0, 60)
    vals = [path_value(sample, desk_saddle, y) for y in ys]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_process_path_brute_force_recount(desk_saddle):
    counts = {1: 20000 - 650 - 801, 650: 1, 801: 1}
    sample = ct(counts, 20000)
    for y in (0.2, 0.7, 1.0, 2.5):
        x = cw.threshold_x(desk_saddle, y)
        brute = sum(c for m, c in sample.counts if m >= x)
        assert path_value(sample, desk_saddle, y) == brute


def test_jump_threshold_duality(desk_saddle):
    counts = {1: 20000 - 700 - 850, 700: 1, 850: 1}
    sample = ct(counts, 20000)
    sd = desk_saddle
    for j, L in enumerate((850, 700), start=1):
        y_j = math.exp(sd.ell_n - L / sd.n_star)
        eps = 1e-9
        assert path_value(sample, sd, y_j + eps) >= j
        assert path_value(sample, sd, y_j - eps) < j


def test_verify_poisson_degenerate_grid(desk_saddle):
    counts = {1: 20000}
    batch = [ct(counts, 20000)] * 10
    rep = cw.verify_poisson_increments(batch, desk_saddle, [0.5, 0.5])
    # second increment identically zero with target 0
    m = [c for c in rep.checks if c.name == "mean_inc_1"][0]
    assert m.observed == 0.0 and m.target == 0.0 and m.passed


def test_verify_poisson_rejects_empty(desk_saddle):
    with pytest.raises(ValueError):
        cw.verify_poisson_increments([], desk_saddle, [1.0])
    with pytest.raises(ValueError):  # a row without cycles
        cw.verify_poisson_increments([ct({}, 0)], desk_saddle, [1.0])
    # an empty grid
    batch = [ct({1: 20000}, 20000)]
    with pytest.raises(ValueError, match="y_grid is empty"):
        cw.verify_poisson_increments(batch, desk_saddle, [])
    with pytest.raises(ValueError, match="x_grid is empty"):
        cw.cumulative_profile(batch, 1.0, [], sd=desk_saddle)


def test_verify_report_json_schema(desk_saddle):
    batch = [ct({1: 20000}, 20000)] * 5
    rep = cw.verify_poisson_increments(batch, desk_saddle, [1.0])
    d = json.loads(json.dumps(rep.to_dict()))
    assert set(d) == {"experiment", "config", "checks"}
    for c in d["checks"]:
        assert set(c) == {"name", "observed", "target", "tol", "pass"}
        # pass flag recomputable from stored fields
        assert c["pass"] == (abs(c["observed"] - c["target"]) <= c["tol"])


def exponential_partial_sums(j, size, seed=20240917):
    """-log(E_1 + ... + E_j) for iid standard exponentials: draws of the
    j-th largest point of the Poisson process with intensity e^{-x} dx."""
    rng = np.random.default_rng(seed + j)
    return -np.log(rng.standard_exponential(size=(size, j)).sum(axis=1))


def test_point_cdf_matches_exponential_sums():
    # DKW: the KS distance of N draws exceeds eps with probability at most
    # 2 exp(-2 N eps^2) = delta
    size, delta = 200000, 1e-6
    eps = math.sqrt(math.log(2 / delta) / (2 * size))
    for j in (1, 2, 3, 5):
        draws = exponential_partial_sums(j, size)
        assert stats.ks_distance(draws, lambda x: stats.point_cdf(j, x)) \
            <= eps


def test_gumbel_with_fewer_than_k_cycles(desk_saddle):
    # one, two, two and many cycles: the missing j-th longest cycles are
    # -inf, where the limit law puts no mass
    sd = desk_saddle
    batch = [ct({20000: 1}, 20000), ct({10000: 2}, 20000),
             ct({5000: 1, 15000: 1}, 20000),
             ct({1: 20000 - 700 - 850 - 900, 700: 1, 850: 1, 900: 1}, 20000),
             ct({1: 18000, 2000: 1}, 20000)]
    lengths = [[20000], [10000, 10000], [15000, 5000], [900, 850, 700],
               [2000, 1, 1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = cw.verify_gumbel(batch, sd, 3)
    x1 = cw.threshold_x(sd, 1.0)

    def cdf(j, x):
        if x == -math.inf:
            return 0.0
        y = math.exp(-x)
        return math.exp(-y) * sum(y**i / math.factorial(i) for i in range(j))

    observed = {c.name: c.observed for c in rep.checks}
    for j, name in ((1, "ks_L1_gumbel"), (2, "ks_L2_ref"), (3, "ks_L3_ref")):
        xs = sorted((ls[j - 1] - x1) / sd.n_star if len(ls) >= j
                    else -math.inf for ls in lengths)
        # sup |F_emp - F| is reached just below or at a sample point
        want = max(max(abs(cdf(j, x) - sum(v < x for v in xs) / 5),
                       abs(cdf(j, x) - sum(v <= x for v in xs) / 5))
                   for x in xs)
        assert observed[name] == pytest.approx(want, rel=1e-12)
    assert observed["ks_L3_ref"] >= 3 / 5  # three rows lack L3
    assert observed["jump_time_violations"] == 0


def test_reports_draw_no_random_numbers(desk_batch, desk_saddle, poly1,
                                        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a report drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)

    def reports():
        return [json.dumps(rep.to_dict(), sort_keys=True) for rep in (
            cw.verify_poisson_increments(desk_batch, desk_saddle,
                                         [0.5, 1.0, 2.0]),
            cw.verify_gumbel(desk_batch, desk_saddle, 3),
            cw.cumulative_profile(desk_batch, 1.0, [0.5, 1.0, 2.0], w=poly1,
                                  sd=desk_saddle),
            cw.bn_event_frequency(desk_batch, desk_saddle))]

    assert reports() == reports()


def test_bn_event_trivial(desk_saddle):
    batch = [ct({1: 20000}, 20000)] * 20
    rep = cw.bn_event_frequency(batch, desk_saddle)
    freq = [c for c in rep.checks if c.name == "bn_frequency"][0]
    assert freq.observed == 0.0 and rep.all_pass


def test_bn_bound_decreases_with_n():
    w = cw.polynomial(1.0)
    bounds = []
    for n in (1000, 10000):
        sd = cw.solve_saddle(w, n)
        cap = 2 * sd.n_star * sd.ell_n
        bounds.append(2 * cw.expected_tail_count(w, sd, math.floor(cap) + 1))
    assert bounds[1] < bounds[0]


def test_cumulative_profile_trivial_tail():
    batch = [ct({1: 100}, 100)] * 10
    rep = cw.cumulative_profile(batch, 1.0, [50.0])
    w = [c for c in rep.checks if c.name.startswith("w_n")][0]
    assert w.observed == 0.0


def test_cumulative_profile_rejects_zero_growth():
    # Ewens weights scale x by n itself, so w_n(x >= 1) would be 0 by
    # construction against a positive prediction
    batch = [ct({1: 100}, 100)] * 10
    with pytest.raises(ValueError, match="ell_n is undefined"):
        cw.cumulative_profile(batch, 0.0, [0.5, 1.0], w=cw.ewens(2.0))


def test_cumulative_profile_takes_a_solved_saddle(poly1, htable_2000,
                                                  monkeypatch):
    batch = list(cw.sample_batch(poly1, htable_2000, cw.SamplerConfig(
        n=2000, num_samples=200, seed=4)))
    sd = cw.solve_saddle(poly1, 2000)
    want = cw.cumulative_profile(batch, 1.0, [0.5, 1.0, 2.0], w=poly1)

    def refuse(*args):
        raise AssertionError("cumulative_profile solved the saddle again")

    monkeypatch.setattr(cw.asymptotics, "solve_saddle", refuse)
    monkeypatch.setattr(stats, "solve_saddle", refuse)
    got = cw.cumulative_profile(batch, 1.0, [0.5, 1.0, 2.0], w=poly1, sd=sd)
    assert got.to_dict() == want.to_dict()
    # a saddle of another n or other weights is refused
    with pytest.raises(ValueError, match="sd was solved"):
        cw.cumulative_profile(batch, 1.0, [1.0], w=poly1,
                              sd=cw.SaddleData(**{**vars(sd), "n": 1000}))
    with pytest.raises(ValueError, match="sd was solved"):
        cw.cumulative_profile(batch, 1.0, [1.0], w=cw.polynomial(2.0), sd=sd)


def rows_concatenated(cts):
    """(starts, m, c) of the cycle types' from_dict rebuilds, concatenated
    sample by sample."""
    rebuilt = [CycleType.from_dict(dict(cyc.counts), cyc.n) for cyc in cts]
    sizes = [len(r.m) for r in rebuilt]
    return (np.cumsum([0] + sizes[:-1]),
            np.concatenate([r.m for r in rebuilt]),
            np.concatenate([r.c for r in rebuilt]))


def assert_columns_match_rebuilds(cts):
    got = stats.columns(cts)
    for a, b in zip(got, rows_concatenated(cts)):
        np.testing.assert_array_equal(a, b)
    assert got.m.dtype == got.c.dtype == got.starts.dtype == np.int32
    assert got.n == cts[0].n


def test_columns_across_chunk_boundaries(poly1, htable_2000):
    # 2 _CHUNK + 100 samples span three chunks of the lockstep sampler
    num = 2 * cw.sampler._CHUNK + 100
    batch = list(cw.sample_batch(poly1, htable_2000,
                                 cw.SamplerConfig(300, num, 3)))
    assert len({id(cyc.cols) for cyc in batch}) == 3
    assert_columns_match_rebuilds(batch)


def test_columns_of_a_multi_chunk_batch(poly1, htable_2000):
    # one chunk and 100 samples more cross one chunk boundary
    num = cw.sampler._chunk_size(300) + 100
    batch = list(cw.sample_batch(poly1, htable_2000,
                                 cw.SamplerConfig(300, num, 3)))
    assert len({id(cyc.cols) for cyc in batch}) == 2
    assert_columns_match_rebuilds(batch)
    rebuilt = CycleType.from_dict(dict(batch[0].counts), 300)
    for arr in (batch[0].m, batch[-1].c, rebuilt.m):
        assert arr.dtype == np.int32
        with pytest.raises(ValueError):
            arr[0] = 1
    assert all(type(v) is int for pair in batch[0].counts for v in pair)


def test_columns_of_rows_out_of_batch_order(poly1, htable_2000):
    one, two = (list(cw.sample_batch(poly1, htable_2000,
                                     cw.SamplerConfig(300, 40, seed)))
                for seed in (3, 4))
    # a row of `two` that starts where a row of `one` ends, and differs
    # from the row that follows it in `one`
    i, j = next((i, j) for i in range(len(one) - 1) for j in range(len(two))
                if two[j].start == one[i].end
                and two[j].counts != one[i + 1].counts)
    for cts in ([one[i], two[j]],
                one[::-1],  # reversed
                [cyc for pair in zip(one, two) for cyc in pair],  # interleaved
                [one[7]] * 10,  # one object repeated
                one[:5] + [ct({1: 300}, 300)] + one[5:9],  # a from_dict type
                one[3:30],  # one run, not the whole chunk
                one + two):  # two whole chunks
        assert_columns_match_rebuilds(cts)


def test_columns_rejects_mixed_sizes():
    with pytest.raises(ValueError, match="sizes"):
        stats.columns([ct({1: 5}, 5), ct({2: 3}, 6)])


def test_sampled_rows_share_their_chunk(poly1):
    # 10^4 samples at n = 6 are one chunk: every sample is a row of its
    # Columns, and the batch's columns equal that Columns' arrays
    num = 10**4
    assert cw.sampler._chunk_size(6) >= num
    batch = list(cw.sample_batch(poly1, cw.build_h_table(poly1, 6),
                                 cw.SamplerConfig(6, num, 11)))
    chunk = batch[0].cols
    assert isinstance(chunk, cw.oracle.Columns)
    assert all(cyc.cols is chunk for cyc in batch)
    assert len(chunk.starts) == num
    for cyc in batch:
        want = CycleType.from_dict(dict(cyc.counts), 6)
        for got, ref in ((cyc.m, want.m), (cyc.c, want.c)):
            assert got.dtype == np.int32 and not got.flags.writeable
            np.testing.assert_array_equal(got, ref)
    cols = stats.columns(batch)
    assert cols.n == chunk.n
    for a, b in ((cols.m, chunk.m), (cols.c, chunk.c),
                 (cols.starts, chunk.starts)):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(cols, rows_concatenated(batch)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("report", ["poisson", "gumbel", "bn", "bn-weights"])
def test_reports_reject_a_mismatched_saddle(report, desk_saddle):
    # the batch is at n = 2000, the saddle at the desk's n = 20000; the
    # bn report also refuses weights other than the saddle's
    batch = [ct({1: 2000}, 2000)] * 5
    run = {"poisson": lambda: cw.verify_poisson_increments(
               batch, desk_saddle, [1.0]),
           "gumbel": lambda: cw.verify_gumbel(batch, desk_saddle, 2),
           "bn": lambda: cw.bn_event_frequency(batch, desk_saddle),
           "bn-weights": lambda: cw.bn_event_frequency(
               [ct({1: 20000}, 20000)], desk_saddle, w=cw.polynomial(2.0))}
    with pytest.raises(ValueError, match="sd was solved at n=20000"):
        run[report]()
