import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import cycleweights as cw
from cycleweights import stats
from cycleweights.oracle import Columns, CycleType

from conftest import joined, tail_count


def ct(counts, n):
    return CycleType.from_dict(counts, n)


def path_value(sample, sd, y):
    """P_y = number of cycles of length >= x_n(y), via the columnar form."""
    run, = stats.runs([sample])
    return int(stats.tail_counts(run, cw.threshold_x(sd, y))[0])


def test_longest_cycles_basic():
    run, = stats.runs([ct({2: 1, 3: 2}, 8)])
    assert stats.longest(run, 3).tolist() == [[3, 3, 2]]


def test_longest_cycles_padding():
    run, = stats.runs([ct({1: 5}, 5)])
    assert stats.longest(run, 7).tolist() == [[1, 1, 1, 1, 1, 0, 0]]


def test_longest_identity_exhaustive():
    # columnar tail counts and longest-K against the reference tail_count
    # and the sorted cycle lengths, over every cycle type up to n = 10,
    # with all types of one n as the rows of one batch
    w = cw.polynomial(1.0)
    for n in range(1, 11):
        types = [cyc for cyc, _ in cw.enumerate_cycle_types(w, n)]
        cols = joined(types)
        for x in [0.5] + list(range(1, n + 2)):
            assert stats.tail_counts(cols, x).tolist() == \
                [tail_count(cyc, x) for cyc in types]
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
        bounds.append(2 * cw.expected_tail_count(sd, math.floor(cap) + 1))
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


def assert_columns_match_rebuilds(cts, num_runs=None):
    """The batch's runs hold its rows in order, each read in place (views
    of its rows' Columns) and cut only where it must be: at its Columns'
    end, before a row that does not follow it, or past _RUN_PAIRS pairs;
    num_runs of them, if given."""
    for a, b in zip(joined(cts), rows_concatenated(cts)):
        np.testing.assert_array_equal(a, b)
    got = list(stats.runs(cts))
    row = 0
    for run in got:
        src = cts[row].cols
        assert np.shares_memory(run.m, src.m)
        assert np.shares_memory(run.c, src.c)
        assert run.m.dtype == run.c.dtype == run.starts.dtype == np.int32
        assert run.n == cts[0].n
        row += len(run.starts)
        last = cts[row - 1]
        assert len(run.m) - (last.end - last.start) <= stats._RUN_PAIRS
        assert (last.end == len(src.m) or len(run.m) > stats._RUN_PAIRS
                or row == len(cts) or cts[row].cols is not src
                or cts[row].start != last.end)
    assert row == len(cts)
    assert num_runs is None or len(got) == num_runs


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
    for cts, num_runs in (
            ([one[i], two[j]], 2),
            (one[::-1], 40),  # reversed
            # interleaved
            ([cyc for pair in zip(one, two) for cyc in pair], 80),
            ([one[7]] * 10, 10),  # one object repeated
            (one[:5] + [ct({1: 300}, 300)] + one[5:9], 3),  # a from_dict type
            (one[3:30], 1),  # one run, not the whole chunk
            (one + two, 2)):  # two whole chunks
        assert_columns_match_rebuilds(cts, num_runs)


def test_runs_of_handles_built_by_hand(poly1, htable_2000):
    # handles made as CycleType((cols, start, end)) on a sampled batch's
    # Columns give the same runs as the sampled handles, in place
    num = cw.sampler._chunk_size(300) + 100
    batch = list(cw.sample_batch(poly1, htable_2000,
                                 cw.SamplerConfig(300, num, 3)))
    made = [CycleType((cols, a, b)) for cols, a, b in batch]
    assert all(type(cyc) is CycleType and cyc is not old
               for cyc, old in zip(made, batch))
    for part in (slice(None), slice(5, 40), slice(None, None, -1)):
        got, want = (list(stats.runs(cts[part])) for cts in (made, batch))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.n == b.n
            assert np.shares_memory(a.m, b.m) and np.shares_memory(a.c, b.c)
            for x, y in zip(a[:3], b[:3]):
                np.testing.assert_array_equal(x, y)
    assert_columns_match_rebuilds(made)


def test_columns_rejects_mixed_sizes():
    with pytest.raises(ValueError, match="sizes"):
        list(stats.runs([ct({1: 5}, 5), ct({2: 3}, 6)]))


def test_sampled_rows_share_their_chunk(poly1):
    # 10^4 samples at n = 6 are one chunk: every sample is a row of its
    # Columns, and the batch is one run, that Columns' arrays
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
    cols, = stats.runs(batch)
    assert cols.n == chunk.n
    for a, b in ((cols.m, chunk.m), (cols.c, chunk.c),
                 (cols.starts, chunk.starts)):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(cols, rows_concatenated(batch)):
        np.testing.assert_array_equal(a, b)


def test_columns_reads_one_run_in_place(poly1, htable_2000, desk_batch):
    # every run is read in place, as views of its chunk's read-only arrays:
    # a run of consecutive rows of one chunk, the runs of a one-chunk batch,
    # which is cut into runs of at most _RUN_PAIRS pairs and a row, and
    # those of a batch of several chunks
    run, = stats.runs(desk_batch[3:30])
    for a, b in ((run.m, desk_batch[0].cols.m), (run.c, desk_batch[0].cols.c)):
        assert np.shares_memory(a, b) and not a.flags.writeable
    got = list(stats.runs(desk_batch))
    assert len(got) > 4
    assert all(np.shares_memory(run.m, desk_batch[0].cols.m) for run in got)
    assert_columns_match_rebuilds(desk_batch, len(got))
    for x in (1, 140.5, 3000, 20000):
        assert np.concatenate([stats.tail_counts(run, x) for run in got]
                              ).tolist() == \
            [tail_count(cyc, x) for cyc in desk_batch]
    one = list(cw.sample_batch(poly1, htable_2000,
                               cw.SamplerConfig(300, 40, 3)))
    run, = stats.runs(one[3:30])
    assert np.shares_memory(run.m, one[0].cols.m)
    assert_columns_match_rebuilds(one[3:30], 1)
    num = cw.sampler._chunk_size(300) + 100
    two = list(cw.sample_batch(poly1, htable_2000,
                               cw.SamplerConfig(300, num, 3)))
    got = list(stats.runs(two))
    for cyc in (two[0], two[-1]):
        assert any(np.shares_memory(run.m, cyc.cols.m)
                   and np.shares_memory(run.c, cyc.cols.c) for run in got)


# the four reports of a desk round, at their default grids
DESK_REPORTS = [
    lambda batch, sd, w: stats.verify_poisson_increments(batch, sd,
                                                         [0.5, 1.0, 2.0]),
    lambda batch, sd, w: stats.verify_gumbel(batch, sd, 3),
    lambda batch, sd, w: stats.cumulative_profile(batch, 1.0, [0.5, 1.0, 2.0],
                                                  w=w, sd=sd),
    lambda batch, sd, w: stats.bn_event_frequency(batch, sd, w=w),
]


def test_reports_same_on_a_run_and_its_rebuilds(poly1, desk_batch,
                                                desk_saddle):
    # one run of a chunk against the same rows rebuilt one Columns each,
    # which the reports read as one run each
    run = desk_batch[100:1100]
    rebuilt = [ct(dict(cyc.counts), cyc.n) for cyc in run]
    for report in DESK_REPORTS:
        assert (json.dumps(report(run, desk_saddle, poly1).to_dict())
                == json.dumps(report(rebuilt, desk_saddle, poly1).to_dict()))


MiB = 2**20
# traced peaks of a desk round: measured 5.96 MiB for the batch (its chunk
# holds 4.77), and 0.47, 0.71, 0.38 and 0.38 MiB for the four reports above
# the batch they hold.  Each bound is its measured value plus 0.5 MiB
BATCH_PEAK_MIB = 6.46
REPORT_PEAK_MIB = [0.97, 1.21, 0.88, 0.88]


def test_desk_round_memory(poly1, htable_desk, desk_saddle, desk_batch):
    # a batch's working memory stays near its output, and a report reads
    # its batch in place: it allocates no copy of the batch's columns
    cfg = cw.SamplerConfig(n=htable_desk.n_max, num_samples=len(desk_batch),
                           seed=11)
    cw.sampler._shared_sampler(poly1, htable_desk)  # built untraced
    for report in DESK_REPORTS:  # a first call's one-time allocations
        report(desk_batch, desk_saddle, poly1)
    peaks = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        batch = list(cw.sample_batch(poly1, htable_desk, cfg))
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        del batch
        for report in DESK_REPORTS:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report(desk_batch, desk_saddle, poly1)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    for peak, bound in zip(peaks, [BATCH_PEAK_MIB] + REPORT_PEAK_MIB):
        assert peak / MiB <= bound, [round(p / MiB, 2) for p in peaks]


# above one chunk and the features: the chunk's row bounds as Python ints,
# made with it, and one run's reductions, measured at 0.50 MiB
# (poisson, gumbel, profile) and 0.63 MiB (bn), plus 0.5 MiB
RUN_WORK_MIB = 1.13


def test_reports_hold_one_chunk_at_a_time(poly1, htable_2000):
    # a lazy batch of three chunks at n = 2000, each chunk made as its rows
    # are first read: each report's traced peak is one chunk and its
    # features, which it holds twice (per run, then joined), and the work
    # of one run.  A report that listed its batch would hold all three
    chunk = cw.sampler._chunk_size(2000)
    batch = list(cw.sample_batch(poly1, htable_2000, cw.SamplerConfig(
        2000, 2 * chunk + 100, 5)))
    chunks = [batch[0].cols, batch[chunk].cols, batch[-1].cols]
    del batch
    sd = cw.solve_saddle(poly1, 2000)

    def rows(cols):
        copy = Columns(*(a.copy() for a in cols[:3]), cols.n)
        bounds = [*copy.starts.tolist(), len(copy.m)]
        return map(CycleType, zip(itertools.repeat(copy), bounds, bounds[1:]))

    def lazy():
        return itertools.chain.from_iterable(map(rows, chunks))

    largest = max(sum(a.nbytes for a in cols[:3]) for cols in chunks)
    num = sum(len(cols.starts) for cols in chunks)
    for report, width in zip(DESK_REPORTS, (3, 3, 3, 1)):
        report(lazy(), sd, poly1)  # a first call's one-time allocations
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report(lazy(), sd, poly1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        bound = largest + 2 * 4 * num * width + RUN_WORK_MIB * MiB
        assert peak <= bound, (peak / MiB, bound / MiB)


def test_reports_check_the_first_run_before_reading_on(poly1, htable_2000,
                                                       desk_saddle,
                                                       monkeypatch):
    # a one-chunk run at n = 2000 is checked against a saddle at the
    # desk's n before the batch is read past it, and cumulative_profile
    # without a saddle solves it at that n
    chunk = list(cw.sample_batch(poly1, htable_2000,
                                 cw.SamplerConfig(2000, 100, 5)))

    def batch():
        yield from chunk
        raise AssertionError("the report read past its first run")

    for report in DESK_REPORTS:
        with pytest.raises(ValueError, match="sd was solved at n=20000"):
            report(batch(), desk_saddle, poly1)
    solved = []

    def solve(w, n):
        solved.append(n)
        raise ValueError("solved")

    monkeypatch.setattr(stats, "solve_saddle", solve)
    with pytest.raises(ValueError, match="solved"):
        cw.cumulative_profile(batch(), 1.0, [1.0], w=poly1)
    assert solved == [2000]


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


def unread_batch():
    """A batch whose first read fails the test."""
    raise AssertionError("the report read its batch before checking its inputs")
    yield


# (report of (batch, desk saddle, Ewens saddle), the refusal's words)
REFUSALS = {
    "poisson-grid-nan": (lambda b, sd, ew: cw.verify_poisson_increments(
        b, sd, [1.0, math.nan]), "got nan"),
    "poisson-grid-empty": (lambda b, sd, ew: cw.verify_poisson_increments(
        b, sd, []), "y_grid is empty"),
    "poisson-grid-decreasing": (lambda b, sd, ew: cw.verify_poisson_increments(
        b, sd, [2.0, 1.0]), r"\[2.0, 1.0\]"),
    "profile-grid-negative": (lambda b, sd, ew: cw.cumulative_profile(
        b, 1.0, [-3.0, 1.0], sd=sd), "got -3.0"),
    "profile-grid-inf": (lambda b, sd, ew: cw.cumulative_profile(
        b, 1.0, [0.5, math.inf], sd=sd), "finite and >= 0, got inf"),
    "poisson-tol-unknown": (lambda b, sd, ew: cw.verify_poisson_increments(
        b, sd, [1.0], {"corr": 0.1}), "'corr'"),
    "gumbel-tol-negative": (lambda b, sd, ew: cw.verify_gumbel(
        b, sd, 3, {"gumbel_ks_1": -0.1}), "gumbel_ks_1=-0.1"),
    "profile-tol-nan": (lambda b, sd, ew: cw.cumulative_profile(
        b, 1.0, [1.0], tolerances={"profile_rel": math.nan}, sd=sd),
        "profile_rel=nan"),
    "bn-tol-negative": (lambda b, sd, ew: cw.bn_event_frequency(
        b, sd, tolerances={"bn_freq": -1.0}), "bn_freq=-1.0"),
    "gumbel-k-zero": (lambda b, sd, ew: cw.verify_gumbel(b, sd, 0),
                      "K must be >= 1, got 0"),
    "poisson-y-past-e-ell": (lambda b, sd, ew: cw.verify_poisson_increments(
        b, sd, [1.0, 2.0 * math.exp(sd.ell_n)]), "exceeds e\\^ell_n"),
    "poisson-ewens": (lambda b, sd, ew: cw.verify_poisson_increments(
        b, ew, [1.0]), "ell_n is undefined"),
    "gumbel-ewens": (lambda b, sd, ew: cw.verify_gumbel(b, ew, 3),
                     "ell_n is undefined"),
    "profile-ewens": (lambda b, sd, ew: cw.cumulative_profile(
        b, 0.0, [1.0], w=ew.weight, sd=ew), "ell_n is undefined"),
    "bn-ewens": (lambda b, sd, ew: cw.bn_event_frequency(b, ew),
                 "ell_n is undefined"),
}


@pytest.mark.parametrize("report, named", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_reports_check_their_inputs_before_reading(report, named,
                                                   desk_saddle):
    ewens = cw.solve_saddle(cw.ewens(2.0), 300)
    with pytest.raises(ValueError, match=named):
        report(unread_batch(), desk_saddle, ewens)


def test_ks_distance_refuses_an_empty_sample():
    with pytest.raises(ValueError, match="empty sample"):
        stats.ks_distance([], lambda x: x)


def longest_reference(cols, K):
    """stats.longest by a (rows, K, K) comparison of every cycle index with
    every running count."""
    ends = np.append(cols.starts[1:], len(cols.m))
    idx = ends[:, None] - 1 - np.arange(K)
    valid = idx >= cols.starts[:, None]
    idx = np.where(valid, idx, 0)
    m = np.where(valid, cols.m[idx], 0)
    cum = np.cumsum(np.where(valid, cols.c[idx], 0), axis=1)
    pos = (cum[:, None, :] < np.arange(1, K + 1)[:, None]).sum(axis=2)
    return np.take_along_axis(np.pad(m, ((0, 0), (0, 1))), pos, axis=1)


@pytest.mark.parametrize("K", [1, 3, 7])
def test_longest_matches_reference(K, desk_batch):
    few = [ct({1: 2}, 2), ct({2: 1}, 2), ct({1: 1, 4: 1}, 5), ct({5: 1}, 5)]
    for batch in (desk_batch, few[:2], few[2:]):
        for run in stats.runs(batch):
            np.testing.assert_array_equal(stats.longest(run, K),
                                          longest_reference(run, K))


def test_longest_memory_is_linear_in_k(desk_batch):
    # the reference's (rows, K, K) comparison peaked at 218 MiB here
    cols = joined(desk_batch)
    tracemalloc.start()
    try:
        L = stats.longest(cols, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak / 2**20
    np.testing.assert_array_equal(L[:, :7], stats.longest(cols, 7))
