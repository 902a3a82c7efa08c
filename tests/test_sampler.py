import collections

import numpy as np
import pytest

import cycleweights as cw
from cycleweights import sampler as smp
from cycleweights.oracle import CapacityError


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
    hits = sum(
        cw.sample_cycle_type(w, small_table, 2, smp.substream_rng(11, i)).count(2)
        for i in range(20000))
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


def test_output_depends_only_on_seed_and_index(small_table):
    # sample i equals a fresh sampler's draw from substream (seed, i), and a
    # shorter batch is a prefix of a longer one
    w = cw.polynomial(1.0)
    fresh = smp.CycleTypeSampler(w, small_table, cache_limit=0)
    full = [ct.counts for ct in cw.sample_batch(
        w, small_table, cw.SamplerConfig(n=40, num_samples=64, seed=99))]
    assert full == [fresh.sample(40, smp.substream_rng(99, i)).counts
                    for i in range(64)]
    short = [ct.counts for ct in cw.sample_batch(
        w, small_table, cw.SamplerConfig(n=40, num_samples=16, seed=99))]
    assert short == full[:16]


def test_seed_changes_output(small_table):
    w = cw.polynomial(1.0)
    def run(seed):
        cfg = cw.SamplerConfig(n=40, num_samples=32, seed=seed)
        return [ct.counts for ct in cw.sample_batch(w, small_table, cfg)]
    assert run(1) != run(2)


def test_config_validation(small_table):
    with pytest.raises(ValueError):
        cw.SamplerConfig(n=40, num_samples=0, seed=0).validate(small_table)
    with pytest.raises(CapacityError):
        cw.SamplerConfig(n=100, num_samples=1, seed=0).validate(small_table)


def test_capacity_error(small_table):
    rng = smp.substream_rng(0, 0)
    with pytest.raises(CapacityError):
        cw.sample_cycle_type(cw.polynomial(1.0), small_table, 65, rng)


def test_expected_scan_work(htable_2000, poly1):
    # average total scanned k per sample stays below 2n
    s = smp.CycleTypeSampler(poly1, htable_2000)
    num = 200
    n = 2000
    for i in range(num):
        s.sample(n, smp.substream_rng(17, i))
    assert s.scanned / num <= 2 * n
    assert s.incidents == 0


def test_chunked_scan_agrees_with_cached(htable_2000, poly1):
    # same substreams, scan path forced chunked vs fully cached
    cached = smp.CycleTypeSampler(poly1, htable_2000, cache_limit=2048)
    chunked = smp.CycleTypeSampler(poly1, htable_2000, cache_limit=0)
    for i in range(50):
        a = cached.sample(1500, smp.substream_rng(3, i))
        b = chunked.sample(1500, smp.substream_rng(3, i))
        assert a.counts == b.counts


def test_substream_keys_distinct():
    keys = {smp.substream_key(42, i) for i in range(10000)}
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
