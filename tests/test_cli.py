import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from cycleweights import asymptotics, cli, oracle, sampler, weights
from cycleweights.cli import run_command


def test_saddle_prints_vn(capsys):
    assert run_command(["saddle", "--alpha", "1", "--n", "100"]) == 0
    out = capsys.readouterr().out
    m = re.search(r"v_n\s+= (\S+)", out)
    assert m and abs(float(m.group(1)) - 0.0999584) < 1e-6


def test_oracle_command(capsys):
    assert run_command(["oracle", "--alpha", "1", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    # L1 pmf values 1/13, 6/13, 6/13
    assert "0.076923" in out and "0.46153846" in out


def test_validation_errors(capsys, monkeypatch):
    assert run_command(["saddle", "--n", "100"]) == 2  # no family
    assert run_command(["saddle", "--alpha", "1", "--vartheta", "2",
                        "--n", "10"]) == 2  # conflicting families
    assert run_command(["nonsense"]) == 2
    # bad grids, K and tolerances, each rejected before any sample is
    # drawn, and diagnostics they do not cover: each error names the value
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the inputs were checked")
    monkeypatch.setattr(sampler, "sample_batch", no_sampling)
    capsys.readouterr()
    for experiment, extra, named in [
            ("poisson", ["--y-grid", "1,nan"], "got nan"),
            ("poisson", ["--y-grid=,"], "y_grid is empty"),
            ("poisson", ["--y-grid", "2,1"], "[2.0, 1.0]"),
            ("profile", ["--x-grid", "nan,1", "--tol", "profile_rel=0.5"],
             "got nan"),
            ("profile", ["--x-grid=-3,1", "--tol", "profile_rel=0.5"],
             "got -3.0"),
            ("profile", ["--x-grid=,"], "x_grid is empty"),
            ("profile", ["--tol", "profil_rel=0.5"], "'profil_rel'"),
            ("profile", ["--tol", "profile_rel=nan"], "profile_rel=nan"),
            ("gumbel", ["--k-longest", "0"], "K must be >= 1, got 0"),
            ("bn", ["--tol", "bn_freq=-0.1"], "bn_freq=-0.1")]:
        assert run_command(["verify", experiment, "--alpha", "1", "--n", "300",
                            "--samples", "20"] + extra) == 2
        assert named in capsys.readouterr().err
    for argv, named in [(["--alpha", "1", "--n", "50"], "n >= 100"),
                        (["--vartheta", "2", "--n", "1000"],
                         "ell_n is undefined")]:
        assert run_command(["saddle", "--diagnostics"] + argv) == 2
        out, err = capsys.readouterr()
        assert named in err and out == ""


def test_numeric_error_exits_3(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise asymptotics.SaddleError("no root")
    monkeypatch.setattr(asymptotics, "solve_saddle", fail)
    assert run_command(["saddle", "--alpha", "1", "--n", "100"]) == 3
    out, err = capsys.readouterr()
    assert err.startswith("numeric error:") and out == ""


def test_theta_overflow_is_validation_error(tmp_path, capsys):
    # theta_k = k^100 overflows a double from k = 1210 on, and k^400 from
    # k = 6 on: refused before any table, sample or cache file is made
    for argv, alpha, n, k in [
            (["htable", "--cache-dir", str(tmp_path)], 100, 2000, 1210),
            (["sample", "--samples", "2"], 100, 2000, 1210),
            (["oracle"], 400, 8, 6)]:
        assert run_command(argv + ["--alpha", str(alpha), "--n", str(n)]) == 2
        out, err = capsys.readouterr()
        assert f"alpha={alpha:.1f}" in err and f"k={k} " in err
        assert f"size {n}" in err and out == ""
    assert list(tmp_path.iterdir()) == []
    # the largest size the check accepts still builds a finite table
    logs = oracle.build_h_table(weights.polynomial(100.0), 1209).log_array()
    assert np.all(np.isfinite(logs))
    assert logs[-1] == pytest.approx(41814.16, rel=1e-6)


def test_saddle_diagnostics(capsys):
    assert run_command(["saddle", "--alpha", "1", "--n", "1000",
                        "--diagnostics"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert list(json.loads(last)) == ["residual", "width",
                                      "monotonicity_violations", "bn_ratio"]


def test_verify_y_grid_past_e_ell_is_validation_error(capsys, monkeypatch):
    # e^ell_n = 2.87 at alpha 0.05, n = 1e6, so y = 4 has a negative
    # threshold: refused before the table is built
    def refuse(*args, **kwargs):
        raise AssertionError("built or sampled before the y-grid was checked")
    monkeypatch.setattr(oracle, "build_h_table", refuse)
    monkeypatch.setattr(sampler, "sample_batch", refuse)
    assert run_command(["verify", "poisson", "--alpha", "0.05", "--n",
                        "1000000", "--samples", "10",
                        "--y-grid", "0.5,1,2,4"]) == 2
    assert "y=4.0 exceeds e^ell_n = 2.87" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, flag", [("profile", "--x-grid"),
                                              ("poisson", "--y-grid")])
def test_verify_infinite_grid_point_is_refused_before_any_build(
        experiment, flag, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built or sampled before the grid was checked")
    monkeypatch.setattr(oracle, "build_h_table", refuse)
    monkeypatch.setattr(sampler, "sample_batch", refuse)
    assert run_command(["verify", experiment, "--alpha", "1", "--n", "2000",
                        "--samples", "200", flag, "0.5,inf"]) == 2
    assert "must be finite and >= 0, got inf" in capsys.readouterr().err


def test_htable_cache_and_sample(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert run_command(["htable", "--alpha", "1", "--n", "200",
                        "--cache-dir", cache]) == 0
    # sample builds its own table; it takes no cache
    out = str(tmp_path / "samples.jsonl")
    assert run_command(["sample", "--alpha", "1", "--n", "200",
                        "--samples", "10", "--seed", "3",
                        "--cache-dir", cache, "--out", out]) == 2
    assert run_command(["sample", "--alpha", "1", "--n", "200",
                        "--samples", "10", "--seed", "3",
                        "--out", out]) == 0
    rows = [json.loads(line) for line in open(out)]
    assert len(rows) == 10
    assert all(sum(m * c for m, c in r["cycles"]) == 200 for r in rows)


def test_htable_imports_no_numpy_random_or_openssl(tmp_path):
    # htable cold (build, save), then warm (load, check the residual rows)
    # in a fresh interpreter: neither draws a random number, so neither
    # imports numpy.random, and the weight digest is CPython's own SHA-256,
    # so neither imports hashlib, which maps OpenSSL's libcrypto
    probe = ("import sys\n"
             "from cycleweights.cli import run_command\n"
             f"argv = ['htable', '--alpha', '1', '--n', '300', "
             f"'--cache-dir', {str(tmp_path)!r}]\n"
             "print(run_command(argv), run_command(argv),\n"
             "      [m for m in ('numpy.random', 'hashlib', '_hashlib')\n"
             "       if m in sys.modules])\n")
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    cold, warm, last = out.stdout.splitlines()
    assert cold == warm and cold.startswith("htable ready: n_max=300 ")
    assert last == "0 0 []"
    assert len(list(tmp_path.iterdir())) == 1


def test_cache_keeps_weights_that_format_alike_apart(tmp_path, capsys):
    # alpha 1 and 1.0000001 print alike with 6 significant digits
    cache = str(tmp_path)
    assert run_command(["htable", "--alpha", "1", "--n", "100",
                        "--cache-dir", cache]) == 0
    assert run_command(["htable", "--alpha", "1.0000001", "--n", "100",
                        "--cache-dir", cache]) == 0
    assert len(list(tmp_path.iterdir())) == 2


def test_htable_cache_row_off_scale_is_validation_error(tmp_path, capsys):
    # the residual ratios of a row 2**3000 too large overflow a double:
    # they must saturate and fail the check, not raise OverflowError
    w = weights.polynomial(1.0)
    tab = oracle.build_h_table(w, 200)
    tab.expo[1] += 3000
    path = cli._cache_path(str(tmp_path), w, 200)
    tab.save(path)
    with pytest.raises(ValueError, match="residual"):
        oracle.HTable.load(path, w)
    assert run_command(["htable", "--alpha", "1", "--n", "200",
                        "--cache-dir", str(tmp_path)]) == 2
    assert "residual" in capsys.readouterr().err


@pytest.mark.parametrize("rows,named",
                         [(slice(None), 0), (slice(-1, None), 2000)],
                         ids=["every-row", "top-row"])
def test_htable_cache_nan_mantissa_is_validation_error(rows, named, tmp_path,
                                                       capsys):
    # every mantissa NaN, or only the top row's, which no sampled residual
    # reads: a NaN is neither 0 nor in [1, 2), and its residual is not
    # <= 1e-9, so the load names the first NaN row
    w = weights.polynomial(1.0)
    tab = oracle.build_h_table(w, 2000)
    tab.mant[rows] = np.nan
    path = cli._cache_path(str(tmp_path), w, 2000)
    tab.save(path)
    with pytest.raises(ValueError,
                       match=f"residual check failed at n={named}$"):
        oracle.HTable.load(path, w)
    assert run_command(["htable", "--alpha", "1", "--n", "2000",
                        "--cache-dir", str(tmp_path)]) == 2
    assert f"at n={named}" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--alpha", "inf"), ("--alpha", "nan"),
                                        ("--vartheta", "inf")])
def test_non_finite_weight_is_validation_error(flag, value, capsys):
    assert run_command(["saddle", flag, value, "--n", "100"]) == 2
    assert f"finite {flag[2:]}" in capsys.readouterr().err


def test_sample_stdout_matches_out_file(tmp_path, capsys):
    argv = ["sample", "--alpha", "1", "--n", "50", "--samples", "7",
            "--seed", "4"]
    assert run_command(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "samples.jsonl"
    assert run_command(argv + ["--out", str(out)]) == 0
    assert printed == out.read_text()
    assert len(printed.splitlines()) == 7


def test_rejected_sample_keeps_out_file(tmp_path, capsys, monkeypatch):
    # a sample run whose config is refused exits before it opens --out:
    # no samples, and table([0, 1, 0]) at n = 9, where h_9 = 0
    out = tmp_path / "samples.jsonl"
    out.write_text("old rows\n")
    for w, n, num, named in [
            (weights.polynomial(1.0), 50, 0, "num_samples must be >= 1"),
            (weights.table([0, 1, 0]), 9, 5, "h_9 = 0")]:
        monkeypatch.setattr(cli, "_weight_from_args", lambda args: w)
        assert run_command(["sample", "--alpha", "1", "--n", str(n),
                            "--samples", str(num), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert out.read_text() == "old rows\n"


def test_verify_zero_growth_is_validation_error(capsys):
    # Ewens weights have no ell_n, so x_n(y) and the rescaling are undefined
    assert run_command(["verify", "gumbel", "--vartheta", "2", "--n", "300",
                        "--samples", "50"]) == 2
    assert "ell_n is undefined" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["poisson", "gumbel", "bn", "profile"])
def test_verify_zero_growth_fails_before_sampling(experiment, monkeypatch,
                                                  capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the weights were checked")
    monkeypatch.setattr(sampler, "sample_batch", no_sampling)
    assert run_command(["verify", experiment, "--vartheta", "2", "--n", "300",
                        "--samples", "50"]) == 2
    assert "ell_n is undefined" in capsys.readouterr().err


def test_parser_is_built_once():
    # run_command reuses one parser, and a parse leaves nothing in it for
    # the next: appended options and defaults start afresh
    assert cli.build_parser() is cli.build_parser()
    base = ["verify", "poisson", "--alpha", "1", "--n", "300", "--samples", "5"]
    first = cli.build_parser().parse_args(base + ["--tol", "a=1", "--seed", "4"])
    second = cli.build_parser().parse_args(base)
    assert first.tol == ["a=1"] and first.seed == 4
    assert second.tol is None and second.seed == 0
    assert run_command(["nonsense"]) == 2
    assert run_command(["saddle", "--alpha", "1", "--n", "100"]) == 0


def test_htable_truncated_cache_is_validation_error(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["htable", "--alpha", "1", "--n", "200", "--cache-dir", str(cache)]
    assert run_command(argv) == 0
    (path,) = cache.iterdir()
    path.write_bytes(path.read_bytes()[:-100])
    capsys.readouterr()
    assert run_command(argv) == 2
    assert "201 rows" in capsys.readouterr().err


def test_verify_profile_small(tmp_path, capsys):
    # small n keeps this fast; wide tolerance so it exercises the pipeline
    rc = run_command(["verify", "profile", "--alpha", "1", "--n", "500",
                      "--samples", "200", "--seed", "11",
                      "--x-grid", "0.5,1", "--tol", "profile_rel=0.5",
                      "--out", str(tmp_path / "rep.json")])
    assert rc == 0
    rep = json.load(open(tmp_path / "rep.json"))
    assert rep["experiment"] == "cumulative_profile"
    assert all(c["pass"] for c in rep["checks"])


def test_verify_stdout_is_one_json_document(capsys):
    # the report is all of stdout; the per-check lines go to stderr
    rc = run_command(["verify", "gumbel", "--alpha", "1", "--n", "300",
                      "--samples", "50", "--seed", "3"])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert rc == (0 if all(c["pass"] for c in rep["checks"]) else 1)
    assert [line.split()[1].rstrip(":") for line in err.splitlines()] == \
        [c["name"] for c in rep["checks"]]


def test_report_determinism(tmp_path):
    args = ["verify", "bn", "--alpha", "1", "--n", "500",
            "--samples", "100", "--seed", "5"]
    paths = []
    for i in (0, 1):
        p = str(tmp_path / f"r{i}.json")
        assert run_command(args + ["--out", p]) == 0
        paths.append(p)
    a = json.load(open(paths[0]))
    b = json.load(open(paths[1]))
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b


def test_expansions_csv(tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert run_command(["expansions", "--deltas", "0,1",
                        "--vs", "0.2,0.1", "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "delta,v,direct,approx,abs_error"
    assert len(lines) == 5
    # 17-significant-digit round trip
    row = lines[1].split(",")
    assert float(row[0]) == 0.0 and float(row[1]) == 0.2


def test_expansions_stdout_matches_out_file(tmp_path, capsys):
    argv = ["expansions", "--deltas", "0,1.5", "--vs", "0.2,0.1"]
    assert run_command(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "sweep.csv"
    assert run_command(argv + ["--out", str(out)]) == 0
    assert printed == out.read_text()
    assert len(printed.splitlines()) == 5


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_expansions_non_finite_delta_is_validation_error(delta, capsys):
    assert run_command(["expansions", "--deltas", delta, "--vs", "0.5"]) == 2
    assert f"delta={delta} is not finite" in capsys.readouterr().err


def test_htable_makes_cache_dir_only_to_save(tmp_path, capsys):
    # a refused build leaves no directory; a cold call makes it, and a warm
    # call loads what the cold one saved
    cache = tmp_path / "cache"
    assert run_command(["htable", "--alpha", "100", "--n", "2000",
                        "--cache-dir", str(cache)]) == 2
    assert not cache.exists()
    argv = ["htable", "--alpha", "1", "--n", "300", "--cache-dir", str(cache)]
    assert run_command(argv) == 0
    cold = capsys.readouterr().out
    assert len(list(cache.iterdir())) == 1
    assert run_command(argv) == 0
    assert capsys.readouterr().out == cold


@pytest.mark.parametrize("command", [["sample"], ["verify", "poisson"]])
def test_n_past_sampler_keys_is_refused_before_any_build(command, capsys,
                                                         monkeypatch):
    # keys sample * (n + 1) + length fit int32 only up to n = 2^31 - 2; a
    # larger n, and a sample count below 1, must be refused before a saddle
    # solve or a table build allocates for them (patched here so that
    # nothing large is allocated)
    def refuse(*args, **kwargs):
        raise AssertionError("solved, built or sampled for a refused input")
    for owner, name in [(asymptotics, "solve_saddle"),
                        (oracle, "build_h_table"), (sampler, "sample_batch")]:
        monkeypatch.setattr(owner, name, refuse)
    for n, samples, named in [
            (2**31 - 1, 1, [f"n={2**31 - 1}", str(2**31 - 2)]),
            (200000, 0, ["num_samples must be >= 1, got 0"])]:
        start = time.perf_counter()
        assert run_command(command + ["--alpha", "1", "--n", str(n),
                                      "--samples", str(samples)]) == 2
        assert time.perf_counter() - start < 0.1
        err = capsys.readouterr().err
        assert all(word in err for word in named), err


@pytest.mark.parametrize("experiment", ["poisson", "gumbel", "profile", "bn"])
def test_verify_mismatched_saddle_is_validation_error(experiment, monkeypatch,
                                                      capsys):
    solve = cli.asymptotics.solve_saddle
    monkeypatch.setattr(cli.asymptotics, "solve_saddle",
                        lambda w, n: solve(w, n + 1))
    assert run_command(["verify", experiment, "--alpha", "1", "--n", "300",
                        "--samples", "20"]) == 2
    assert "sd was solved at n=301" in capsys.readouterr().err


def test_unmet_checks_and_bad_input_are_named(capsys, monkeypatch):
    # a --tol item without "=" exits 2, and each of oracle's two checks
    # exits 1 when it fails: forced here by a wrong h_m and a pmf that
    # does not sum to 1
    argv = ["oracle", "--alpha", "1", "--n", "4"]
    for patch, command, code, named in [
            ({}, ["verify", "bn", "--alpha", "1", "--n", "300", "--samples",
                  "20", "--tol", "bn_freq"], 2, "got 'bn_freq'"),
            ({"_pmf": lambda w, n, key: ({4: 1.0},
                                         [math.log(0.25)] * (n + 1))},
             argv, 1, "[FAIL] h_1: recurrence vs enumeration rel err 3\n"),
            ({"_pmf": lambda w, n, key: ({4: 0.5}, oracle.log_h_exact(w, n))},
             argv, 1, "[FAIL] pmf mass 0.5")]:
        with monkeypatch.context() as m:
            for name, value in patch.items():
                m.setattr(oracle, name, value)
            assert run_command(command) == code
        out, err = capsys.readouterr()
        assert named in out + err


@pytest.mark.parametrize("argv", [
    ["sample", "--alpha", "1", "--n", "50", "--samples", "3", "--out", "DIR"],
    ["verify", "bn", "--alpha", "1", "--n", "300", "--samples", "20",
     "--out", "DIR"],
    ["expansions", "--deltas", "0.5", "--vs", "0.1", "--out", "DIR"],
    ["htable", "--alpha", "1", "--n", "50", "--cache-dir", "FILE"]],
    ids=["sample", "verify", "expansions", "htable"])
def test_unusable_path_is_validation_error(argv, tmp_path, capsys):
    # an --out that is a directory, or a --cache-dir that is a file
    (tmp_path / "file").write_text("")
    paths = {"DIR": str(tmp_path), "FILE": str(tmp_path / "file")}
    assert run_command([paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert repr(paths[argv[-1]]) in err, err
