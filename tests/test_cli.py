import json
import re

import pytest

from cycleweights import cli, oracle, sampler, weights
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
        assert named in capsys.readouterr().err


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


@pytest.mark.parametrize("experiment", ["poisson", "gumbel", "profile", "bn"])
def test_verify_mismatched_saddle_is_validation_error(experiment, monkeypatch,
                                                      capsys):
    solve = cli.asymptotics.solve_saddle
    monkeypatch.setattr(cli.asymptotics, "solve_saddle",
                        lambda w, n: solve(w, n + 1))
    assert run_command(["verify", experiment, "--alpha", "1", "--n", "300",
                        "--samples", "20"]) == 2
    assert "sd was solved at n=301" in capsys.readouterr().err
