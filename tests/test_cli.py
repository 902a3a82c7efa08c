import json
import re

import pytest

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


def test_validation_errors():
    assert run_command(["saddle", "--n", "100"]) == 2  # no family
    assert run_command(["saddle", "--alpha", "1", "--vartheta", "2",
                        "--n", "10"]) == 2  # conflicting families
    assert run_command(["nonsense"]) == 2


def test_htable_cache_and_sample(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert run_command(["htable", "--alpha", "1", "--n", "200",
                        "--cache-dir", cache]) == 0
    out = str(tmp_path / "samples.jsonl")
    assert run_command(["sample", "--alpha", "1", "--n", "200",
                        "--samples", "10", "--seed", "3",
                        "--cache-dir", cache, "--out", out]) == 0
    rows = [json.loads(line) for line in open(out)]
    assert len(rows) == 10
    assert all(sum(m * c for m, c in r["cycles"]) == 200 for r in rows)


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
