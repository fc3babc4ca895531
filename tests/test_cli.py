"""End-to-end CLI behavior: outputs, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from chshq.cli import run, parse_fraction, frac_str
from chshq.errors import InvalidInput
from fractions import Fraction


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def test_fraction_io():
    assert parse_fraction("13/20") == Fraction(13, 20)
    assert parse_fraction("0.65") == Fraction(13, 20)
    assert frac_str(Fraction(3, 4)) == "3/4"
    with pytest.raises(InvalidInput):
        parse_fraction("three quarters")
    with pytest.raises(InvalidInput):
        parse_fraction("1/0")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_classical_value_exact(capsys):
    code, d = run_json(capsys, ["classical-value", "--p", "2", "--s", "1"])
    assert code == 0
    assert d["p_win"] == "3/4" and d["wins"] == 3 and d["method"] == "exact"


def test_classical_value_search(capsys):
    code, d = run_json(capsys, ["classical-value", "--p", "3", "--s", "1",
                                "--search", "--seed", "1", "--restarts", "6"])
    assert code == 0
    assert d["method"] == "search" and d["p_win"] == "2/3"


def test_construct_then_incidences(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    code = run(["construct", "--kind", "subfield", "--p", "3", "--s", "2",
                "--out", str(cfg)])
    assert code == 0
    capsys.readouterr()
    code, d = run_json(capsys, ["incidences", "--in", str(cfg)])
    assert code == 0
    assert d["incidences"] == 27 and d["q"] == 9


def test_config_json_schema(tmp_path):
    cfg = tmp_path / "c.json"
    run(["construct", "--kind", "grid", "--p", "101", "--s", "1",
         "--out", str(cfg)])
    d = json.loads(cfg.read_text())
    assert d["schema"] == "chshq/1" and d["kind"] == "grid"
    assert all(len(pt) == 2 for pt in d["points"])


def test_regularize_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    reg = tmp_path / "r.json"
    run(["construct", "--kind", "subfield", "--p", "3", "--s", "2",
         "--out", str(cfg)])
    code = run(["regularize", "--in", str(cfg), "--seed", "4",
                "--out", str(reg)])
    assert code == 0
    capsys.readouterr()
    code, d = run_json(capsys, ["incidences", "--in", str(reg)])
    assert code == 0
    assert d["legal"] is True
    stats = json.loads(reg.read_text())["stats"]
    assert d["incidences"] == stats["kept_incidences"]


def test_box_compose(capsys):
    code, d = run_json(capsys, ["box", "compose", "--q", "3", "--E", "1/2",
                                "--m", "2"])
    assert code == 0
    assert d["bias"] == "1/4"


def test_box_distribute(capsys):
    code, d = run_json(capsys, ["box", "distribute", "--q", "5",
                                "--E", "0.5"])
    assert code == 0
    assert d["E_dist"] == "1/4"


def test_ic_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["ic-sweep", "--p", "3", "--s", "1", "--E", "1/2",
                "--m-max", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# schema=chshq/1")
    assert lines[1] == "m,n_indices,per_index_mi,total,verdict"
    assert len(lines) == 2 + 4   # m = 2..5
    assert lines[-1].endswith("bounded")


def test_fourier_verify(capsys):
    code, d = run_json(capsys, ["fourier", "verify", "--p", "2", "--s", "2",
                                "--n", "3", "--trials", "25", "--seed", "2"])
    assert code == 0
    assert d["all_within_bound"] is True and d["max_sum"] <= d["bound"]


def test_fourier_maximize(capsys):
    code, d = run_json(capsys, ["fourier", "maximize", "--p", "3", "--s", "1",
                                "--n", "3", "--rounds", "40"])
    assert code == 0
    assert d["ratio"] >= 0.999


def test_csv_format_option(capsys):
    code = run(["classical-value", "--p", "2", "--s", "1", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "key,value"
    assert any(row == "p_win,3/4" for row in out)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_invalid_input(capsys):
    assert run(["classical-value", "--p", "6", "--s", "1"]) == 2
    assert "prime" in capsys.readouterr().err


def test_exit_code_cap(capsys):
    assert run(["classical-value", "--p", "2", "--s", "17"]) == 4
    capsys.readouterr()


def test_exit_code_missing_file(capsys):
    assert run(["incidences", "--in", "/nonexistent/x.json"]) == 2
    capsys.readouterr()


def test_exit_code_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "chshq/1", "q": 4,
                               "points": [[9, 0]], "lines": []}))
    assert run(["incidences", "--in", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["incidences", "regularize"])
@pytest.mark.parametrize("content, message", [
    (b"{bad", "not valid JSON"),
    (b"\xff\xfe{", "not valid JSON"),
    (b"", "not valid JSON"),
    (b'{"q": 1e400, "points": [], "lines": []}', "not an integer"),
    (b'{"q": 4.7, "points": [], "lines": []}', "not an integer"),
    (b'{"q": true, "points": [], "lines": []}', "not an integer"),
    (b'{"q": 5, "points": [[1.9, 0]], "lines": []}', "not an integer"),
    (b'{"q": 5, "points": [], "lines": [[0, false]]}', "not an integer"),
    (b'{"q": 5, "points": [[1, 2, 3]], "lines": []}', "malformed config json"),
    (b'{"q": 5, "points": [1], "lines": []}', "malformed config json"),
    (b"[]", "malformed config json"),
], ids=["syntax", "not-utf8", "empty", "q-overflow", "q-fraction", "q-bool",
        "point-fraction", "line-bool", "point-triple", "point-scalar",
        "not-object"])
def test_exit_code_malformed_json(tmp_path, capsys, command, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert run([command, "--in", str(bad)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["incidences", "regularize", "box"])
def test_exit_code_q_far_over_cap(tmp_path, capsys, command):
    # refused before factoring q, which would not finish by trial division
    q = 10 ** 30 + 57
    if command == "box":
        argv = ["box", "compose", "--q", str(q), "--E", "1/2", "--m", "2"]
    else:
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"q": q, "points": [], "lines": []}))
        argv = [command, "--in", str(cfg)]
    assert run(argv) == 4
    assert "exceeds the supported cap" in capsys.readouterr().err


def test_exit_code_zero_restarts(capsys):
    assert run(["classical-value", "--p", "3", "--search",
                "--restarts", "0"]) == 2
    assert "restarts" in capsys.readouterr().err


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_exit_code_nonpositive_max_rounds(capsys, rounds):
    assert run(["classical-value", "--p", "3", "--search",
                "--max-rounds", rounds]) == 2
    assert "max_rounds" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fourier", "verify", "--p", "3", "--n", "-1"],
    ["fourier", "verify", "--p", "3", "--n", "0"],
    ["fourier", "maximize", "--p", "3", "--n", "-1"],
    ["fourier", "maximize", "--p", "3", "--n", "0"],
    ["fourier", "verify", "--p", "3", "--trials", "-3"],
    ["fourier", "verify", "--p", "3", "--trials", "0"],
], ids=["verify-n-neg", "verify-n-zero", "maximize-n-neg", "maximize-n-zero",
        "verify-trials-neg", "verify-trials-zero"])
def test_exit_code_fourier_bad_sizes(capsys, argv):
    assert run(argv) == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["fourier", "verify", "--p", "2", "--s", "16", "--n", "1", "--trials", "1"],
     "capped at q <= 4096"),
    (["fourier", "maximize", "--p", "3", "--s", "10", "--n", "1", "--rounds", "1"],
     "capped at q <= 4096"),
    (["fourier", "verify", "--p", "3", "--n", "100000000", "--trials", "1"],
     "capped at q * n <= 16777216"),
    (["fourier", "maximize", "--p", "3", "--n", "100000000", "--rounds", "1"],
     "capped at q * n <= 16777216"),
], ids=["verify-q65536", "maximize-q59049", "verify-n1e8", "maximize-n1e8"])
def test_exit_code_fourier_over_cap(capsys, argv, message):
    # refused before the q x q gram (64 GiB), the mul table (13 GiB) or the
    # (2, q, n) family (4.5 GiB at q = 3, n = 1e8) is built
    assert run(argv) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["box", "compose", "--q", "65536", "--E", "1/2", "--m", "2"],
    ["box", "distribute", "--q", "65536", "--E", "1/2"],
    ["ic-sweep", "--p", "2", "--s", "16", "--E", "1/2", "--m-max", "4"],
], ids=["compose-q65536", "distribute-q65536", "ic-sweep-q65536"])
def test_exit_code_q_squared_pmf_work_over_cap(capsys, argv):
    # refused before q^2 Fraction products or a q x q joint table
    assert run(argv) == 4
    assert "capped at q <= 4096" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_is_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(["report", "--all", "--seed", "7", "--out", str(d1)]) == 0
    assert run(["report", "--all", "--seed", "7", "--out", str(d2)]) == 0
    capsys.readouterr()
    names = ["classical_values.csv", "tsirelson.csv", "constructions.csv",
             "ic_sweep.csv"]
    for name in names:
        a, b = (d1 / name).read_bytes(), (d2 / name).read_bytes()
        assert a == b and a


def test_report_tables_content(tmp_path, capsys):
    out = tmp_path / "rep"
    run(["report", "--all", "--seed", "7", "--out", str(out)])
    capsys.readouterr()
    cls = (out / "classical_values.csv").read_text().splitlines()
    assert "2,2,1,3,3/4,1/2,0 0,0 0" in cls
    assert any(row.startswith("7,7,1,19,19/49") for row in cls)
    cons = (out / "constructions.csv").read_text().splitlines()
    assert "subfield,9,9,9,27" in cons
    assert "grid,1009,1000,250,2500" in cons
    assert any(row.startswith("subspace,243") and row.endswith("2187")
               for row in cons)
